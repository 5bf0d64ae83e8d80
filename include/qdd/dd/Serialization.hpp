#pragma once

#include "qdd/dd/Package.hpp"

#include <iosfwd>
#include <string>

namespace qdd {

/// Text serialization of decision diagrams.
///
/// Format (line-oriented, human-readable, stable across versions):
///
///   qdd-vector 1            | qdd-matrix 2         (header: kind + version)
///   span <n>                                       (matrix v2 only: qubit
///                                                   span of the root edge)
///   root <id> <re> <im>                            (root node and weight)
///   node <id> <level> {<child> <re> <im>}^radix    (one line per node,
///                                                   children before parents;
///                                                   child -1 = terminal,
///                                                   weight 0 0 = 0-stub)
///   end
///
/// Matrix version 2 (identity-skipping, arXiv:2406.11959) allows a child to
/// sit any number of levels below its parent — the gap is implicit identity —
/// and a non-zero terminal child of a node above level 0 denotes the identity
/// on all remaining levels. Version 1 files (fully materialized towers) are
/// still read; the towers are stripped on the fly.
///
/// Deserialization rebuilds the DD through the package's normalizing node
/// constructors, so a round trip yields the canonical representative of the
/// serialized function (pointer-identical to the original within the same
/// package).
void serialize(const vEdge& e, std::ostream& os);
void serialize(const mEdge& e, std::ostream& os);
/// Matrix serialization with an explicit qubit span (>= the root level + 1).
/// Required to round-trip skipped levels above the root faithfully.
void serialize(const mEdge& e, std::ostream& os, std::size_t span);
std::string serializeToString(const vEdge& e);
std::string serializeToString(const mEdge& e);
std::string serializeToString(const mEdge& e, std::size_t span);

vEdge deserializeVector(Package& pkg, std::istream& is);
mEdge deserializeMatrix(Package& pkg, std::istream& is);
vEdge deserializeVectorFromString(Package& pkg, const std::string& text);
mEdge deserializeMatrixFromString(Package& pkg, const std::string& text);

} // namespace qdd
