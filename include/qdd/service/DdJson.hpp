#pragma once

// qdd::service — the `dd` member of the session documents, written straight
// from a viz::Graph into one string.
//
// The form is the one clients have always received: the compact
// JsonExporter document (10 significant digits, thickness 3) as a
// json::Value dumps it after parsing. Building that DOM per response cost
// far more than the DD work, so ddJson() writes the same bytes directly:
//   * object keys in std::map order (edges, kind, nodes, radix, root, span,
//     zero; an edge's from, port, skippedLevels, to, weight, zeroStub; a
//     node's id, label, level; a root's node, skippedLevels, weight; a
//     weight's color, im, mag, phase, re, thickness);
//   * ", " and ": " separators;
//   * numbers with 10 significant digits, thickness with 3, non-finite
//     numbers as null. json::Value prints %.12g of that text, which is the
//     text itself below 1e10 (1e3 for thickness): every weight, magnitude,
//     phase, thickness and id of a DD is.

#include "qdd/viz/Graph.hpp"

#include <string>

namespace qdd::service {

/// The session-document form of `g` (one JSON object, as json::Value::raw
/// text). Equals json::Value::parse(viz::JsonExporter(10, true).toJson(g))
/// .dump() byte for byte while every number of `g` is below 1e10.
[[nodiscard]] std::string ddJson(const viz::Graph& g);

} // namespace qdd::service
