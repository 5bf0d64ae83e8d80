#pragma once

#include "qdd/dd/Node.hpp"

#include <cstddef>
#include <vector>

namespace qdd::viz {

/// Flattened, exporter-friendly view of a decision diagram.
struct Graph {
  static constexpr std::size_t TERMINAL_ID = static_cast<std::size_t>(-1);

  struct Node {
    std::size_t id = 0;
    Qubit level = 0;
  };
  struct Edge {
    std::size_t from = 0;       ///< source node id
    std::size_t port = 0;       ///< successor index (0..radix-1)
    std::size_t to = 0;         ///< target node id or TERMINAL_ID
    ComplexValue weight;
    bool zeroStub = false;      ///< 0-stub (paper Ex. 6)
    /// Implicit identity levels skipped between source and target
    /// (identity-skipping matrix DDs, arXiv:2406.11959). 0 for vector DDs.
    std::size_t skippedLevels = 0;
  };

  std::vector<Node> nodes;      ///< all non-terminal nodes, root first
  std::vector<Edge> edges;      ///< all edges including zero stubs
  ComplexValue rootWeight;      ///< weight of the root edge
  std::size_t rootNode = TERMINAL_ID;
  bool isMatrix = false;
  std::size_t radix = 2;        ///< successors per node (2 vector, 4 matrix)
  std::size_t span = 0;         ///< qubit levels covered, incl. skipped ones
  /// Implicit identity levels above the root node (matrix DDs only). For a
  /// non-zero terminal root this equals `span`: the DD is w * I_span.
  std::size_t rootSkippedLevels = 0;

  [[nodiscard]] bool empty() const noexcept {
    return rootNode == TERMINAL_ID;
  }
};

/// Flattens a vector DD (root first, breadth-first within levels).
Graph buildGraph(const vEdge& root);
/// Flattens a matrix DD; the span is inferred from the root node level, so
/// identity levels skipped above the root are not visible.
Graph buildGraph(const mEdge& root);
/// Flattens a matrix DD covering `span` qubit levels; levels skipped above
/// the root are recorded in `rootSkippedLevels`.
Graph buildGraph(const mEdge& root, std::size_t span);

} // namespace qdd::viz
