#pragma once

#include "qdd/viz/Graph.hpp"

#include <string>

namespace qdd::viz {

/// Serializes a decision diagram as JSON — the data interchange format a
/// web front-end (like the paper's tool) renders from. Every edge carries
/// its complex weight in cartesian and polar form plus the Fig. 7(b) HLS
/// color and a magnitude-based thickness, so a renderer needs no further
/// computation.
///
/// Two layouts: the default pretty-printed document (files, humans) and a
/// compact single-line mode for wire payloads (`dd?fmt=json&compact=1`) —
/// same structure, no whitespace. Session documents embed the same
/// structure with sorted keys, written by qdd::service::ddJson.
class JsonExporter {
public:
  explicit JsonExporter(int precision = 10, bool compact = false)
      : precision(precision), compact(compact) {}

  [[nodiscard]] std::string toJson(const Graph& g) const;
  void writeFile(const std::string& path, const Graph& g) const;

private:
  int precision;
  bool compact;
};

} // namespace qdd::viz
