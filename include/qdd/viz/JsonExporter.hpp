#pragma once

#include "qdd/viz/Graph.hpp"

#include <string>
#include <string_view>

namespace qdd::viz {

/// Appends `s` escaped for embedding in a JSON string literal: quote,
/// backslash, and all control characters (U+0000..U+001F as \uXXXX or the
/// short forms \n \r \t \b \f). Shared by every JSON-emitting layer (the
/// exporters here and the qdd::service wire format).
void appendJsonEscaped(std::string& out, std::string_view s);
/// appendJsonEscaped() into a fresh string.
[[nodiscard]] std::string jsonEscape(const std::string& s);

/// Appends a double as a JSON number with the given significant precision
/// (the general format of qdd::appendGeneral). Non-finite values (NaN,
/// +/-Inf) have no JSON representation and must never be emitted bare —
/// they serialize as `null`, which every strict parser accepts and
/// renderers can treat as "undefined".
void appendJsonNumber(std::string& out, double v, int precision);
/// appendJsonNumber() into a fresh string.
[[nodiscard]] std::string jsonNumber(double v, int precision);

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
