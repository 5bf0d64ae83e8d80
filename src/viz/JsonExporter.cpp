#include "qdd/viz/JsonExporter.hpp"

#include "qdd/common/NumberFormat.hpp"
#include "qdd/viz/Color.hpp"

#include <cmath>
#include <fstream>
#include <stdexcept>

namespace qdd::viz {

void appendJsonEscaped(std::string& out, std::string_view s) {
  // plain characters are copied in runs; only the escapes are written one
  // by one
  std::size_t plain = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') {
      continue;
    }
    out.append(s.data() + plain, i - plain);
    plain = i + 1;
    switch (c) {
    case '"':
      out += "\\\"";
      break;
    case '\\':
      out += "\\\\";
      break;
    case '\n':
      out += "\\n";
      break;
    case '\r':
      out += "\\r";
      break;
    case '\t':
      out += "\\t";
      break;
    case '\b':
      out += "\\b";
      break;
    case '\f':
      out += "\\f";
      break;
    default:
      out += "\\u00";
      out += static_cast<char>('0' + (c >> 4U));
      out += "0123456789abcdef"[c & 0xFU];
      break;
    }
  }
  out.append(s.data() + plain, s.size() - plain);
}

std::string jsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  appendJsonEscaped(out, s);
  return out;
}

void appendJsonNumber(std::string& out, double v, int precision) {
  if (!std::isfinite(v)) {
    out += "null"; // NaN/Inf have no JSON literal; never emit them bare
    return;
  }
  appendGeneral(out, v, precision);
}

std::string jsonNumber(double v, int precision) {
  std::string out;
  appendJsonNumber(out, v, precision);
  return out;
}

namespace {

void appendWeight(std::string& out, const ComplexValue& w, int precision) {
  const double mag = w.mag();
  const double phase = w.arg();
  out += "{\"re\": ";
  appendJsonNumber(out, w.re, precision);
  out += ", \"im\": ";
  appendJsonNumber(out, w.im, precision);
  out += ", \"mag\": ";
  appendJsonNumber(out, mag, precision);
  out += ", \"phase\": ";
  appendJsonNumber(out, phase, precision);
  out += ", \"color\": \"";
  phaseToColor(phase).appendHex(out);
  out += "\", \"thickness\": ";
  appendJsonNumber(out, magnitudeToThickness(mag), 3);
  out += '}';
}

} // namespace

std::string JsonExporter::toJson(const Graph& g) const {
  // Layout strings: newline + indentation collapse to nothing in compact
  // mode; the emitted structure is identical either way.
  const char* nl = compact ? "" : "\n";
  const char* ind = compact ? "" : "  ";
  const char* ind2 = compact ? "" : "    ";
  const char* sp = compact ? "" : " ";
  // opens member `key` of the top-level object
  const auto member = [&](std::string& out, const char* key) {
    out += ind;
    out += '"';
    out += key;
    out += "\":";
    out += sp;
  };

  std::string out;
  out.reserve(256 + 160 * g.edges.size() + 48 * g.nodes.size());
  out += '{';
  out += nl;
  member(out, "kind");
  out += g.isMatrix ? "\"matrix\"," : "\"vector\",";
  out += nl;
  member(out, "radix");
  appendInteger(out, g.radix);
  out += ',';
  out += nl;
  if (g.isMatrix && g.span > 0) {
    member(out, "span");
    appendInteger(out, g.span);
    out += ',';
    out += nl;
  }
  if (g.empty()) {
    if (g.isMatrix && !(g.rootWeight.re == 0. && g.rootWeight.im == 0.)) {
      // identity-skipping: w * I_span collapses to a bare terminal
      member(out, "root");
      out += "{\"node\": \"terminal\", \"skippedLevels\": ";
      appendInteger(out, g.rootSkippedLevels);
      out += ", \"weight\": ";
      appendWeight(out, g.rootWeight, precision);
      out += "},";
    } else {
      member(out, "zero");
      out += "true,";
    }
    out += nl;
    member(out, "nodes");
    out += "[],";
    out += nl;
    member(out, "edges");
    out += "[]";
    out += nl;
    out += '}';
    out += nl;
    return out;
  }
  member(out, "root");
  out += "{\"node\": ";
  appendInteger(out, g.rootNode);
  if (g.rootSkippedLevels > 0) {
    out += ", \"skippedLevels\": ";
    appendInteger(out, g.rootSkippedLevels);
  }
  out += ", \"weight\": ";
  appendWeight(out, g.rootWeight, precision);
  out += "},";
  out += nl;
  member(out, "nodes");
  out += '[';
  out += nl;
  for (std::size_t k = 0; k < g.nodes.size(); ++k) {
    out += ind2;
    out += "{\"id\": ";
    appendInteger(out, g.nodes[k].id);
    out += ", \"level\": ";
    appendInteger(out, g.nodes[k].level);
    out += ", \"label\": \"q";
    appendInteger(out, g.nodes[k].level);
    out += k + 1 < g.nodes.size() ? "\"}," : "\"}";
    out += nl;
  }
  out += ind;
  out += "],";
  out += nl;
  member(out, "edges");
  out += '[';
  out += nl;
  for (std::size_t k = 0; k < g.edges.size(); ++k) {
    const auto& e = g.edges[k];
    out += ind2;
    out += "{\"from\": ";
    appendInteger(out, e.from);
    out += ", \"port\": ";
    appendInteger(out, e.port);
    if (e.zeroStub) {
      out += ", \"zeroStub\": true";
    } else {
      out += ", \"to\": ";
      if (e.to == Graph::TERMINAL_ID) {
        out += "\"terminal\"";
      } else {
        appendInteger(out, e.to);
      }
      if (e.skippedLevels > 0) {
        out += ", \"skippedLevels\": ";
        appendInteger(out, e.skippedLevels);
      }
      out += ", \"weight\": ";
      appendWeight(out, e.weight, precision);
    }
    out += k + 1 < g.edges.size() ? "}," : "}";
    out += nl;
  }
  out += ind;
  out += ']';
  out += nl;
  out += '}';
  if (!compact) {
    out += '\n';
  }
  return out;
}

void JsonExporter::writeFile(const std::string& path, const Graph& g) const {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot open file for writing: " + path);
  }
  out << toJson(g);
}

} // namespace qdd::viz
