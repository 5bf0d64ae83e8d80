#include "qdd/viz/JsonExporter.hpp"

#include "qdd/common/Json.hpp"
#include "qdd/common/NumberFormat.hpp"
#include "qdd/viz/Color.hpp"

#include <fstream>
#include <stdexcept>

namespace qdd::viz {

namespace {

void appendWeight(std::string& out, const ComplexValue& w, int precision) {
  const double mag = w.mag();
  const double phase = w.arg();
  out += "{\"re\": ";
  json::appendNumber(out, w.re, precision);
  out += ", \"im\": ";
  json::appendNumber(out, w.im, precision);
  out += ", \"mag\": ";
  json::appendNumber(out, mag, precision);
  out += ", \"phase\": ";
  json::appendNumber(out, phase, precision);
  out += ", \"color\": \"";
  phaseToColor(phase).appendHex(out);
  out += "\", \"thickness\": ";
  json::appendNumber(out, magnitudeToThickness(mag), 3);
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
