#include "qdd/service/DdJson.hpp"

#include "qdd/common/Json.hpp"
#include "qdd/common/NumberFormat.hpp"
#include "qdd/viz/Color.hpp"

namespace qdd::service {

namespace {

void writeWeight(std::string& out, const ComplexValue& w) {
  const double mag = w.mag();
  const double phase = w.arg();
  out += "{\"color\": \"";
  viz::phaseToColor(phase).appendHex(out);
  out += "\", \"im\": ";
  json::appendNumber(out, w.im, 10);
  out += ", \"mag\": ";
  json::appendNumber(out, mag, 10);
  out += ", \"phase\": ";
  json::appendNumber(out, phase, 10);
  out += ", \"re\": ";
  json::appendNumber(out, w.re, 10);
  out += ", \"thickness\": ";
  json::appendNumber(out, viz::magnitudeToThickness(mag), 3);
  out += '}';
}

} // namespace

std::string ddJson(const viz::Graph& g) {
  // identity-skipping: w * I_span collapses to a bare terminal root
  const bool terminalRoot =
      g.empty() && g.isMatrix && !g.rootWeight.exactlyZero();
  std::string out;
  out.reserve(128 + 190 * g.edges.size() + 48 * g.nodes.size());
  out += "{\"edges\": [";
  for (std::size_t k = 0; k < g.edges.size(); ++k) {
    const auto& e = g.edges[k];
    out += k == 0 ? "{\"from\": " : ", {\"from\": ";
    appendInteger(out, e.from);
    out += ", \"port\": ";
    appendInteger(out, e.port);
    if (e.zeroStub) {
      out += ", \"zeroStub\": true}";
      continue;
    }
    if (e.skippedLevels > 0) {
      out += ", \"skippedLevels\": ";
      appendInteger(out, e.skippedLevels);
    }
    out += ", \"to\": ";
    if (e.to == viz::Graph::TERMINAL_ID) {
      out += "\"terminal\"";
    } else {
      appendInteger(out, e.to);
    }
    out += ", \"weight\": ";
    writeWeight(out, e.weight);
    out += '}';
  }
  out += g.isMatrix ? "], \"kind\": \"matrix\", \"nodes\": ["
                    : "], \"kind\": \"vector\", \"nodes\": [";
  for (std::size_t k = 0; k < g.nodes.size(); ++k) {
    out += k == 0 ? "{\"id\": " : ", {\"id\": ";
    appendInteger(out, g.nodes[k].id);
    out += ", \"label\": \"q";
    appendInteger(out, g.nodes[k].level);
    out += "\", \"level\": ";
    appendInteger(out, g.nodes[k].level);
    out += '}';
  }
  out += "], \"radix\": ";
  appendInteger(out, g.radix);
  if (!g.empty() || terminalRoot) {
    out += ", \"root\": {\"node\": ";
    if (terminalRoot) {
      out += "\"terminal\"";
    } else {
      appendInteger(out, g.rootNode);
    }
    if (terminalRoot || g.rootSkippedLevels > 0) {
      out += ", \"skippedLevels\": ";
      appendInteger(out, g.rootSkippedLevels);
    }
    out += ", \"weight\": ";
    writeWeight(out, g.rootWeight);
    out += '}';
  }
  if (g.isMatrix && g.span > 0) {
    out += ", \"span\": ";
    appendInteger(out, g.span);
  }
  if (g.empty() && !terminalRoot) {
    out += ", \"zero\": true";
  }
  out += '}';
  return out;
}

} // namespace qdd::service
