#include "qdd/viz/SvgExporter.hpp"

#include "qdd/common/NumberFormat.hpp"
#include "qdd/viz/Color.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace qdd::viz {

namespace {

constexpr double NODE_RADIUS = 18.;
constexpr double LEVEL_HEIGHT = 90.;
constexpr double NODE_SPACING = 90.;
constexpr double MARGIN = 40.;

struct Placed {
  double x = 0.;
  double y = 0.;
};

std::string fmt(double v) {
  std::string out;
  appendFixed(out, v, 1);
  return out;
}

} // namespace

std::string SvgExporter::toSvg(const Graph& g) const {
  std::ostringstream body;

  if (g.empty()) {
    const bool identity =
        g.isMatrix && !(g.rootWeight.re == 0. && g.rootWeight.im == 0.);
    const std::string label =
        identity ? "I^" + std::to_string(g.rootSkippedLevels) : "0";
    return "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"120\" "
           "height=\"80\"><rect x=\"35\" y=\"30\" width=\"50\" height=\"24\" "
           "fill=\"none\" stroke=\"black\"/><text x=\"60\" y=\"47\" "
           "text-anchor=\"middle\" font-size=\"13\">" +
           label + "</text></svg>\n";
  }

  // Group nodes by level; levels sorted descending (top = highest qubit).
  std::map<Qubit, std::vector<std::size_t>, std::greater<>> byLevel;
  for (const auto& node : g.nodes) {
    byLevel[node.level].push_back(node.id);
  }
  std::size_t maxPerLevel = 1;
  for (const auto& [level, ids] : byLevel) {
    maxPerLevel = std::max(maxPerLevel, ids.size());
  }

  const double width =
      2. * MARGIN + static_cast<double>(maxPerLevel - 1) * NODE_SPACING +
      2. * NODE_RADIUS;
  const double height = 2. * MARGIN +
                        (static_cast<double>(byLevel.size()) + 1.5) *
                            LEVEL_HEIGHT;

  std::vector<Placed> pos(g.nodes.size());
  double y = MARGIN + LEVEL_HEIGHT; // leave room for the root edge
  for (const auto& [level, ids] : byLevel) {
    const double rowWidth = static_cast<double>(ids.size() - 1) * NODE_SPACING;
    double x = width / 2. - rowWidth / 2.;
    for (const std::size_t id : ids) {
      pos[id] = {x, y};
      x += NODE_SPACING;
    }
    y += LEVEL_HEIGHT;
  }
  const Placed terminalPos{width / 2., y};

  const auto strokeFor = [&](const ComplexValue& w) {
    std::string attrs;
    if (opts.colored) {
      attrs += " stroke=\"" + weightToColor(w).toHex() + "\"";
    } else {
      attrs += " stroke=\"black\"";
      if (!(w.re == 1. && w.im == 0.)) {
        attrs += " stroke-dasharray=\"5,3\"";
      }
    }
    attrs += " stroke-width=\"" +
             fmt(opts.magnitudeThickness ? magnitudeToThickness(w.mag())
                                         : 1.2) +
             "\"";
    return attrs;
  };

  const auto drawEdge = [&](double x1, double y1, double x2, double y2,
                            const ComplexValue& w, std::size_t skipped = 0) {
    body << "  <line x1=\"" << fmt(x1) << "\" y1=\"" << fmt(y1) << "\" x2=\""
         << fmt(x2) << "\" y2=\"" << fmt(y2) << "\"" << strokeFor(w)
         << "/>\n";
    std::string label;
    if (opts.edgeLabels && !(w.re == 1. && w.im == 0.)) {
      label = w.toString(opts.precision);
    }
    if (skipped > 0) {
      // identity-skipping marker (arXiv:2406.11959)
      label += (label.empty() ? "" : " ") + std::string("(x)I^") +
               std::to_string(skipped);
    }
    if (!label.empty()) {
      body << "  <text x=\"" << fmt((x1 + x2) / 2. + 6.) << "\" y=\""
           << fmt((y1 + y2) / 2.) << "\" font-size=\"10\">" << label
           << "</text>\n";
    }
  };

  // root edge
  const Placed rootPos = pos[g.rootNode];
  drawEdge(rootPos.x, rootPos.y - LEVEL_HEIGHT, rootPos.x,
           rootPos.y - NODE_RADIUS, g.rootWeight, g.rootSkippedLevels);

  // edges
  for (const auto& edge : g.edges) {
    const Placed from = pos[edge.from];
    const double offset =
        (static_cast<double>(edge.port) -
         (static_cast<double>(g.radix) - 1.) / 2.) *
        (2. * NODE_RADIUS / static_cast<double>(g.radix));
    const double x1 = from.x + offset;
    const double y1 = from.y + NODE_RADIUS;
    if (edge.zeroStub) {
      // 0-stub: short stroke ending in a small bar
      body << "  <line x1=\"" << fmt(x1) << "\" y1=\"" << fmt(y1)
           << "\" x2=\"" << fmt(x1) << "\" y2=\"" << fmt(y1 + 10.)
           << "\" stroke=\"#666666\" stroke-width=\"1\"/>\n";
      body << "  <line x1=\"" << fmt(x1 - 4.) << "\" y1=\"" << fmt(y1 + 10.)
           << "\" x2=\"" << fmt(x1 + 4.) << "\" y2=\"" << fmt(y1 + 10.)
           << "\" stroke=\"#666666\" stroke-width=\"1\"/>\n";
      continue;
    }
    const Placed to =
        edge.to == Graph::TERMINAL_ID ? terminalPos : pos[edge.to];
    drawEdge(x1, y1, to.x, to.y - NODE_RADIUS, edge.weight,
             edge.skippedLevels);
  }

  // nodes on top of edges
  for (const auto& node : g.nodes) {
    const Placed p = pos[node.id];
    if (opts.style == Style::Classic) {
      body << "  <circle cx=\"" << fmt(p.x) << "\" cy=\"" << fmt(p.y)
           << "\" r=\"" << fmt(NODE_RADIUS)
           << "\" fill=\"white\" stroke=\"black\"/>\n";
    } else {
      body << "  <rect x=\"" << fmt(p.x - NODE_RADIUS) << "\" y=\""
           << fmt(p.y - NODE_RADIUS * 0.7) << "\" width=\""
           << fmt(2. * NODE_RADIUS) << "\" height=\""
           << fmt(1.4 * NODE_RADIUS)
           << "\" rx=\"4\" fill=\"#eef\" stroke=\"#446\"/>\n";
    }
    body << "  <text x=\"" << fmt(p.x) << "\" y=\"" << fmt(p.y + 4.)
         << "\" text-anchor=\"middle\" font-size=\"12\">q" << node.level
         << "</text>\n";
  }
  // terminal
  body << "  <rect x=\"" << fmt(terminalPos.x - 14.) << "\" y=\""
       << fmt(terminalPos.y - 12.)
       << "\" width=\"28\" height=\"24\" fill=\"white\" stroke=\"black\"/>\n";
  body << "  <text x=\"" << fmt(terminalPos.x) << "\" y=\""
       << fmt(terminalPos.y + 4.)
       << "\" text-anchor=\"middle\" font-size=\"12\">1</text>\n";

  std::ostringstream svg;
  svg << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\""
      << fmt(width) << "\" height=\"" << fmt(height + 30.)
      << "\" font-family=\"Helvetica\">\n";
  svg << body.str();
  svg << "</svg>\n";
  return svg.str();
}

void SvgExporter::writeFile(const std::string& path, const Graph& g) const {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot open file for writing: " + path);
  }
  out << toSvg(g);
}

} // namespace qdd::viz
