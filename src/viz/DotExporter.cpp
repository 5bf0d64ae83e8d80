#include "qdd/viz/DotExporter.hpp"

#include "qdd/common/NumberFormat.hpp"
#include "qdd/viz/Color.hpp"

#include <cmath>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace qdd::viz {

namespace {

bool weightIsOne(const ComplexValue& w) {
  return w.re == 1. && w.im == 0.;
}

std::string edgeAttributes(const ComplexValue& w, const ExportOptions& opts,
                           std::size_t skipped = 0) {
  std::string attrs;
  const auto add = [&attrs](const std::string& attr) {
    if (!attrs.empty()) {
      attrs += ", ";
    }
    attrs += attr;
  };
  // identity-skipping edges carry an explicit (x)I^k marker so skipped
  // levels stay visible in the rendering (arXiv:2406.11959)
  std::string label;
  if (opts.edgeLabels && !weightIsOne(w)) {
    label = w.toString(opts.precision);
  }
  if (skipped > 0) {
    label += (label.empty() ? "" : " ") + std::string("(x)I^") +
             std::to_string(skipped);
  }
  if (!label.empty()) {
    add("label=\"" + label + "\"");
  }
  if (!weightIsOne(w) && !opts.colored) {
    // "Edges with a corresponding weight not equal to 1 are drawn using
    // dashed lines" (Sec. IV-A)
    add("style=dashed");
  }
  if (opts.colored) {
    add("color=\"" + weightToColor(w).toHex() + "\"");
  }
  if (opts.magnitudeThickness) {
    std::string penwidth = "penwidth=";
    appendGeneral(penwidth, magnitudeToThickness(w.mag()), 3);
    add(penwidth);
  }
  if (attrs.empty()) {
    return "";
  }
  return " [" + attrs + "]";
}

} // namespace

std::string DotExporter::toDot(const Graph& g) const {
  std::ostringstream ss;
  write(ss, g);
  return ss.str();
}

void DotExporter::write(std::ostream& os, const Graph& g) const {
  os << "digraph dd {\n";
  os << "  rankdir=TB;\n";
  os << "  node [fontname=\"Helvetica\"];\n";
  os << "  edge [arrowsize=0.6];\n";

  if (g.empty()) {
    if (g.isMatrix && !(g.rootWeight.re == 0. && g.rootWeight.im == 0.)) {
      // identity-skipping: w * I_span collapses to a bare terminal
      os << "  root [shape=point, style=invis];\n";
      os << "  terminal [shape=box, label=\"1\"];\n";
      os << "  root -> terminal"
         << edgeAttributes(g.rootWeight, opts, g.rootSkippedLevels) << ";\n";
    } else {
      os << "  zero [shape=box, label=\"0\"];\n";
    }
    os << "}\n";
    return;
  }

  // invisible entry point for the root edge
  os << "  root [shape=point, style=invis];\n";

  // nodes
  for (const auto& node : g.nodes) {
    if (opts.style == Style::Classic) {
      os << "  n" << node.id << " [shape=circle, label=\"q" << node.level
         << "\"];\n";
    } else {
      // Modern: a box with one port cell per successor.
      os << "  n" << node.id
         << " [shape=none, margin=0, label=<\n"
            "    <TABLE BORDER=\"0\" CELLBORDER=\"1\" CELLSPACING=\"0\" "
            "CELLPADDING=\"4\">\n"
            "      <TR><TD COLSPAN=\""
         << g.radix << "\" BGCOLOR=\"#e8e8f8\"><B>q" << node.level
         << "</B></TD></TR>\n      <TR>";
      for (std::size_t k = 0; k < g.radix; ++k) {
        os << "<TD PORT=\"p" << k << "\">";
        if (g.isMatrix) {
          os << "U" << (k / 2) << (k % 2);
        } else {
          os << "|" << k << ">";
        }
        os << "</TD>";
      }
      os << "</TR>\n    </TABLE>>];\n";
    }
  }
  os << "  terminal [shape=box, label=\"1\"];\n";

  // root edge
  os << "  root -> n" << g.rootNode
     << edgeAttributes(g.rootWeight, opts, g.rootSkippedLevels) << ";\n";

  // edges
  std::size_t stubId = 0;
  const auto writeTail = [&](const Graph::Edge& edge) {
    os << "n" << edge.from;
    if (opts.style == Style::Modern) {
      os << ":p" << edge.port << ":s";
    }
  };
  for (const auto& edge : g.edges) {
    if (edge.zeroStub) {
      if (opts.style == Style::Classic) {
        // 0-stubs "retracted into the nodes themselves": a tiny stub mark
        os << "  stub" << stubId
           << " [shape=point, width=0.05, label=\"\"];\n";
        os << "  ";
        writeTail(edge);
        os << " -> stub" << stubId << " [style=dotted, arrowhead=none];\n";
        ++stubId;
      }
      // Modern style omits zero edges entirely (the cell stays empty).
      continue;
    }
    os << "  ";
    writeTail(edge);
    os << " -> ";
    if (edge.to == Graph::TERMINAL_ID) {
      os << "terminal";
    } else {
      os << "n" << edge.to;
    }
    os << edgeAttributes(edge.weight, opts, edge.skippedLevels);
    if (opts.style == Style::Classic && g.radix == 2) {
      // preserve the left/right successor order visually
      os << (edge.port == 0 ? " [tailport=sw]" : " [tailport=se]");
    }
    os << ";\n";
  }
  os << "}\n";
}

void DotExporter::writeFile(const std::string& path, const Graph& g) const {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot open file for writing: " + path);
  }
  write(out, g);
}

} // namespace qdd::viz
