// Tests for the TikZ exporter, the ASCII circuit renderer, and the
// JSON-exporter wire-format guarantees the qdd::service API relies on.

#include "qdd/common/Json.hpp"
#include "qdd/dd/Package.hpp"
#include "qdd/ir/Builders.hpp"
#include "qdd/viz/CircuitDiagram.hpp"
#include "qdd/viz/JsonExporter.hpp"
#include "qdd/viz/TikzExporter.hpp"

#include <cmath>
#include <limits>

namespace qdd::viz {
using qdd::Package; // for brevity in the tests below
using qdd::SQRT2_2;
using qdd::vEdge;
using qdd::X_MAT;
} // namespace qdd::viz

#include <gtest/gtest.h>

namespace qdd::viz {
namespace {

TEST(VizTikz, BellStateClassicFigure) {
  Package pkg(2);
  const Graph g = buildGraph(pkg.makeGHZState(2));
  const TikzExporter exporter({.style = Style::Classic});
  const std::string tikz = exporter.toTikz(g);
  EXPECT_NE(tikz.find("\\begin{tikzpicture}"), std::string::npos);
  EXPECT_NE(tikz.find("\\end{tikzpicture}"), std::string::npos);
  EXPECT_NE(tikz.find("{$q_1$}"), std::string::npos);
  EXPECT_NE(tikz.find("{$q_0$}"), std::string::npos);
  EXPECT_NE(tikz.find("terminal"), std::string::npos);
  // the 1/sqrt2 root weight renders as \nicefrac
  EXPECT_NE(tikz.find("\\nicefrac{1}{\\sqrt{2}}"), std::string::npos);
}

TEST(VizTikz, StandaloneDocumentCompilesStructurally) {
  Package pkg(2);
  const Graph g = buildGraph(pkg.makeGateDD(X_MAT, 2, {{1, true}}, 0));
  const TikzExporter exporter;
  const std::string doc = exporter.toStandaloneDocument(g);
  EXPECT_EQ(doc.rfind("\\documentclass", 0), 0U);
  EXPECT_NE(doc.find("\\begin{document}"), std::string::npos);
  EXPECT_NE(doc.find("\\end{document}"), std::string::npos);
  // balanced environment
  EXPECT_EQ(doc.find("\\begin{tikzpicture}") != std::string::npos,
            doc.find("\\end{tikzpicture}") != std::string::npos);
}

TEST(VizTikz, ColoredModeDefinesColors) {
  Package pkg(1);
  const vEdge state =
      pkg.makeStateFromVector({{SQRT2_2, 0.}, {0., SQRT2_2}});
  const TikzExporter exporter({.style = Style::Classic,
                               .edgeLabels = false,
                               .colored = true,
                               .magnitudeThickness = true});
  const std::string tikz = exporter.toTikz(buildGraph(state));
  EXPECT_NE(tikz.find("\\definecolor{ddc0}"), std::string::npos);
  EXPECT_NE(tikz.find("line width="), std::string::npos);
}

TEST(VizTikz, ZeroDiagram) {
  const TikzExporter exporter;
  const std::string tikz = exporter.toTikz(buildGraph(vEdge::zero()));
  EXPECT_NE(tikz.find("{$0$}"), std::string::npos);
}

TEST(VizCircuit, BellMatchesFig1cLayout) {
  const std::string art = circuitToAscii(ir::builders::bell());
  // q1 (top wire): H box then control dot
  const auto q1pos = art.find("q1:");
  const auto q0pos = art.find("q0:");
  ASSERT_NE(q1pos, std::string::npos);
  ASSERT_NE(q0pos, std::string::npos);
  EXPECT_LT(q1pos, q0pos); // most significant on top (paper convention)
  const std::string q1line = art.substr(q1pos, art.find('\n', q1pos) - q1pos);
  EXPECT_NE(q1line.find("[H]"), std::string::npos);
  EXPECT_NE(q1line.find("*"), std::string::npos);
  const std::string q0line = art.substr(q0pos, art.find('\n', q0pos) - q0pos);
  EXPECT_NE(q0line.find("(+)"), std::string::npos);
}

TEST(VizCircuit, QftShowsPhaseLabelsAndSwap) {
  const std::string art = circuitToAscii(ir::builders::qft(3));
  EXPECT_NE(art.find("[P(pi/2)]"), std::string::npos);
  EXPECT_NE(art.find("[P(pi/4)]"), std::string::npos);
  EXPECT_NE(art.find("x"), std::string::npos); // SWAP ends
}

TEST(VizCircuit, CrossingConnectorsDrawn) {
  // cp between q0 and q2 must cross the q1 wire with '|'
  ir::QuantumComputation qc(3);
  qc.cphase(1.0, 0, 2);
  const std::string art = circuitToAscii(qc);
  const auto q1pos = art.find("q1:");
  const std::string q1line = art.substr(q1pos, art.find('\n', q1pos) - q1pos);
  EXPECT_NE(q1line.find("|"), std::string::npos);
}

TEST(VizCircuit, SpecialOperations) {
  ir::QuantumComputation qc(2, 2);
  qc.measure(0, 0);
  qc.reset(1);
  qc.barrier();
  const std::string art = circuitToAscii(qc);
  EXPECT_NE(art.find("[M]"), std::string::npos);
  EXPECT_NE(art.find("[|0>]"), std::string::npos);
  EXPECT_NE(art.find("!"), std::string::npos);
}

TEST(VizCircuit, NegativeControlsAndCompound) {
  ir::QuantumComputation qc(2);
  qc.addStandard(ir::OpType::X, {{1, false}}, {0});
  auto comp = std::make_unique<ir::CompoundOperation>("mygate");
  comp->emplaceBack(
      std::make_unique<ir::StandardOperation>(ir::OpType::H, Qubit{0}));
  comp->emplaceBack(
      std::make_unique<ir::StandardOperation>(ir::OpType::H, Qubit{1}));
  qc.emplaceBack(std::move(comp));
  const std::string art = circuitToAscii(qc);
  EXPECT_NE(art.find("o"), std::string::npos); // negative control
  EXPECT_NE(art.find("[mygate]"), std::string::npos);
}

TEST(VizCircuit, WrapsLongCircuits) {
  ir::QuantumComputation qc(2);
  for (int k = 0; k < 60; ++k) {
    qc.h(0);
  }
  const std::string art = circuitToAscii(qc, 60);
  // multiple banks: the q1 label appears more than once
  std::size_t occurrences = 0;
  std::size_t pos = 0;
  while ((pos = art.find("q1:", pos)) != std::string::npos) {
    ++occurrences;
    pos += 3;
  }
  EXPECT_GT(occurrences, 1U);
}

TEST(VizCircuit, EmptyCircuit) {
  EXPECT_EQ(circuitToAscii(ir::QuantumComputation{}), "(empty circuit)\n");
}

TEST(VizJsonWire, EscapesControlCharactersAndQuotes) {
  EXPECT_EQ(json::escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json::escape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(json::escape("tab\tnl\ncr\r"), "tab\\tnl\\ncr\\r");
  // other control characters become \u00XX, never raw bytes
  EXPECT_EQ(json::escape(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(json::escape(std::string(1, '\x1f')), "\\u001f");
}

TEST(VizJsonWire, NonFiniteNumbersNeverEmitBare) {
  const auto number = [](double v) {
    std::string out;
    json::appendNumber(out, v, 6);
    return out;
  };
  EXPECT_EQ(number(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(number(-std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(number(0.5), "0.5");
}

TEST(VizJsonWire, CompactModeIsOneLineAndSameDocument) {
  Package pkg(3);
  const Graph g = buildGraph(pkg.makeGHZState(3));
  const std::string pretty = JsonExporter(10).toJson(g);
  const std::string compact = JsonExporter(10, /*compact=*/true).toJson(g);
  EXPECT_EQ(compact.find('\n'), std::string::npos);
  EXPECT_LT(compact.size(), pretty.size());
  // same document once whitespace is ignored
  std::string strippedPretty;
  std::string strippedCompact;
  for (const char c : pretty) {
    if (c != ' ' && c != '\n') {
      strippedPretty += c;
    }
  }
  for (const char c : compact) {
    if (c != ' ' && c != '\n') {
      strippedCompact += c;
    }
  }
  EXPECT_EQ(strippedPretty, strippedCompact);
}

} // namespace
} // namespace qdd::viz
