// Tests for identity-skipping matrix-DD edges (arXiv:2406.11959): node counts
// against Package::materializedSize (every skipped level built as an identity
// node, the counts the paper's figures show), span-aware operations against
// the dense baseline, serialization (v1 back-compat, v2 span), and
// equivalence checking.

#include "qdd/baseline/DenseSimulator.hpp"
#include "qdd/bridge/DDBuilder.hpp"
#include "qdd/dd/Package.hpp"
#include "qdd/dd/Serialization.hpp"
#include "qdd/ir/Builders.hpp"
#include "qdd/verify/EquivalenceChecker.hpp"
#include "qdd/verify/VerificationSession.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <complex>
#include <stdexcept>
#include <vector>

namespace qdd {
namespace {

constexpr double EPS = 1e-9;

void expectSameMatrix(const std::vector<std::complex<double>>& a,
                      const std::vector<std::complex<double>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_NEAR(std::abs(a[k] - b[k]), 0., 1e-8) << "entry " << k;
  }
}

std::vector<std::complex<double>>
denseUnitary(const ir::QuantumComputation& qc) {
  baseline::DenseUnitary u(qc.numQubits());
  u.run(qc);
  return u.matrix();
}

std::size_t materializedGateNodes(const ir::QuantumComputation& qc) {
  Package pkg(qc.numQubits());
  std::size_t nodes = 0;
  for (const auto& op : qc) {
    nodes += Package::materializedSize(bridge::getDD(*op, qc.numQubits(), pkg),
                                       qc.numQubits());
  }
  return nodes;
}

TEST(IdentityNodes, MakeIdentIsTerminalUnderStrip) {
  Package pkg(5);
  const mEdge id = pkg.makeIdent(5);
  EXPECT_TRUE(id.isTerminal());
  EXPECT_EQ(Package::size(id), 0U);
  EXPECT_NEAR(pkg.trace(id, 5).re, 32., EPS);
}

TEST(IdentityNodes, MakeIdentIsTowerUnderMaterialize) {
  Package pkg(8);
  const mEdge id = pkg.makeIdent(8);
  EXPECT_EQ(Package::materializedSize(id, 8), 8U);
  EXPECT_EQ(Package::materializedSize(id, 5), 5U);
}

TEST(IdentityNodes, SingleQubitGateIsOneNodeUnderStrip) {
  Package pkg(8);
  for (const Qubit target : {Qubit{0}, Qubit{3}, Qubit{7}}) {
    const mEdge h = pkg.makeGateDD(H_MAT, 8, target);
    EXPECT_EQ(Package::size(h), 1U) << "target " << target;
    // materialized, it would drag a full identity tower along
    EXPECT_EQ(Package::materializedSize(h, 8), 8U) << "target " << target;
  }
}

TEST(IdentityNodes, ControlledGatesAgreeAcrossModes) {
  Package pkg(4);
  const mEdge cx = pkg.makeGateDD(X_MAT, 4, {{3, true}}, 0);
  EXPECT_LT(Package::size(cx), Package::materializedSize(cx, 4));
  baseline::DenseUnitary denseCx(4);
  denseCx.applyGate(X_MAT, 0, {{3, true}});
  expectSameMatrix(pkg.getMatrix(cx, 4), denseCx.matrix());

  const mEdge ccx = pkg.makeGateDD(X_MAT, 4, {{2, true}, {1, false}}, 3);
  baseline::DenseUnitary denseCcx(4);
  denseCcx.applyGate(X_MAT, 3, {{2, true}, {1, false}});
  expectSameMatrix(pkg.getMatrix(ccx, 4), denseCcx.matrix());
}

TEST(IdentityNodes, FunctionalityBuildAgreesAcrossModes) {
  const auto qc = ir::builders::qft(4);
  Package pkg(4);
  const mEdge u = bridge::buildFunctionality(qc, pkg);
  const auto dense = denseUnitary(qc);
  expectSameMatrix(pkg.getMatrix(u, 4), dense);
  std::complex<double> denseTrace = 0.;
  for (std::size_t k = 0; k < 16; ++k) {
    denseTrace += dense[k * 16 + k];
  }
  const auto tr = pkg.trace(u, 4);
  EXPECT_NEAR(tr.re, denseTrace.real(), EPS);
  EXPECT_NEAR(tr.im, denseTrace.imag(), EPS);
}

TEST(IdentityNodes, CumulativeGateNodesShrinkUnderStrip) {
  // the paper's headline effect: per-gate operator DDs no longer carry
  // identity towers, so their cumulative size drops sharply
  const auto qc = ir::builders::qft(6);
  Package pkg(6);
  std::size_t stripNodes = 0;
  for (const auto& op : qc) {
    stripNodes += Package::size(bridge::getDD(*op, 6, pkg));
  }
  const std::size_t matNodes = materializedGateNodes(qc);
  EXPECT_GE(matNodes, 2 * stripNodes)
      << "strip " << stripNodes << " vs materialized " << matNodes;
}

TEST(IdentityNodes, MaterializedSizeMatchesTowerCounts) {
  // node counts of DDs built with every identity level materialized
  Package pkg(8);
  EXPECT_EQ(Package::materializedSize(pkg.makeGateDD(X_MAT, 2, {{1, true}}, 0),
                                      2),
            3U); // Fig. 2(c)
  EXPECT_EQ(Package::materializedSize(pkg.makeGateDD(X_MAT, 8, {{4, true}}, 3),
                                      8),
            9U);
  EXPECT_EQ(materializedGateNodes(ir::builders::qft(8)), 452U);
  EXPECT_EQ(materializedGateNodes(ir::builders::grover(10, (1ULL << 10) - 2)),
            11050U);
  // the adder's 0-stubs sit on nodes that reach the terminal only from
  // level 0: a zero edge adds no identity nodes
  Package adderPkg(7);
  EXPECT_EQ(Package::materializedSize(
                bridge::buildFunctionality(ir::builders::rippleCarryAdder(3),
                                           adderPkg),
                7),
            15U);

  // Ex. 12: the barrier-sync alternating check of QFT_3 against its
  // compiled version peaks at 9 nodes
  const auto qft = ir::builders::qft(3);
  Package vpkg(3);
  verify::VerificationSession session(
      qft, ir::decomposeToNativeGates(qft, true), vpkg);
  session.runToCompletion();
  std::size_t peak = Package::materializedSize(session.state(), 3);
  while (session.stepBack()) {
    peak = std::max(peak, Package::materializedSize(session.state(), 3));
  }
  EXPECT_EQ(peak, 9U);
}

TEST(IdentitySpanOps, KronSupplySpanForStrippedBottom) {
  Package pkg(3);
  // makeIdent(2) is a bare terminal — the 3-arg kron carries the span the
  // terminal cannot
  const mEdge hi = pkg.kron(pkg.makeGateDD(H_MAT, 1, 0), pkg.makeIdent(2), 2);
  EXPECT_EQ(Package::size(hi), 1U);
  EXPECT_EQ(Package::materializedSize(hi, 3), 3U);
  const mEdge expected = pkg.makeGateDD(H_MAT, 3, 2);
  EXPECT_EQ(hi.p, expected.p);
  EXPECT_TRUE(hi.w.approximatelyEquals(expected.w, EPS));
}

TEST(IdentitySpanOps, PartialTraceAgreesAcrossModes) {
  const auto qc = ir::builders::grover(3, 5, 1);
  Package pkg(3);
  const mEdge u = bridge::buildFunctionality(qc, pkg);
  const mEdge pt = pkg.partialTrace(u, {false, true, false});
  // trace out qubit 1 of the dense unitary; qubits 0 and 2 become 0 and 1
  const auto dense = denseUnitary(qc);
  const auto widen = [](std::size_t i, std::size_t k) {
    return (i & 1U) | (k << 1U) | ((i >> 1U) << 2U);
  };
  std::vector<std::complex<double>> expected(16);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      for (std::size_t k = 0; k < 2; ++k) {
        expected[r * 4 + c] += dense[widen(r, k) * 8 + widen(c, k)];
      }
    }
  }
  expectSameMatrix(pkg.getMatrix(pt, 2), expected);
}

TEST(IdentitySpanOps, TraceScalesWithSkippedLevels) {
  Package pkg(6);
  // tr(I_5 (x) T) = 2^5 * (1 + e^{i pi/4})
  const mEdge t = pkg.makeGateDD(T_MAT, 6, 0);
  const auto tr = pkg.trace(t, 6);
  EXPECT_NEAR(tr.re, 32. * (1. + SQRT2_2), EPS);
  EXPECT_NEAR(tr.im, 32. * SQRT2_2, EPS);
}

TEST(IdentitySerialization, V2RoundTripPreservesCanonicalRoot) {
  Package pkg(6);
  const mEdge h = pkg.makeGateDD(H_MAT, 6, 2);
  pkg.incRef(h);
  const std::string text = serializeToString(h, 6);
  EXPECT_NE(text.find("qdd-matrix 2"), std::string::npos);
  EXPECT_NE(text.find("span 6"), std::string::npos);
  const mEdge back = deserializeMatrixFromString(pkg, text);
  EXPECT_EQ(back.p, h.p);
  EXPECT_TRUE(back.w.approximatelyEquals(h.w, EPS));
}

TEST(IdentitySerialization, V1MaterializedTowerAutoStripsOnRead) {
  // hand-written v1 file: X at level 0 with an explicit identity node at
  // level 1 — the legacy on-disk shape for X (x) nothing-above on 2 qubits
  const std::string v1 = "qdd-matrix 1\n"
                         "root 1 1 0\n"
                         "node 0 0 -1 0 0 -1 1 0 -1 1 0 -1 0 0\n"
                         "node 1 1 0 1 0 -1 0 0 -1 0 0 0 1 0\n"
                         "end\n";
  Package pkg(2);
  const mEdge s = deserializeMatrixFromString(pkg, v1);
  EXPECT_EQ(Package::size(s), 1U);
  EXPECT_EQ(Package::materializedSize(s, 2), 2U);
  EXPECT_EQ(s.p, pkg.makeGateDD(X_MAT, 2, 0).p);
}

TEST(IdentitySerialization, RootAboveSpanRejected) {
  Package pkg(3);
  const mEdge cx = pkg.makeGateDD(X_MAT, 3, {{2, true}}, 0);
  ASSERT_FALSE(cx.isTerminal());
  EXPECT_THROW((void)serializeToString(cx, 2), std::invalid_argument);
}

TEST(IdentityCrossValidation, RandomCircuitsMatchCanonically) {
  for (const std::uint64_t seed : {7ULL, 19ULL, 42ULL}) {
    const auto qc = ir::builders::randomCliffordT(5, 12, seed);
    Package pkg(5);
    const mEdge u = bridge::buildFunctionality(qc, pkg);
    pkg.incRef(u);
    // canonicity: the DD read off the dense unitary is the same node
    const mEdge dense = pkg.makeMatrixFromDense(denseUnitary(qc), 5);
    EXPECT_EQ(u.p, dense.p) << "seed " << seed;
    EXPECT_TRUE(u.w.approximatelyEquals(dense.w, EPS)) << "seed " << seed;
    pkg.decRef(u);
  }
}

TEST(IdentityCrossValidation, SimulationUnaffectedByMode) {
  const auto qc = ir::builders::randomCliffordT(4, 10, 3);
  Package pkg(4);
  const vEdge v = bridge::simulate(qc, pkg.makeZeroState(4), pkg);
  baseline::DenseStateVector dense(4);
  dense.run(qc);
  expectSameMatrix(pkg.getVector(v), dense.amplitudes());
}

TEST(IdentityEquivalence, VerdictParityAcrossModes) {
  const auto g1 = ir::builders::qft(3);
  auto g2 = ir::builders::qft(3);
  const verify::EquivalenceChecker checker(g1, g2);
  Package pkg(3);
  const auto alternating = checker.checkAlternating(pkg);
  const auto construction = checker.checkByConstruction(pkg);
  EXPECT_EQ(alternating.equivalence, verify::Equivalence::Equivalent);
  EXPECT_EQ(construction.equivalence, verify::Equivalence::Equivalent);
  // the alternating scheme hovers near the identity, which is represented
  // with no nodes at all
  EXPECT_LE(alternating.maxNodes, construction.maxNodes);
}

TEST(IdentityEquivalence, NonEquivalentStaysNonEquivalent) {
  const auto g1 = ir::builders::qft(3);
  auto g2 = ir::builders::qft(3);
  g2.x(0); // corrupt the compiled version
  const verify::EquivalenceChecker checker(g1, g2);
  Package pkg(3);
  EXPECT_EQ(checker.checkAlternating(pkg).equivalence,
            verify::Equivalence::NotEquivalent);
  EXPECT_EQ(checker.checkByConstruction(pkg).equivalence,
            verify::Equivalence::NotEquivalent);
}

} // namespace
} // namespace qdd
