#include "qdd/dd/GateMatrix.hpp"
#include "qdd/dd/Package.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <random>

namespace qdd {
namespace {

constexpr double EPS = 1e-10;

void expectVectorNear(const std::vector<std::complex<double>>& a,
                      const std::vector<std::complex<double>>& b,
                      double eps = EPS) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_NEAR(a[k].real(), b[k].real(), eps) << "index " << k;
    EXPECT_NEAR(a[k].imag(), b[k].imag(), eps) << "index " << k;
  }
}

TEST(PackageStates, ZeroState) {
  Package pkg(2);
  const vEdge e = pkg.makeZeroState(2);
  const auto vec = pkg.getVector(e);
  expectVectorNear(vec, {{1., 0.}, {0., 0.}, {0., 0.}, {0., 0.}});
  EXPECT_EQ(Package::size(e), 2U);
}

TEST(PackageStates, BasisState) {
  Package pkg(3);
  // |q2 q1 q0> = |101> -> index 5
  const vEdge e = pkg.makeBasisState(3, {true, false, true});
  const auto vec = pkg.getVector(e);
  for (std::size_t k = 0; k < 8; ++k) {
    EXPECT_NEAR(vec[k].real(), k == 5 ? 1. : 0., EPS);
  }
}

TEST(PackageStates, BellStateStructureMatchesFig2a) {
  // Paper Ex. 6 / Fig. 2(a): |phi> = (|00> + |11>)/sqrt(2) has 3 nodes,
  // a root edge weight of 1/sqrt(2), and inner edge weights 1.
  Package pkg(2);
  const vEdge e = pkg.makeGHZState(2);
  EXPECT_EQ(Package::size(e), 3U);
  EXPECT_NEAR(e.w.real(), SQRT2_2, EPS);
  EXPECT_NEAR(e.w.imag(), 0., EPS);
  // both successors of the root carry weight 1
  EXPECT_TRUE(e.p->e[0].w.exactlyOne());
  EXPECT_TRUE(e.p->e[1].w.exactlyOne());
  // paths reconstruct amplitudes 1/sqrt(2) (Ex. 6)
  EXPECT_NEAR(pkg.getValueByIndex(e, 0).re, SQRT2_2, EPS);
  EXPECT_NEAR(pkg.getValueByIndex(e, 3).re, SQRT2_2, EPS);
  EXPECT_NEAR(pkg.getValueByIndex(e, 1).mag(), 0., EPS);
  EXPECT_NEAR(pkg.getValueByIndex(e, 2).mag(), 0., EPS);
}

TEST(PackageStates, GHZLinearGrowth) {
  Package pkg(16);
  for (std::size_t n = 2; n <= 16; ++n) {
    const vEdge e = pkg.makeGHZState(n);
    // GHZ decision diagrams grow linearly: 2n - 1 nodes.
    EXPECT_EQ(Package::size(e), 2 * n - 1) << "n=" << n;
    EXPECT_NEAR(pkg.norm(e), 1., EPS);
  }
}

TEST(PackageStates, WState) {
  Package pkg(4);
  const vEdge e = pkg.makeWState(4);
  const auto vec = pkg.getVector(e);
  const double amp = 0.5;
  for (std::size_t k = 0; k < 16; ++k) {
    const bool singleExcitation = k != 0 && (k & (k - 1)) == 0;
    EXPECT_NEAR(vec[k].real(), singleExcitation ? amp : 0., EPS)
        << "index " << k;
  }
  EXPECT_NEAR(pkg.norm(e), 1., EPS);
}

TEST(PackageStates, StateFromVectorRoundTrip) {
  Package pkg(3);
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> dist(-1., 1.);
  std::vector<std::complex<double>> vec(8);
  double n2 = 0.;
  for (auto& a : vec) {
    a = {dist(rng), dist(rng)};
    n2 += std::norm(a);
  }
  for (auto& a : vec) {
    a /= std::sqrt(n2);
  }
  const vEdge e = pkg.makeStateFromVector(vec);
  expectVectorNear(pkg.getVector(e), vec);
}

TEST(PackageStates, CanonicityPointerEquality) {
  // Same state built two different ways must yield the same node pointer.
  Package pkg(4);
  const vEdge a = pkg.makeGHZState(4);
  std::vector<std::complex<double>> vec(16, {0., 0.});
  vec[0] = {SQRT2_2, 0.};
  vec[15] = {SQRT2_2, 0.};
  const vEdge b = pkg.makeStateFromVector(vec);
  EXPECT_EQ(a.p, b.p);
  EXPECT_TRUE(a.w.approximatelyEquals(b.w, EPS));
}

TEST(PackageMatrices, HadamardDDIsSingleNode) {
  // Paper Fig. 2(b): the Hadamard DD is a single node with weights
  // (1, 1, 1, -1) and a root weight of 1/sqrt(2).
  Package pkg(1);
  const mEdge h = pkg.makeGateDD(H_MAT, 1, 0);
  EXPECT_EQ(Package::size(h), 1U);
  EXPECT_NEAR(h.w.real(), SQRT2_2, EPS);
  EXPECT_TRUE(h.p->e[0].w.exactlyOne());
  EXPECT_TRUE(h.p->e[1].w.exactlyOne());
  EXPECT_TRUE(h.p->e[2].w.exactlyOne());
  EXPECT_NEAR(h.p->e[3].w.real(), -1., EPS);
}

TEST(PackageMatrices, CNOTDDMatchesFig2c) {
  // Paper Fig. 2(c): controlled-NOT with control q1 and target q0.
  // The figure shows 3 nodes; with identity-skipping edges the explicit
  // identity successor under the pass-through branch collapses into the
  // terminal, leaving 2 nodes (root + X block).
  Package pkg(2);
  const mEdge cx = pkg.makeGateDD(X_MAT, 2, {{1, true}}, 0);
  EXPECT_EQ(Package::size(cx), 2U);
  EXPECT_TRUE(cx.w.exactlyOne());
  EXPECT_TRUE(cx.p->e[1].w.exactlyZero());
  EXPECT_TRUE(cx.p->e[2].w.exactlyZero());
  const auto mat = pkg.getMatrix(cx);
  // Fig. 1(b) matrix
  const std::vector<std::complex<double>> expected{
      {1, 0}, {0, 0}, {0, 0}, {0, 0}, //
      {0, 0}, {1, 0}, {0, 0}, {0, 0}, //
      {0, 0}, {0, 0}, {0, 0}, {1, 0}, //
      {0, 0}, {0, 0}, {1, 0}, {0, 0}};
  expectVectorNear(mat, expected);
}

TEST(PackageMatrices, IdentityStructure) {
  // Identity-skipping: the identity is the weight-1 terminal edge, no nodes.
  Package pkg(5);
  const mEdge id = pkg.makeIdent(5);
  EXPECT_TRUE(id.isTerminal());
  EXPECT_EQ(Package::size(id), 0U);
  EXPECT_TRUE(id.w.exactlyOne());
  const auto mat = pkg.getMatrix(id, 5);
  for (std::size_t r = 0; r < 32; ++r) {
    for (std::size_t c = 0; c < 32; ++c) {
      EXPECT_NEAR(mat[r * 32 + c].real(), r == c ? 1. : 0., EPS);
    }
  }
}

TEST(PackageMatrices, KronByTerminalReplacement) {
  // Paper Ex. 8 / Fig. 3: H (x) I2 via decision diagrams. A stripped
  // identity is terminal and carries no span, so the explicit-span kron
  // overload places H above one implicit identity level.
  Package pkg(2);
  const mEdge h = pkg.makeGateDD(H_MAT, 1, 0);
  const mEdge id = pkg.makeIdent(1);
  const mEdge hi = pkg.kron(h, id, 1);
  EXPECT_EQ(Package::size(hi), 1U);
  // must equal the directly constructed H on qubit 1 of a 2-qubit system
  const mEdge direct = pkg.makeGateDD(H_MAT, 2, 1);
  EXPECT_EQ(hi.p, direct.p);
  EXPECT_TRUE(hi.w.approximatelyEquals(direct.w, EPS));
}

TEST(PackageMatrices, KronVectors) {
  Package pkg(4);
  const vEdge plus = pkg.makeStateFromVector({{SQRT2_2, 0.}, {SQRT2_2, 0.}});
  const vEdge one = pkg.makeStateFromVector({{0., 0.}, {1., 0.}});
  const vEdge combined = pkg.kron(plus, one);
  const auto vec = pkg.getVector(combined);
  // |+> (x) |1> = (|01> + |11>)/sqrt2
  expectVectorNear(vec, {{0., 0.}, {SQRT2_2, 0.}, {0., 0.}, {SQRT2_2, 0.}});
}

TEST(PackageMatrices, GateOnUpperQubitEqualsKron) {
  // Paper Ex. 3: H applied to the most-significant qubit of |00> yields
  // (|00> + |10>)/sqrt(2).
  Package pkg(2);
  const mEdge h1 = pkg.makeGateDD(H_MAT, 2, 1);
  const vEdge zero = pkg.makeZeroState(2);
  const vEdge result = pkg.multiply(h1, zero);
  expectVectorNear(pkg.getVector(result),
                   {{SQRT2_2, 0.}, {0., 0.}, {SQRT2_2, 0.}, {0., 0.}});
}

TEST(PackageMatrices, BellCircuitEvolution) {
  // Paper Ex. 5: CNOT * (H (x) I) |00> = (|00> + |11>)/sqrt(2).
  Package pkg(2);
  vEdge state = pkg.makeZeroState(2);
  state = pkg.multiply(pkg.makeGateDD(H_MAT, 2, 1), state);
  state = pkg.multiply(pkg.makeGateDD(X_MAT, 2, {{1, true}}, 0), state);
  const vEdge ghz = pkg.makeGHZState(2);
  EXPECT_EQ(state.p, ghz.p);
  EXPECT_TRUE(state.w.approximatelyEquals(ghz.w, EPS));
}

TEST(PackageMatrices, ControlAboveAndBelowTarget) {
  Package pkg(3);
  // CX with control q0 (below target q2)
  const mEdge cxBelow = pkg.makeGateDD(X_MAT, 3, {{0, true}}, 2);
  const auto mat = pkg.getMatrix(cxBelow);
  // |q2 q1 q0>: states with q0=1 get q2 flipped
  for (std::size_t col = 0; col < 8; ++col) {
    const std::size_t row = (col & 1ULL) != 0 ? (col ^ 4ULL) : col;
    for (std::size_t r = 0; r < 8; ++r) {
      EXPECT_NEAR(mat[r * 8 + col].real(), r == row ? 1. : 0., EPS)
          << "col " << col << " row " << r;
    }
  }
}

TEST(PackageMatrices, NegativeControl) {
  Package pkg(2);
  const mEdge cx0 = pkg.makeGateDD(X_MAT, 2, {{1, false}}, 0);
  const auto mat = pkg.getMatrix(cx0);
  // flips q0 when q1 == 0
  const std::vector<std::complex<double>> expected{
      {0, 0}, {1, 0}, {0, 0}, {0, 0}, //
      {1, 0}, {0, 0}, {0, 0}, {0, 0}, //
      {0, 0}, {0, 0}, {1, 0}, {0, 0}, //
      {0, 0}, {0, 0}, {0, 0}, {1, 0}};
  expectVectorNear(mat, expected);
}

TEST(PackageMatrices, Toffoli) {
  Package pkg(3);
  const mEdge ccx = pkg.makeGateDD(X_MAT, 3, {{2, true}, {1, true}}, 0);
  const auto mat = pkg.getMatrix(ccx);
  for (std::size_t col = 0; col < 8; ++col) {
    const std::size_t row = (col & 6ULL) == 6ULL ? (col ^ 1ULL) : col;
    EXPECT_NEAR(mat[row * 8 + col].real(), 1., EPS) << "col " << col;
  }
}

TEST(PackageMatrices, SwapGate) {
  Package pkg(2);
  const mEdge swap = pkg.makeSWAPDD(2, {}, 0, 1);
  const auto mat = pkg.getMatrix(swap);
  const std::vector<std::complex<double>> expected{
      {1, 0}, {0, 0}, {0, 0}, {0, 0}, //
      {0, 0}, {0, 0}, {1, 0}, {0, 0}, //
      {0, 0}, {1, 0}, {0, 0}, {0, 0}, //
      {0, 0}, {0, 0}, {0, 0}, {1, 0}};
  expectVectorNear(mat, expected);
}

TEST(PackageMatrices, ControlledSwapIsFredkin) {
  Package pkg(3);
  const mEdge cswap = pkg.makeSWAPDD(3, {{2, true}}, 0, 1);
  const auto mat = pkg.getMatrix(cswap);
  for (std::size_t col = 0; col < 8; ++col) {
    std::size_t row = col;
    if ((col & 4ULL) != 0) { // control q2 set: swap bits 0 and 1
      const std::size_t b0 = col & 1ULL;
      const std::size_t b1 = (col >> 1) & 1ULL;
      row = (col & ~3ULL) | (b0 << 1) | b1;
    }
    EXPECT_NEAR(mat[row * 8 + col].real(), 1., EPS) << "col " << col;
  }
}

TEST(PackageMatrices, TwoQubitGateDDiSwap) {
  Package pkg(2);
  // iSWAP matrix
  TwoQubitGateMatrix iswap{};
  iswap[0 * 4 + 0] = {1., 0.};
  iswap[1 * 4 + 2] = {0., 1.};
  iswap[2 * 4 + 1] = {0., 1.};
  iswap[3 * 4 + 3] = {1., 0.};
  const mEdge e = pkg.makeTwoQubitGateDD(iswap, 2, 1, 0);
  const auto mat = pkg.getMatrix(e);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      const auto expected = iswap[r * 4 + c];
      EXPECT_NEAR(mat[r * 4 + c].real(), expected.re, EPS);
      EXPECT_NEAR(mat[r * 4 + c].imag(), expected.im, EPS);
    }
  }
}

TEST(PackageMatrices, MatrixFromDenseRoundTrip) {
  Package pkg(2);
  std::mt19937_64 rng(3);
  std::uniform_real_distribution<double> dist(-1., 1.);
  std::vector<std::complex<double>> mat(16);
  for (auto& v : mat) {
    v = {dist(rng), dist(rng)};
  }
  const mEdge e = pkg.makeMatrixFromDense(mat, 2);
  expectVectorNear(pkg.getMatrix(e), mat);
}

TEST(PackageOps, AdditionMatchesDense) {
  Package pkg(3);
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<double> dist(-1., 1.);
  std::vector<std::complex<double>> a(8);
  std::vector<std::complex<double>> b(8);
  for (std::size_t k = 0; k < 8; ++k) {
    a[k] = {dist(rng), dist(rng)};
    b[k] = {dist(rng), dist(rng)};
  }
  const vEdge ea = pkg.makeStateFromVector(a);
  const vEdge eb = pkg.makeStateFromVector(b);
  const vEdge sum = pkg.add(ea, eb);
  auto expected = a;
  for (std::size_t k = 0; k < 8; ++k) {
    expected[k] += b[k];
  }
  expectVectorNear(pkg.getVector(sum), expected);
}

TEST(PackageOps, AdditionCancellationYieldsZero) {
  Package pkg(2);
  const vEdge a = pkg.makeGHZState(2);
  vEdge minusA = a;
  minusA.w = pkg.lookup(-a.w.toValue());
  const vEdge sum = pkg.add(a, minusA);
  EXPECT_TRUE(sum.w.exactlyZero());
}

TEST(PackageOps, MultiplyMatchesDense) {
  Package pkg(3);
  std::mt19937_64 rng(17);
  std::uniform_real_distribution<double> dist(-1., 1.);
  std::vector<std::complex<double>> mat(64);
  std::vector<std::complex<double>> vec(8);
  for (auto& v : mat) {
    v = {dist(rng), dist(rng)};
  }
  for (auto& v : vec) {
    v = {dist(rng), dist(rng)};
  }
  const mEdge em = pkg.makeMatrixFromDense(mat, 3);
  const vEdge ev = pkg.makeStateFromVector(vec);
  const vEdge prod = pkg.multiply(em, ev);
  std::vector<std::complex<double>> expected(8, {0., 0.});
  for (std::size_t r = 0; r < 8; ++r) {
    for (std::size_t c = 0; c < 8; ++c) {
      expected[r] += mat[r * 8 + c] * vec[c];
    }
  }
  expectVectorNear(pkg.getVector(prod), expected, 1e-9);
}

TEST(PackageOps, MatrixMatrixMultiplyMatchesDense) {
  Package pkg(2);
  std::mt19937_64 rng(23);
  std::uniform_real_distribution<double> dist(-1., 1.);
  std::vector<std::complex<double>> a(16);
  std::vector<std::complex<double>> b(16);
  for (std::size_t k = 0; k < 16; ++k) {
    a[k] = {dist(rng), dist(rng)};
    b[k] = {dist(rng), dist(rng)};
  }
  const mEdge ea = pkg.makeMatrixFromDense(a, 2);
  const mEdge eb = pkg.makeMatrixFromDense(b, 2);
  const mEdge prod = pkg.multiply(ea, eb);
  std::vector<std::complex<double>> expected(16, {0., 0.});
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      for (std::size_t k = 0; k < 4; ++k) {
        expected[r * 4 + c] += a[r * 4 + k] * b[k * 4 + c];
      }
    }
  }
  expectVectorNear(pkg.getMatrix(prod), expected, 1e-9);
}

TEST(PackageOps, GateTimesAdjointIsIdentity) {
  Package pkg(3);
  const mEdge t = pkg.makeGateDD(T_MAT, 3, {{2, true}}, 0);
  const mEdge tdg = pkg.conjugateTranspose(t);
  const mEdge prod = pkg.multiply(t, tdg);
  const mEdge id = pkg.makeIdent(3);
  EXPECT_EQ(prod.p, id.p);
  EXPECT_TRUE(prod.w.approximatelyOne(EPS));
}

TEST(PackageOps, ConjugateTransposeMatchesDense) {
  Package pkg(2);
  std::mt19937_64 rng(29);
  std::uniform_real_distribution<double> dist(-1., 1.);
  std::vector<std::complex<double>> a(16);
  for (auto& v : a) {
    v = {dist(rng), dist(rng)};
  }
  const mEdge ea = pkg.makeMatrixFromDense(a, 2);
  const mEdge adj = pkg.conjugateTranspose(ea);
  const auto mat = pkg.getMatrix(adj);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      EXPECT_NEAR(mat[r * 4 + c].real(), a[c * 4 + r].real(), EPS);
      EXPECT_NEAR(mat[r * 4 + c].imag(), -a[c * 4 + r].imag(), EPS);
    }
  }
}

TEST(PackageOps, InnerProductAndFidelity) {
  Package pkg(2);
  const vEdge ghz = pkg.makeGHZState(2);
  const vEdge zero = pkg.makeZeroState(2);
  const ComplexValue ip = pkg.innerProduct(zero, ghz);
  EXPECT_NEAR(ip.re, SQRT2_2, EPS);
  EXPECT_NEAR(ip.im, 0., EPS);
  EXPECT_NEAR(pkg.fidelity(zero, ghz), 0.5, EPS);
  EXPECT_NEAR(pkg.fidelity(ghz, ghz), 1., EPS);
}

TEST(PackageOps, Trace) {
  Package pkg(3);
  const mEdge id = pkg.makeIdent(3);
  // a stripped identity is terminal: the span-aware overload supplies the
  // tr(I_k (x) M) = 2^k tr(M) context
  EXPECT_NEAR(pkg.trace(id, 3).re, 8., EPS);
  const mEdge z = pkg.makeGateDD(Z_MAT, 3, 0);
  EXPECT_NEAR(pkg.trace(z).re, 0., EPS);
  const mEdge t = pkg.makeGateDD(T_MAT, 1, 0);
  EXPECT_NEAR(pkg.trace(t).re, 1. + SQRT2_2, EPS);
  EXPECT_NEAR(pkg.trace(t).im, SQRT2_2, EPS);
}

TEST(PackageMeasure, ProbabilityOfOne) {
  Package pkg(2);
  const vEdge ghz = pkg.makeGHZState(2);
  EXPECT_NEAR(pkg.probabilityOfOne(ghz, 0), 0.5, EPS);
  EXPECT_NEAR(pkg.probabilityOfOne(ghz, 1), 0.5, EPS);
  const vEdge basis = pkg.makeBasisState(2, {true, false});
  EXPECT_NEAR(pkg.probabilityOfOne(basis, 0), 1., EPS);
  EXPECT_NEAR(pkg.probabilityOfOne(basis, 1), 0., EPS);
}

TEST(PackageMeasure, CollapseEntangledState) {
  // Paper Ex. 13: measuring q0 of the Bell state as |1> determines q1.
  Package pkg(2);
  vEdge state = pkg.makeGHZState(2);
  pkg.incRef(state);
  pkg.forceMeasureOne(state, 0, true);
  const auto vec = pkg.getVector(state);
  expectVectorNear(vec, {{0., 0.}, {0., 0.}, {0., 0.}, {1., 0.}});
}

TEST(PackageMeasure, CollapseToZeroBranch) {
  Package pkg(2);
  vEdge state = pkg.makeGHZState(2);
  pkg.incRef(state);
  pkg.forceMeasureOne(state, 0, false);
  const auto vec = pkg.getVector(state);
  expectVectorNear(vec, {{1., 0.}, {0., 0.}, {0., 0.}, {0., 0.}});
}

TEST(PackageMeasure, CollapseImpossibleOutcomeThrows) {
  Package pkg(2);
  vEdge state = pkg.makeZeroState(2);
  pkg.incRef(state);
  EXPECT_THROW(pkg.forceMeasureOne(state, 0, true), std::invalid_argument);
}

TEST(PackageMeasure, MeasurementStatistics) {
  Package pkg(2);
  vEdge state = pkg.makeGHZState(2);
  pkg.incRef(state);
  std::mt19937_64 rng(1234);
  std::size_t ones = 0;
  constexpr std::size_t SHOTS = 2000;
  for (std::size_t s = 0; s < SHOTS; ++s) {
    const std::string bits = pkg.sample(state, rng);
    ASSERT_TRUE(bits == "00" || bits == "11") << bits;
    if (bits == "11") {
      ++ones;
    }
  }
  EXPECT_GT(ones, SHOTS * 0.4);
  EXPECT_LT(ones, SHOTS * 0.6);
}

TEST(PackageMeasure, SamplingIsNonDestructive) {
  // Paper Sec. III-B: classical measurements "can be repeated on the same
  // state without having to repeat the whole calculation".
  Package pkg(2);
  const vEdge state = pkg.makeGHZState(2);
  std::mt19937_64 rng(99);
  const auto before = pkg.getVector(state);
  (void)pkg.sample(state, rng);
  (void)pkg.sample(state, rng);
  expectVectorNear(pkg.getVector(state), before);
}

TEST(PackageMeasure, MeasureAllCollapses) {
  Package pkg(3);
  vEdge state = pkg.makeGHZState(3);
  pkg.incRef(state);
  std::mt19937_64 rng(5);
  const std::string bits = pkg.measureAll(state, true, rng);
  ASSERT_TRUE(bits == "000" || bits == "111");
  const auto vec = pkg.getVector(state);
  const std::size_t idx = bits == "111" ? 7 : 0;
  for (std::size_t k = 0; k < 8; ++k) {
    EXPECT_NEAR(std::abs(vec[k]), k == idx ? 1. : 0., EPS);
  }
}

TEST(PackageMeasure, ResetMovesBranchToZero) {
  // Paper Sec. IV-B reset semantics: surviving |1> branch becomes |0>.
  Package pkg(2);
  vEdge state = pkg.makeBasisState(2, {true, true}); // |11>
  pkg.incRef(state);
  pkg.resetQubitTo(state, 0, true);
  const auto vec = pkg.getVector(state);
  // q0 reset to |0>, q1 untouched -> |10> (index 2)
  expectVectorNear(vec, {{0., 0.}, {0., 0.}, {1., 0.}, {0., 0.}});
}

TEST(PackageMeasure, ResetSuperposition) {
  Package pkg(2);
  // (|00> + |01>)/sqrt2: q0 in superposition, q1 = 0
  std::vector<std::complex<double>> vec{
      {SQRT2_2, 0.}, {SQRT2_2, 0.}, {0., 0.}, {0., 0.}};
  vEdge state = pkg.makeStateFromVector(vec);
  pkg.incRef(state);
  pkg.resetQubitTo(state, 0, true);
  expectVectorNear(pkg.getVector(state),
                   {{1., 0.}, {0., 0.}, {0., 0.}, {0., 0.}});
}

TEST(PackageGC, CollectsDeadNodes) {
  Package pkg(8);
  vEdge keep = pkg.makeGHZState(8);
  pkg.incRef(keep);
  // create garbage
  for (int k = 0; k < 50; ++k) {
    std::vector<std::complex<double>> vec(256, {0., 0.});
    vec[static_cast<std::size_t>(k)] = {1., 0.};
    vec[255 - static_cast<std::size_t>(k)] = {0., 1.};
    for (auto& a : vec) {
      a /= std::sqrt(2.);
    }
    (void)pkg.makeStateFromVector(vec);
  }
  const auto before = pkg.tablePressure();
  EXPECT_TRUE(pkg.garbageCollect(true));
  const auto after = pkg.tablePressure();
  EXPECT_LT(after.vectorNodes, before.vectorNodes);
  // the referenced state survives and is still intact
  EXPECT_NEAR(pkg.norm(keep), 1., EPS);
  EXPECT_EQ(Package::size(keep), 15U);
}

TEST(PackageGC, OperationsValidAfterCollection) {
  Package pkg(4);
  vEdge state = pkg.makeZeroState(4);
  pkg.incRef(state);
  const mEdge h = pkg.makeGateDD(H_MAT, 4, 0);
  for (int round = 0; round < 10; ++round) {
    const vEdge next = pkg.multiply(h, state);
    pkg.incRef(next);
    pkg.decRef(state);
    state = next;
    pkg.garbageCollect(true);
  }
  // H^10 = I on |0000>
  const auto vec = pkg.getVector(state);
  EXPECT_NEAR(vec[0].real(), 1., EPS);
}

TEST(PackageGC, RefcountSaturatesAndPinsTheNode) {
  // Reference counts are 16-bit: a node that reaches IMMORTAL_REF stays
  // pinned for the package's lifetime instead of wrapping around.
  Package pkg(2);
  const vEdge state = pkg.makeGHZState(2);
  constexpr std::size_t COUNT = 80000; // > IMMORTAL_REF = 0xFFFF
  for (std::size_t k = 0; k < COUNT; ++k) {
    pkg.incRef(state);
  }
  EXPECT_EQ(state.p->ref, IMMORTAL_REF);
  // Decrements never revive the counter into collectable range.
  for (std::size_t k = 0; k < COUNT; ++k) {
    pkg.decRef(state);
  }
  EXPECT_EQ(state.p->ref, IMMORTAL_REF);
  EXPECT_TRUE(pkg.garbageCollect(true));
  EXPECT_EQ(state.p->ref, IMMORTAL_REF);
  // The node survived the sweep: rebuilding the state finds it again.
  EXPECT_EQ(pkg.makeGHZState(2).p, state.p);
  EXPECT_NEAR(pkg.norm(state), 1., EPS);
}

TEST(PackageNormalization, NormSchemeProbabilisticWeights) {
  Package pkg(2, NormalizationScheme::Norm);
  const vEdge ghz = pkg.makeGHZState(2);
  // with 2-norm normalization, |w0|^2 + |w1|^2 == 1 at every node
  EXPECT_NEAR(ghz.p->e[0].w.toValue().mag2() +
                  ghz.p->e[1].w.toValue().mag2(),
              1., EPS);
  // and the root weight has unit magnitude for a normalized state
  EXPECT_NEAR(ghz.w.toValue().mag(), 1., EPS);
  // semantics identical to the Largest scheme
  const auto vec = pkg.getVector(ghz);
  EXPECT_NEAR(vec[0].real(), SQRT2_2, EPS);
  EXPECT_NEAR(vec[3].real(), SQRT2_2, EPS);
}

TEST(PackageNormalization, SchemesAgreeOnRandomStates) {
  Package largest(3, NormalizationScheme::Largest);
  Package norm(3, NormalizationScheme::Norm);
  std::mt19937_64 rng(31);
  std::uniform_real_distribution<double> dist(-1., 1.);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::complex<double>> vec(8);
    double n2 = 0.;
    for (auto& a : vec) {
      a = {dist(rng), dist(rng)};
      n2 += std::norm(a);
    }
    for (auto& a : vec) {
      a /= std::sqrt(n2);
    }
    const vEdge el = largest.makeStateFromVector(vec);
    const vEdge en = norm.makeStateFromVector(vec);
    expectVectorNear(largest.getVector(el), norm.getVector(en), 1e-9);
    EXPECT_EQ(Package::size(el), Package::size(en));
  }
}

TEST(PackageErrors, InvalidArguments) {
  Package pkg(2);
  EXPECT_THROW(pkg.makeBasisState(0, {}), std::invalid_argument);
  EXPECT_THROW(pkg.makeBasisState(2, {true}), std::invalid_argument);
  EXPECT_THROW(pkg.makeStateFromVector({{1., 0.}, {0., 0.}, {0., 0.}}),
               std::invalid_argument);
  EXPECT_THROW(pkg.makeGateDD(H_MAT, 2, 5), std::invalid_argument);
  EXPECT_THROW(pkg.makeGateDD(X_MAT, 2, {{0, true}}, 0),
               std::invalid_argument);
  EXPECT_THROW(pkg.makeSWAPDD(2, {}, 1, 1), std::invalid_argument);
  EXPECT_THROW(pkg.getVector(vEdge::one()), std::invalid_argument);
}

} // namespace
} // namespace qdd
