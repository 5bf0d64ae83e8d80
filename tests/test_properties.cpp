// Property-based / parameterized suites over the core invariants of the
// decision-diagram package: canonicity, normalization, unitarity, norm
// preservation, algebraic identities, and agreement between the two
// normalization schemes and the dense baseline.

#include "qdd/baseline/DenseSimulator.hpp"
#include "qdd/bridge/DDBuilder.hpp"
#include "qdd/ir/Builders.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <complex>
#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <type_traits>

namespace qdd {
namespace {

constexpr double EPS = 1e-9;

std::vector<std::complex<double>> randomState(std::size_t n,
                                              std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-1., 1.);
  std::vector<std::complex<double>> vec(1ULL << n);
  double norm2 = 0.;
  for (auto& a : vec) {
    a = {dist(rng), dist(rng)};
    norm2 += std::norm(a);
  }
  for (auto& a : vec) {
    a /= std::sqrt(norm2);
  }
  return vec;
}

// --- canonicity across construction orders ------------------------------------

class CanonicityTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CanonicityTest, SameStateSamePointer) {
  const std::size_t n = GetParam();
  Package pkg(n);
  const auto vec = randomState(n, 17 * n);
  // build once from the full vector, once by summing basis components
  const vEdge direct = pkg.makeStateFromVector(vec);
  vEdge sum = vEdge::zero();
  for (std::size_t idx = 0; idx < vec.size(); ++idx) {
    if (std::abs(vec[idx]) < 1e-14) {
      continue;
    }
    std::vector<bool> bits(n);
    for (std::size_t k = 0; k < n; ++k) {
      bits[k] = (idx >> k) & 1ULL;
    }
    vEdge basis = pkg.makeBasisState(n, bits);
    basis.w = pkg.lookup(ComplexValue{vec[idx].real(), vec[idx].imag()});
    sum = pkg.add(sum, basis);
  }
  EXPECT_EQ(direct.p, sum.p);
  EXPECT_TRUE(direct.w.approximatelyEquals(sum.w, EPS));
}

TEST_P(CanonicityTest, SimulationPathIndependence) {
  // applying the same circuit twice yields pointer-identical DDs
  const std::size_t n = GetParam();
  const auto qc = ir::builders::randomCliffordT(n, 15 * n, n + 1);
  Package pkg(n);
  const vEdge a = bridge::simulate(qc, pkg.makeZeroState(n), pkg);
  const vEdge b = bridge::simulate(qc, pkg.makeZeroState(n), pkg);
  EXPECT_EQ(a.p, b.p);
  EXPECT_EQ(a.w, b.w); // table-canonical weights compare by pointer
}

INSTANTIATE_TEST_SUITE_P(Sizes, CanonicityTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// --- normalization invariants --------------------------------------------------

// gtest has no printer for NormCase, so it names each case by the object's
// raw bytes. Left as padding, the seven bytes after `scheme` held whatever
// was on the stack (a stack-protector canary for two of the cases), and the
// case names changed at every test discovery. `tag` spells those bytes out
// with the values the cases were first listed under, so every build names
// the six cases as before.
struct NormCase {
  std::size_t n;
  NormalizationScheme scheme;
  std::array<std::uint8_t, 7> tag;
};
static_assert(std::has_unique_object_representations_v<NormCase>,
              "NormCase must have no padding: its bytes are its test name");

constexpr std::array<std::uint8_t, 7> TAG_A{0x75, 0x59, 0x20};
constexpr std::array<std::uint8_t, 7> TAG_B{0xFE, 0xFF, 0xFF, 0xFF,
                                            0xFF, 0xFF, 0xFF};
constexpr std::array<std::uint8_t, 7> TAG_C{};

class NormalizationInvariants : public ::testing::TestWithParam<NormCase> {};

TEST_P(NormalizationInvariants, TopEdgeNormalized) {
  const auto [n, scheme, tag] = GetParam();
  Package pkg(n, scheme);
  const auto vec = randomState(n, 23 * n + 1);
  const vEdge e = pkg.makeStateFromVector(vec);
  // walk every node: normalization invariant holds everywhere
  std::vector<const vNode*> stack{e.p};
  std::set<const vNode*> seen;
  while (!stack.empty()) {
    const vNode* p = stack.back();
    stack.pop_back();
    if (p->isTerminal() || !seen.insert(p).second) {
      continue;
    }
    const double m0 = p->e[0].w.toValue().mag2();
    const double m1 = p->e[1].w.toValue().mag2();
    if (scheme == NormalizationScheme::Largest) {
      // one outgoing weight is exactly 1 and none is larger
      EXPECT_TRUE(p->e[0].w.exactlyOne() || p->e[1].w.exactlyOne());
      EXPECT_LE(std::max(m0, m1), 1. + 1e-9);
    } else {
      // squared weights sum to 1 (branch probabilities, footnote 3)
      EXPECT_NEAR(m0 + m1, 1., 1e-9);
    }
    for (const auto& child : p->e) {
      if (!child.w.exactlyZero()) {
        stack.push_back(child.p);
      }
    }
  }
  // semantics preserved
  const auto exported = pkg.getVector(e);
  for (std::size_t k = 0; k < vec.size(); ++k) {
    EXPECT_NEAR(std::abs(exported[k] - vec[k]), 0., 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, NormalizationInvariants,
    ::testing::Values(NormCase{2, NormalizationScheme::Largest, TAG_A},
                      NormCase{4, NormalizationScheme::Largest, TAG_B},
                      NormCase{6, NormalizationScheme::Largest, TAG_A},
                      NormCase{2, NormalizationScheme::Norm, TAG_B},
                      NormCase{4, NormalizationScheme::Norm, TAG_C},
                      NormCase{6, NormalizationScheme::Norm, TAG_C}));

// --- unitarity & norm preservation --------------------------------------------

class UnitarityTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(UnitarityTest, CircuitUnitaryTimesAdjointIsIdentity) {
  const std::uint64_t seed = GetParam();
  const std::size_t n = 4;
  const auto qc = ir::builders::randomCliffordT(n, 40, seed);
  Package pkg(n);
  const mEdge u = bridge::buildFunctionality(qc, pkg);
  const mEdge udg = pkg.conjugateTranspose(u);
  const mEdge prod = pkg.multiply(u, udg);
  EXPECT_EQ(prod.p, pkg.makeIdent(n).p);
  EXPECT_TRUE(prod.w.approximatelyOne(EPS));
}

TEST_P(UnitarityTest, NormPreservedUnderSimulation) {
  const std::uint64_t seed = GetParam();
  const std::size_t n = 5;
  const auto qc = ir::builders::randomCliffordT(n, 60, seed);
  Package pkg(n);
  const vEdge result = bridge::simulate(qc, pkg.makeZeroState(n), pkg);
  EXPECT_NEAR(pkg.norm(result), 1., EPS);
}

TEST_P(UnitarityTest, InverseCircuitRestoresInput) {
  const std::uint64_t seed = GetParam();
  const std::size_t n = 4;
  const auto qc = ir::builders::randomCliffordT(n, 30, seed);
  const auto inv = qc.inverted();
  Package pkg(n);
  const auto input = randomState(n, seed + 100);
  const vEdge in = pkg.makeStateFromVector(input);
  pkg.incRef(in);
  const vEdge mid = bridge::simulate(qc, in, pkg);
  pkg.incRef(mid);
  const vEdge out = bridge::simulate(inv, mid, pkg);
  EXPECT_GT(pkg.fidelity(in, out), 1. - EPS);
}

INSTANTIATE_TEST_SUITE_P(Seeds, UnitarityTest,
                         ::testing::Range<std::uint64_t>(0, 8));

// --- algebraic identities ------------------------------------------------------

class AlgebraTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AlgebraTest, AdditionCommutesAndAssociates) {
  const std::uint64_t seed = GetParam();
  Package pkg(3);
  const vEdge a = pkg.makeStateFromVector(randomState(3, seed));
  const vEdge b = pkg.makeStateFromVector(randomState(3, seed + 1));
  const vEdge c = pkg.makeStateFromVector(randomState(3, seed + 2));
  const vEdge ab = pkg.add(a, b);
  const vEdge ba = pkg.add(b, a);
  EXPECT_EQ(ab.p, ba.p);
  EXPECT_TRUE(ab.w.approximatelyEquals(ba.w, EPS));
  const vEdge abc1 = pkg.add(pkg.add(a, b), c);
  const vEdge abc2 = pkg.add(a, pkg.add(b, c));
  EXPECT_EQ(abc1.p, abc2.p);
  EXPECT_TRUE(abc1.w.approximatelyEquals(abc2.w, EPS));
}

TEST_P(AlgebraTest, MultiplicationDistributesOverAddition) {
  const std::uint64_t seed = GetParam();
  Package pkg(3);
  const auto qc = ir::builders::randomCliffordT(3, 20, seed);
  const mEdge u = bridge::buildFunctionality(qc, pkg);
  const vEdge a = pkg.makeStateFromVector(randomState(3, seed + 5));
  const vEdge b = pkg.makeStateFromVector(randomState(3, seed + 6));
  const vEdge lhs = pkg.multiply(u, pkg.add(a, b));
  const vEdge rhs = pkg.add(pkg.multiply(u, a), pkg.multiply(u, b));
  EXPECT_EQ(lhs.p, rhs.p);
  EXPECT_TRUE(lhs.w.approximatelyEquals(rhs.w, EPS));
}

TEST_P(AlgebraTest, MatrixMultiplicationAssociates) {
  const std::uint64_t seed = GetParam();
  Package pkg(3);
  const mEdge a =
      bridge::buildFunctionality(ir::builders::randomCliffordT(3, 10, seed),
                                 pkg);
  const mEdge b = bridge::buildFunctionality(
      ir::builders::randomCliffordT(3, 10, seed + 1), pkg);
  const mEdge c = bridge::buildFunctionality(
      ir::builders::randomCliffordT(3, 10, seed + 2), pkg);
  const mEdge lhs = pkg.multiply(pkg.multiply(a, b), c);
  const mEdge rhs = pkg.multiply(a, pkg.multiply(b, c));
  EXPECT_EQ(lhs.p, rhs.p);
  EXPECT_TRUE(lhs.w.approximatelyEquals(rhs.w, EPS));
}

TEST_P(AlgebraTest, ConjugateTransposeIsInvolution) {
  const std::uint64_t seed = GetParam();
  Package pkg(3);
  const mEdge u = bridge::buildFunctionality(
      ir::builders::randomCliffordT(3, 25, seed), pkg);
  const mEdge udd = pkg.conjugateTranspose(pkg.conjugateTranspose(u));
  EXPECT_EQ(udd.p, u.p);
  EXPECT_TRUE(udd.w.approximatelyEquals(u.w, EPS));
}

TEST_P(AlgebraTest, InnerProductConjugateSymmetry) {
  const std::uint64_t seed = GetParam();
  Package pkg(3);
  const vEdge a = pkg.makeStateFromVector(randomState(3, seed + 10));
  const vEdge b = pkg.makeStateFromVector(randomState(3, seed + 11));
  const ComplexValue ab = pkg.innerProduct(a, b);
  const ComplexValue ba = pkg.innerProduct(b, a);
  EXPECT_NEAR(ab.re, ba.re, EPS);
  EXPECT_NEAR(ab.im, -ba.im, EPS);
}

TEST_P(AlgebraTest, KronAssociates) {
  const std::uint64_t seed = GetParam();
  Package pkg(6);
  const mEdge a = pkg.makeGateDD(
      u3Matrix(0.3 + static_cast<double>(seed), 0.2, 0.1), 1, 0);
  const mEdge b = pkg.makeGateDD(H_MAT, 1, 0);
  const mEdge c = pkg.makeGateDD(T_MAT, 1, 0);
  const mEdge lhs = pkg.kron(pkg.kron(a, b), c);
  const mEdge rhs = pkg.kron(a, pkg.kron(b, c));
  EXPECT_EQ(lhs.p, rhs.p);
  EXPECT_TRUE(lhs.w.approximatelyEquals(rhs.w, EPS));
}

TEST_P(AlgebraTest, TraceCyclicProperty) {
  const std::uint64_t seed = GetParam();
  Package pkg(3);
  const mEdge a = bridge::buildFunctionality(
      ir::builders::randomCliffordT(3, 12, seed + 20), pkg);
  const mEdge b = bridge::buildFunctionality(
      ir::builders::randomCliffordT(3, 12, seed + 21), pkg);
  const ComplexValue tab = pkg.trace(pkg.multiply(a, b));
  const ComplexValue tba = pkg.trace(pkg.multiply(b, a));
  EXPECT_NEAR(tab.re, tba.re, EPS);
  EXPECT_NEAR(tab.im, tba.im, EPS);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AlgebraTest,
                         ::testing::Range<std::uint64_t>(0, 6));

// --- measurement distribution agrees with amplitudes ---------------------------

class SamplingDistribution : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SamplingDistribution, MatchesBornRule) {
  const std::uint64_t seed = GetParam();
  const std::size_t n = 3;
  Package pkg(n);
  const auto vec = randomState(n, seed + 40);
  const vEdge state = pkg.makeStateFromVector(vec);
  pkg.incRef(state);
  std::mt19937_64 rng(seed);
  constexpr std::size_t SHOTS = 20000;
  std::map<std::string, std::size_t> counts;
  for (std::size_t s = 0; s < SHOTS; ++s) {
    ++counts[pkg.sample(state, rng)];
  }
  for (std::size_t idx = 0; idx < vec.size(); ++idx) {
    std::string bits(n, '0');
    for (std::size_t k = 0; k < n; ++k) {
      if ((idx >> k) & 1ULL) {
        bits[n - 1 - k] = '1';
      }
    }
    const double expected = std::norm(vec[idx]);
    const double measured =
        counts.contains(bits)
            ? static_cast<double>(counts.at(bits)) / SHOTS
            : 0.;
    EXPECT_NEAR(measured, expected, 0.02) << bits;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SamplingDistribution,
                         ::testing::Range<std::uint64_t>(0, 4));

// --- probabilities consistent between DD and dense -----------------------------

class ProbabilityAgreement : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ProbabilityAgreement, ProbabilityOfOneMatchesDense) {
  const std::uint64_t seed = GetParam();
  const std::size_t n = 5;
  const auto qc = ir::builders::randomCliffordT(n, 50, seed + 60);
  Package pkg(n);
  const vEdge state = bridge::simulate(qc, pkg.makeZeroState(n), pkg);
  baseline::DenseStateVector dense(n);
  dense.run(qc);
  for (std::size_t q = 0; q < n; ++q) {
    EXPECT_NEAR(pkg.probabilityOfOne(state, static_cast<Qubit>(q)),
                dense.probabilityOfOne(static_cast<Qubit>(q)), EPS)
        << "qubit " << q;
  }
}

TEST_P(ProbabilityAgreement, CollapseMatchesDense) {
  const std::uint64_t seed = GetParam();
  const std::size_t n = 4;
  const auto qc = ir::builders::randomCliffordT(n, 40, seed + 70);
  Package pkg(n);
  vEdge state = bridge::simulate(qc, pkg.makeZeroState(n), pkg);
  pkg.incRef(state);
  baseline::DenseStateVector dense(n);
  dense.run(qc);
  const Qubit q = static_cast<Qubit>(seed % n);
  const double p1 = pkg.probabilityOfOne(state, q);
  const bool outcome = p1 > 0.5; // pick the likelier branch (never zero)
  pkg.forceMeasureOne(state, q, outcome);
  dense.collapse(q, outcome);
  const auto ddVec = pkg.getVector(state);
  for (std::size_t k = 0; k < ddVec.size(); ++k) {
    EXPECT_NEAR(std::abs(ddVec[k] - dense.amplitudes()[k]), 0., 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProbabilityAgreement,
                         ::testing::Range<std::uint64_t>(0, 6));

} // namespace
} // namespace qdd
