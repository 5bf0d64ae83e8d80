// Cache-conscious DD core layout: node geometry, open-addressed unique-table
// behaviour under growth and garbage collection, and the weight-product memo.

#include "qdd/dd/Package.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <random>
#include <vector>

namespace qdd {
namespace {

// --- node geometry -----------------------------------------------------------

// The packing is a compile-time contract; the static_asserts make any
// regression a build failure, the EXPECTs make it a readable test failure.
static_assert(sizeof(vNode) == 64, "vNode must fill exactly one cache line");
static_assert(alignof(vNode) == 64, "vNode must be cache-line aligned");
static_assert(sizeof(mNode) == 128, "mNode must fill exactly two cache lines");
static_assert(alignof(mNode) == 64, "mNode must be cache-line aligned");

TEST(NodeGeometry, PackedCacheLineSizes) {
  EXPECT_EQ(sizeof(vNode), 64U);
  EXPECT_EQ(alignof(vNode), 64U);
  EXPECT_EQ(sizeof(mNode), 128U);
  EXPECT_EQ(alignof(mNode), 64U);
}

TEST(NodeGeometry, AllocationsAreCacheLineAligned) {
  Package pkg(8);
  const vEdge state = pkg.makeGHZState(8);
  const mEdge gate = pkg.makeGateDD(H_MAT, 8, 3);
  const vNode* p = state.p;
  while (p != nullptr && p->v >= 0) {
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 64U, 0U);
    if (p->v == 0) {
      break;
    }
    p = p->e[0].w.exactlyZero() ? p->e[1].p : p->e[0].p;
  }
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(gate.p) % 64U, 0U);
}

// --- open-addressed unique table under growth and GC -------------------------

std::vector<std::complex<double>> randomState(std::size_t n, unsigned seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> dist;
  std::vector<std::complex<double>> vec(1ULL << n);
  double norm = 0.;
  for (auto& amp : vec) {
    amp = {dist(rng), dist(rng)};
    norm += std::norm(amp);
  }
  norm = std::sqrt(norm);
  for (auto& amp : vec) {
    amp /= norm;
  }
  return vec;
}

TEST(OpenAddressing, GrowthKeepsHashConsingCanonical) {
  constexpr std::size_t n = 10;
  Package pkg(n);
  // Dense random states force thousands of distinct nodes per level, which
  // drives the flat tables through several resizes.
  std::vector<vEdge> roots;
  for (unsigned seed = 1; seed <= 6; ++seed) {
    roots.push_back(pkg.makeStateFromVector(randomState(n, seed)));
    pkg.incRef(roots.back());
  }
  // Hash consing must find the existing nodes after the resizes: rebuilding
  // any state lands on the identical root pointer.
  for (unsigned seed = 1; seed <= 6; ++seed) {
    const vEdge again = pkg.makeStateFromVector(randomState(n, seed));
    EXPECT_EQ(again.p, roots[seed - 1].p) << "seed " << seed;
    EXPECT_TRUE(again.w == roots[seed - 1].w) << "seed " << seed;
  }
  const auto stats = pkg.statistics();
  EXPECT_GT(stats.vectorTable.probes, 0U);
  EXPECT_LT(stats.vectorTable.avgProbeLength(), 4.0);
}

TEST(OpenAddressing, GarbageCollectionSweepsAndRebuildsCleanly) {
  constexpr std::size_t n = 9;
  Package pkg(n);
  const vEdge keep = pkg.makeStateFromVector(randomState(n, 77));
  pkg.incRef(keep);
  for (unsigned seed = 100; seed < 110; ++seed) {
    (void)pkg.makeStateFromVector(randomState(n, seed)); // dead on arrival
    pkg.garbageCollect();
  }
  // The kept state must survive every sweep, and rebuilding it must reuse
  // the surviving nodes rather than allocate duplicates.
  const vEdge again = pkg.makeStateFromVector(randomState(n, 77));
  EXPECT_EQ(again.p, keep.p);
  EXPECT_TRUE(again.w == keep.w);
  const auto vec = pkg.getVector(keep);
  const auto ref = randomState(n, 77);
  for (std::size_t idx = 0; idx < vec.size(); ++idx) {
    EXPECT_NEAR(std::abs(vec[idx] - ref[idx]), 0., 1e-12);
  }
}

// --- weight-product memo -----------------------------------------------------

TEST(WeightProductMemo, MatchesValuePathAndHits) {
  Package pkg(4);
  const Complex a = pkg.lookup(ComplexValue{0.6, 0.3});
  const Complex b = pkg.lookup(ComplexValue{-0.2, 0.7});
  const Complex ref = pkg.lookup(a.toValue() * b.toValue());
  const Complex viaMemo = pkg.mulWeights(a, b);
  EXPECT_TRUE(viaMemo == ref);
  // Same product again (and mirrored — multiplication commutes bit-exactly)
  // must be served from the memo.
  const auto before = pkg.statistics();
  const Complex repeat = pkg.mulWeights(a, b);
  const Complex mirrored = pkg.mulWeights(b, a);
  EXPECT_TRUE(repeat == ref);
  EXPECT_TRUE(mirrored == ref);
  const auto after = pkg.statistics();
  std::size_t hitsBefore = 0;
  std::size_t hitsAfter = 0;
  for (const auto& table : before.computeTables) {
    if (table.name == "mulWeight") {
      hitsBefore = table.hits;
    }
  }
  for (const auto& table : after.computeTables) {
    if (table.name == "mulWeight") {
      hitsAfter = table.hits;
    }
  }
  EXPECT_EQ(hitsAfter, hitsBefore + 2);
}

TEST(WeightProductMemo, ExactOneElisionReturnsCanonicalPointers) {
  Package pkg(4);
  const Complex a = pkg.lookup(ComplexValue{0.6, 0.3});
  EXPECT_TRUE(pkg.mulWeights(Complex::one, a) == a);
  EXPECT_TRUE(pkg.mulWeights(a, Complex::one) == a);
  EXPECT_TRUE(pkg.mulWeights3(a, Complex::one, Complex::one) == a);
  EXPECT_TRUE(pkg.mulWeights3(Complex::one, a, Complex::one) == a);
  EXPECT_TRUE(pkg.mulWeights3(Complex::one, Complex::one, a) == a);
}

TEST(WeightProductMemo, TripleProductMatchesLeftAssociatedValuePath) {
  Package pkg(4);
  const Complex a = pkg.lookup(ComplexValue{0.8, -0.1});
  const Complex b = pkg.lookup(ComplexValue{0.4, 0.5});
  const Complex c = pkg.lookup(ComplexValue{-0.3, 0.6});
  const Complex ref = pkg.lookup((a.toValue() * b.toValue()) * c.toValue());
  EXPECT_TRUE(pkg.mulWeights3(a, b, c) == ref);
  // Served from the memo on the repeat (and with the inner pair mirrored).
  EXPECT_TRUE(pkg.mulWeights3(a, b, c) == ref);
  EXPECT_TRUE(pkg.mulWeights3(b, a, c) == ref);
}

TEST(WeightProductMemo, ZeroWindowProductCanonicalizesToZero) {
  Package pkg(4);
  const Complex tiny = pkg.lookup(ComplexValue{1e-7, 0.});
  const Complex alsoTiny = pkg.lookup(ComplexValue{0., 1e-7});
  const Complex product = pkg.mulWeights(tiny, alsoTiny); // |w| ~ 1e-14 < tol
  EXPECT_TRUE(product.exactlyZero());
  EXPECT_TRUE(pkg.mulWeights(tiny, alsoTiny).exactlyZero()); // memo hit
}

} // namespace
} // namespace qdd
