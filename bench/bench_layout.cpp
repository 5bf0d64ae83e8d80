// Cache-layout microbenchmarks for the DD core: node sizes/alignment, ns/op
// on the multiply/add hot paths (both the warm compute-cache path and the
// uncached recursion), unique-table probe behaviour, and RealTable traffic
// per operation. Emits one BENCH_LAYOUT <label> {json} record per workload,
// consumed by scripts/check_bench_layout.py (CI gate) and recorded in
// BENCH_LAYOUT.json together with the frozen pre-refactor seed baseline.

#include "BenchUtil.hpp"

#include "qdd/bridge/DDBuilder.hpp"
#include "qdd/dd/Package.hpp"
#include "qdd/ir/Builders.hpp"

#include <algorithm>
#include <complex>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <vector>

using namespace qdd;

namespace {

/// Best-of-`reps` wall time of `fn` (each rep runs `iters` inner iterations);
/// returns ns per inner iteration.
double bestNsPerOp(int reps, std::size_t iters,
                   const std::function<void()>& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const double ms = bench::timeMs(fn);
    best = std::min(best, ms);
  }
  return best * 1e6 / static_cast<double>(iters);
}

void emit(const std::string& label, const std::string& payload) {
  std::printf("BENCH_LAYOUT %s {%s, \"resources\": %s}\n", label.c_str(),
              payload.c_str(), bench::ResourceUsage::sample().toJson().c_str());
}

std::vector<std::complex<double>> randomState(std::size_t n,
                                              std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-1., 1.);
  std::vector<std::complex<double>> v(1ULL << n);
  double norm = 0.;
  for (auto& a : v) {
    a = {dist(rng), dist(rng)};
    norm += std::norm(a);
  }
  norm = std::sqrt(norm);
  for (auto& a : v) {
    a /= norm;
  }
  return v;
}

} // namespace

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
  const int reps = quick ? 3 : 5;

  bench::heading("DD core data layout: node geometry");
  std::printf("vNode: %zu bytes (align %zu)   mNode: %zu bytes (align %zu)   "
              "RealTable::Entry: %zu bytes\n",
              sizeof(vNode), alignof(vNode), sizeof(mNode), alignof(mNode),
              sizeof(RealTable::Entry));
  {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "\"vNodeBytes\": %zu, \"vNodeAlign\": %zu, "
                  "\"mNodeBytes\": %zu, \"mNodeAlign\": %zu",
                  sizeof(vNode), alignof(vNode), sizeof(mNode), alignof(mNode));
    emit("node_layout", buf);
  }

  bench::heading("warm-path ns/op: compute-cache hits (bench_dd_ops "
                 "BM_ApplyGateGHZ / BM_AddStates shapes)");

  // multiply with a warm compute cache: after the first call every
  // iteration is one multMatVecTable hit plus the outer weight composition.
  {
    const std::size_t n = 32;
    const std::size_t iters = quick ? 200000 : 500000;
    Package pkg(n);
    const vEdge ghz = pkg.makeGHZState(n);
    pkg.incRef(ghz);
    const mEdge h = pkg.makeGateDD(H_MAT, n, static_cast<Qubit>(n / 2));
    pkg.incRef(h);
    (void)pkg.multiply(h, ghz); // warm the cache
    volatile const vNode* sink = nullptr;
    const double ns = bestNsPerOp(reps, iters, [&] {
      for (std::size_t k = 0; k < iters; ++k) {
        sink = pkg.multiply(h, ghz).p;
      }
    });
    (void)sink;
    std::printf("multiply (cached, GHZ-32 root hit): %.1f ns/op\n", ns);
    char buf[128];
    std::snprintf(buf, sizeof(buf), "\"nsPerOp\": %.2f, \"n\": %zu", ns, n);
    emit("multiply_cached_ghz32", buf);
  }

  {
    const std::size_t n = 32;
    const std::size_t iters = quick ? 200000 : 500000;
    Package pkg(n);
    const vEdge a = pkg.makeGHZState(n);
    const vEdge b = pkg.makeWState(n);
    pkg.incRef(a);
    pkg.incRef(b);
    (void)pkg.add(a, b);
    volatile const vNode* sink = nullptr;
    const double ns = bestNsPerOp(reps, iters, [&] {
      for (std::size_t k = 0; k < iters; ++k) {
        sink = pkg.add(a, b).p;
      }
    });
    (void)sink;
    std::printf("add (cached, GHZ+W-32 root hit): %.1f ns/op\n", ns);
    char buf[128];
    std::snprintf(buf, sizeof(buf), "\"nsPerOp\": %.2f, \"n\": %zu", ns, n);
    emit("add_cached_32", buf);
  }

  bench::heading("uncached recursion: full multiply/add work (node "
                 "construction, unique/real table traffic)");

  // Matrix-vector multiply through a full QFT simulation: fresh package per
  // repetition so every multiply2 does real work the first time around.
  {
    const std::size_t n = quick ? 12 : 14;
    const auto qc = ir::builders::qft(n);
    double bestMs = 1e300;
    std::size_t mults = 0;
    std::size_t uniqueLookups = 0;
    std::size_t realLookups = 0;
    double avgProbe = 0.;
    std::size_t maxProbe = 0;
    double uniqueHitRatio = 0.;
    double computeHitRatio = 0.;
    for (int r = 0; r < reps; ++r) {
      Package pkg(n);
      std::vector<mEdge> gates;
      gates.reserve(qc.gateCount());
      for (const auto& op : qc) {
        const mEdge g = bridge::getDD(*op, n, pkg);
        pkg.incRef(g);
        gates.push_back(g);
      }
      const auto before = pkg.statistics();
      vEdge state = pkg.makeZeroState(n);
      pkg.incRef(state);
      const double ms = bench::timeMs([&] {
        for (const mEdge& g : gates) {
          const vEdge next = pkg.multiply(g, state);
          pkg.incRef(next);
          pkg.decRef(state);
          state = next;
          pkg.garbageCollect();
        }
      });
      const auto after = pkg.statistics();
      if (ms < bestMs) {
        bestMs = ms;
        const auto* mv = after.computeTable("multiplyMatVec");
        const auto* mvBefore = before.computeTable("multiplyMatVec");
        mults = (mv != nullptr ? mv->lookups : 0) -
                (mvBefore != nullptr ? mvBefore->lookups : 0);
        uniqueLookups = after.vectorTable.lookups - before.vectorTable.lookups;
        realLookups = after.reals.lookups - before.reals.lookups;
        avgProbe = after.vectorTable.avgProbeLength();
        maxProbe = after.vectorTable.longestChain;
        uniqueHitRatio = after.vectorTable.hitRatio();
        computeHitRatio = mv != nullptr ? mv->hitRatio() : 0.;
      }
    }
    const double nsPerGate = bestMs * 1e6 / static_cast<double>(qc.gateCount());
    const double nsPerMult =
        mults > 0 ? bestMs * 1e6 / static_cast<double>(mults) : 0.;
    std::printf("multiply (QFT-%zu simulation): %.3f ms, %.0f ns/gate, "
                "%.0f ns/multiply2 (%zu multiply2 calls)\n",
                n, bestMs, nsPerGate, nsPerMult, mults);
    std::printf("  vector unique table: %zu lookups, avg probe %.2f, max "
                "probe %zu, hit ratio %.2f; real table: %zu lookups; "
                "matvec cache hit ratio %.2f\n",
                uniqueLookups, avgProbe, maxProbe, uniqueHitRatio, realLookups,
                computeHitRatio);
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "\"n\": %zu, \"ms\": %.3f, \"nsPerGate\": %.1f, "
        "\"nsPerMultiply2\": %.1f, \"multiply2Calls\": %zu, "
        "\"uniqueLookups\": %zu, \"realLookups\": %zu, "
        "\"avgProbeLength\": %.3f, \"maxProbeLength\": %zu, "
        "\"uniqueHitRatio\": %.4f, \"computeHitRatio\": %.4f",
        n, bestMs, nsPerGate, nsPerMult, mults, uniqueLookups, realLookups,
        avgProbe, maxProbe, uniqueHitRatio, computeHitRatio);
    emit(quick ? "multiply_qft_12" : "multiply_qft_14", buf);
  }

  // Addition of two dense random states with memoization disabled: every
  // iteration runs the full add recursion (2^n leaf pairs), normalizing and
  // hash-consing each result node — the densest unique-table workload here.
  {
    const std::size_t n = quick ? 10 : 12;
    const std::size_t iters = quick ? 20 : 30;
    Package pkg(n);
    const vEdge a = pkg.makeStateFromVector(randomState(n, 11));
    const vEdge b = pkg.makeStateFromVector(randomState(n, 23));
    pkg.incRef(a);
    pkg.incRef(b);
    pkg.setComputeTablesEnabled(false);
    volatile const vNode* sink = nullptr;
    const double ns = bestNsPerOp(reps, iters, [&] {
      for (std::size_t k = 0; k < iters; ++k) {
        sink = pkg.add(a, b).p;
        pkg.garbageCollect();
      }
    });
    (void)sink;
    pkg.setComputeTablesEnabled(true);
    const double nsPerNode = ns / static_cast<double>(2ULL << n);
    std::printf("add (uncached, dense random %zu-qubit): %.0f ns/add, "
                "%.1f ns per node pair\n",
                n, ns, nsPerNode);
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "\"nsPerOp\": %.1f, \"nsPerNodePair\": %.2f, \"n\": %zu",
                  ns, nsPerNode, n);
    emit(quick ? "add_uncached_10" : "add_uncached_12", buf);
  }

  return 0;
}
