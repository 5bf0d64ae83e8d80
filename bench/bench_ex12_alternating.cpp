// Reproduces paper Ex. 12 quantitatively: verifying the equivalence of the
// three-qubit QFT and its compiled version requires a maximum of 9 nodes
// with the barrier-synchronized alternating scheme, versus 21 nodes when
// building the entire system matrix — and shows how that gap widens with
// the number of qubits (the core result of [20]).

#include "BenchUtil.hpp"

#include "qdd/ir/Builders.hpp"
#include "qdd/verify/EquivalenceChecker.hpp"
#include "qdd/verify/VerificationSession.hpp"

#include <algorithm>
#include <cstdio>

using namespace qdd;

int main() {
  bench::heading("Ex. 12: three-qubit QFT vs compiled QFT");
  {
    const auto qft = ir::builders::qft(3);
    const auto compiled = ir::decomposeToNativeGates(qft, true);
    const verify::EquivalenceChecker checker(qft, compiled);
    Package pkg(3);
    const auto seq =
        checker.checkAlternating(pkg, verify::Strategy::Sequential);
    const auto sync =
        checker.checkAlternating(pkg, verify::Strategy::BarrierSync);
    std::printf("full construction (sequential): max %zu nodes (paper: "
                "21)\n",
                seq.maxNodes);
    // The paper counts identity towers: step a session through the same
    // barrier-sync schedule and count every intermediate DD with its
    // skipped levels materialized.
    Package stepPkg(3);
    verify::VerificationSession session(qft, compiled, stepPkg);
    session.runToCompletion();
    std::size_t towerPeak = Package::materializedSize(session.state(), 3);
    while (session.stepBack()) {
      towerPeak = std::max(towerPeak,
                           Package::materializedSize(session.state(), 3));
    }
    std::printf("alternating (barrier-sync):     max %zu nodes, %zu with "
                "identity towers materialized (paper: 9)\n",
                sync.maxNodes, towerPeak);
    std::printf("both conclude: %s / %s\n",
                toString(seq.equivalence).c_str(),
                toString(sync.equivalence).c_str());
  }

  bench::heading("scaling: peak nodes per strategy (QFT_n vs compiled "
                 "QFT_n)");
  std::printf("%-4s %-14s %-14s %-14s %-14s %-10s\n", "n", "sequential",
              "one-to-one", "proportional", "barrier-sync", "worst");
  bench::rule();
  for (std::size_t n = 2; n <= 9; ++n) {
    const auto qft = ir::builders::qft(n);
    const auto compiled = ir::decomposeToNativeGates(qft, true);
    const verify::EquivalenceChecker checker(qft, compiled);
    std::size_t peaks[4] = {};
    const verify::Strategy strategies[] = {
        verify::Strategy::Sequential, verify::Strategy::OneToOne,
        verify::Strategy::Proportional, verify::Strategy::BarrierSync};
    for (int s = 0; s < 4; ++s) {
      Package pkg(n);
      const auto result = checker.checkAlternating(pkg, strategies[s]);
      peaks[s] = result.maxNodes;
      if (result.equivalence != verify::Equivalence::Equivalent) {
        std::printf("UNEXPECTED verdict for n=%zu strategy=%s\n", n,
                    toString(strategies[s]).c_str());
      }
    }
    std::size_t worst = 0;
    std::size_t pow = 1;
    for (std::size_t k = 0; k < n; ++k) {
      worst += pow;
      pow *= 4;
    }
    std::printf("%-4zu %-14zu %-14zu %-14zu %-14zu %-10zu\n", n, peaks[0],
                peaks[1], peaks[2], peaks[3], worst);
  }
  std::printf("\nThe alternating scheme keeps the DD near the identity "
              "(linear size) while sequential construction pays the full "
              "exponential QFT matrix — the \"drastic\" reduction of "
              "Sec. III-C.\n");
  return 0;
}
