#include "qdd/exec/Portfolio.hpp"

#include "qdd/exec/ThreadPool.hpp"
#include "qdd/obs/Obs.hpp"

#include <chrono>

namespace qdd::exec {

namespace {

using Clock = std::chrono::steady_clock;

double msSince(const Clock::time_point& t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

enum class EntryKind { AlternatingLR, AlternatingRL, Simulation };

struct EntrySpec {
  const char* name;
  EntryKind kind;
};

} // namespace

PortfolioResult checkPortfolio(const ir::QuantumComputation& g1,
                               const ir::QuantumComputation& g2,
                               const PortfolioOptions& options) {
  obs::ScopedSpan span("exec", "portfolio");
  const auto t0 = Clock::now();

  // Constructing the checkers up front validates the circuit pair once
  // (same qubit count, purely unitary) before any thread is spawned.
  const verify::EquivalenceChecker forward(g1, g2, options.tolerance);
  const verify::EquivalenceChecker backward(g2, g1, options.tolerance);

  std::vector<EntrySpec> specs{
      {"alternating/left-right", EntryKind::AlternatingLR},
      {"alternating/right-left", EntryKind::AlternatingRL},
  };
  if (options.includeSimulation) {
    specs.push_back({"simulation", EntryKind::Simulation});
  }

  PortfolioResult out;
  out.entries.resize(specs.size());
  std::atomic<int> winner{-1};
  const CancellationToken& race = options.cancel;

  ThreadPool pool(options.workers == 0 ? specs.size() : options.workers);
  pool.parallelFor(specs.size(), [&](std::size_t i, std::size_t /*worker*/) {
    PortfolioResult::Entry& entry = out.entries[i];
    entry.name = specs[i].name;
    if (race.cancelled()) {
      entry.result.cancelled = true;
      return;
    }
    obs::ScopedSpan entrySpan("exec", "portfolioEntry");
    entrySpan.arg("entry", entry.name);
    const auto entryStart = Clock::now();
    Package pkg(g1.numQubits());
    switch (specs[i].kind) {
    case EntryKind::AlternatingLR:
      entry.result =
          forward.checkAlternating(pkg, options.strategy, race.flag());
      entry.conclusive = !entry.result.cancelled;
      break;
    case EntryKind::AlternatingRL:
      entry.result =
          backward.checkAlternating(pkg, options.strategy, race.flag());
      entry.conclusive = !entry.result.cancelled;
      break;
    case EntryKind::Simulation:
      entry.result = forward.checkBySimulation(
          pkg, options.simulationStimuli, options.seed, race.flag());
      // Simulation runs can only ever *disprove* equivalence conclusively.
      entry.conclusive =
          !entry.result.cancelled &&
          entry.result.equivalence == verify::Equivalence::NotEquivalent;
      break;
    }
    entry.wallMs = msSince(entryStart);
    if (entry.conclusive) {
      int expected = -1;
      if (winner.compare_exchange_strong(expected, static_cast<int>(i))) {
        race.cancel(); // first conclusive result stops the losers
      }
    }
  });

  const int winnerIndex = winner.load();
  if (winnerIndex >= 0) {
    const auto index = static_cast<std::size_t>(winnerIndex);
    out.result = out.entries[index].result;
    out.winner = out.entries[index].name;
  } else {
    // Only reachable when the caller cancelled before any entry concluded
    // (alternating entries always conclude unless cancelled).
    out.cancelled = true;
    out.result.cancelled = true;
  }
  out.wallMs = msSince(t0);
  span.arg("winner", out.winner);
  span.arg("wallMs", out.wallMs);
  return out;
}

} // namespace qdd::exec
