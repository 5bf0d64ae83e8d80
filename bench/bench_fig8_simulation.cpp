// Reproduces paper Fig. 8 / Ex. 13: the interactive simulation of the
// circuit of Fig. 1(c) including the 50/50 measurement dialog and the
// collapse to |11>, followed by the simulation-scaling study behind
// Sec. III-B (DD-based simulation vs the dense baseline on GHZ, QFT, and
// Grover workloads).

#include "BenchUtil.hpp"

#include "qdd/baseline/DenseSimulator.hpp"
#include "qdd/bridge/DDBuilder.hpp"
#include "qdd/dd/Serialization.hpp"
#include "qdd/ir/Builders.hpp"
#include "qdd/sim/SimulationSession.hpp"
#include "qdd/viz/TextDump.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <string>

using namespace qdd;

namespace {

/// Times one full simulation of `qc` under the given apply mode on a fresh
/// package (so the apply-path counters belong to this run alone) and
/// reports the kernel coverage alongside. Best-of-`repeats` wall time.
struct AblationRun {
  double ms = 0.;
  double coverage = 0.;
  std::size_t peakNodes = 0;
};

AblationRun runAblation(const ir::QuantumComputation& qc,
                        bridge::ApplyMode mode, int repeats) {
  AblationRun run;
  run.ms = 1e300;
  const bridge::ApplyMode saved = bridge::globalApplyMode();
  bridge::setGlobalApplyMode(mode);
  for (int r = 0; r < repeats; ++r) {
    Package p(qc.numQubits());
    bridge::BuildStats stats;
    const double ms = bench::timeMs([&] {
      (void)bridge::simulate(qc, p.makeZeroState(qc.numQubits()), p, stats);
    });
    run.ms = std::min(run.ms, ms);
    run.coverage = p.applyPathCounters().coverage();
    run.peakNodes = stats.maxNodes;
  }
  bridge::setGlobalApplyMode(saved);
  return run;
}

} // namespace

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
  bench::heading("Fig. 8: stepping through the Bell circuit with a "
                 "measurement");
  auto circuit = ir::builders::bell();
  circuit.addClassicalRegister(2, "c");
  circuit.measure(0, 0);

  Package pkg(2);
  sim::SimulationSession session(circuit, pkg);
  session.setOutcomeChooser([](Qubit q, double p0, double p1) {
    std::printf("  [Fig. 8(c)] measuring q%d: p(|0>) = %.0f%%, p(|1>) = "
                "%.0f%% -> user picks |1>\n",
                q, p0 * 100., p1 * 100.);
    return 1;
  });

  std::printf("(a) initial state: %s\n",
              viz::toDirac(pkg, session.state()).c_str());
  session.stepForward();
  session.stepForward();
  std::printf("(b) after H, CNOT: %s (%zu nodes)\n",
              viz::toDirac(pkg, session.state()).c_str(),
              session.currentNodes());
  session.stepForward();
  std::printf("(d) post-measurement state: %s (paper: |11> — \"the value "
              "of the second qubit is completely determined\")\n",
              viz::toDirac(pkg, session.state()).c_str());

  bench::heading("Sec. III-B scaling: DD simulation vs dense baseline");
  std::printf("%-22s %-6s %-8s %-13s %-13s %-10s\n", "workload", "n",
              "gates", "DD (ms)", "dense (ms)", "peak DD");
  bench::rule();

  struct Row {
    const char* name;
    ir::QuantumComputation qc;
  };
  std::vector<Row> rows;
  for (const std::size_t n : quick ? std::vector<std::size_t>{8, 12}
                                   : std::vector<std::size_t>{8, 12, 16, 20}) {
    rows.push_back({"ghz", ir::builders::ghz(n)});
  }
  for (const std::size_t n : quick ? std::vector<std::size_t>{8}
                                   : std::vector<std::size_t>{8, 12, 16}) {
    rows.push_back({"qft", ir::builders::qft(n)});
  }
  for (const std::size_t n : quick ? std::vector<std::size_t>{8}
                                   : std::vector<std::size_t>{8, 10, 12}) {
    rows.push_back({"grover", ir::builders::grover(n, (1ULL << n) - 2)});
  }

  for (const auto& row : rows) {
    const std::size_t n = row.qc.numQubits();
    Package p(n);
    bridge::BuildStats stats;
    const double ddMs = bench::timeMs(
        [&] { (void)bridge::simulate(row.qc, p.makeZeroState(n), p, stats); });
    double denseMs = 0.;
    if (n <= 20) {
      baseline::DenseStateVector dense(n);
      denseMs = bench::timeMs([&] { dense.run(row.qc); });
    }
    std::printf("%-22s %-6zu %-8zu %-13.2f %-13.2f %-10zu\n", row.name, n,
                row.qc.gateCount(), ddMs, denseMs, stats.maxNodes);
    bench::emitStatsJson(std::string(row.name) + "_" + std::to_string(n), p);
  }
  std::printf("\nGHZ: DD wins asymptotically (linear diagrams). QFT/Grover "
              "states are dense-ish: DDs pay overhead per node — matching "
              "the paper's \"strengths and limits\" framing.\n");

  bench::heading("apply-path ablation: direct kernels vs gate-DD multiply");
  std::printf("%-12s %-6s %-8s %-11s %-12s %-9s %-9s\n", "workload", "n",
              "gates", "fast (ms)", "general(ms)", "speedup", "coverage");
  bench::rule();
  const int repeats = 3;
  struct AblationRow {
    const char* name;
    ir::QuantumComputation qc;
  };
  std::vector<AblationRow> ablRows;
  if (quick) {
    // the same workloads as the full run (a subset), so the labels line up
    // with the committed BENCH_APPLY.json baseline in the CI perf smoke
    ablRows.push_back({"qft", ir::builders::qft(12)});
    ablRows.push_back({"ghz", ir::builders::ghz(16)});
  } else {
    ablRows.push_back({"qft", ir::builders::qft(12)});
    ablRows.push_back({"qft", ir::builders::qft(16)});
    ablRows.push_back({"ghz", ir::builders::ghz(16)});
    ablRows.push_back({"grover", ir::builders::grover(10, (1ULL << 10) - 2)});
  }
  for (const auto& row : ablRows) {
    const std::size_t n = row.qc.numQubits();
    const auto fast = runAblation(row.qc, bridge::ApplyMode::Fast, repeats);
    const auto general =
        runAblation(row.qc, bridge::ApplyMode::General, repeats);
    const double speedup = fast.ms > 0. ? general.ms / fast.ms : 0.;
    std::printf("%-12s %-6zu %-8zu %-11.3f %-12.3f %-9.2f %-9.2f\n",
                row.name, n, row.qc.gateCount(), fast.ms, general.ms, speedup,
                fast.coverage);
    std::printf("BENCH_APPLY %s_%zu {\"n\": %zu, \"gates\": %zu, "
                "\"fastMs\": %.3f, \"generalMs\": %.3f, "
                "\"speedupFastVsGeneral\": %.3f, \"fastCoverage\": %.4f, "
                "\"peakNodes\": %zu, \"resources\": %s}\n",
                row.name, n, n, row.qc.gateCount(), fast.ms, general.ms,
                speedup, fast.coverage, fast.peakNodes,
                bench::ResourceUsage::sample().toJson().c_str());
  }
  std::printf("\nfast = direct kernels on the state DD; general = gate-DD "
              "multiply rebuilt per gate (QDD_APPLY=general).\n");

  bench::heading("functionality build: identity-skipping vs materialized "
                 "identity towers (QDD_DD_IDENTITY)");
  std::printf("%-20s %-6s %-8s %-11s %-11s %-9s %-10s %-10s %-6s\n",
              "workload", "n", "gates", "strip gDD", "mat gDD", "reduce",
              "strip(ms)", "mat(ms)", "match");
  bench::rule();
  struct FuncRow {
    const char* name;
    ir::QuantumComputation qc;
  };
  std::vector<FuncRow> funcRows;
  funcRows.push_back({"funcbuild_qft", ir::builders::qft(8)});
  funcRows.push_back(
      {"funcbuild_grover", ir::builders::grover(10, (1ULL << 10) - 2)});
  for (const auto& row : funcRows) {
    const std::size_t n = row.qc.numQubits();
    struct ModeResult {
      std::size_t gateNodes = 0; ///< cumulative gate-operator DD sizes
      bridge::BuildStats stats;
      double ms = 0.;
      std::string serialized;
    };
    std::array<ModeResult, 2> res;
    const std::array<IdentityMode, 2> modes{IdentityMode::Strip,
                                            IdentityMode::Materialize};
    for (std::size_t m = 0; m < 2; ++m) {
      Package p(n, NormalizationScheme::Largest, RealTable::DEFAULT_TOLERANCE,
                modes[m]);
      mEdge u = mEdge::zero();
      res[m].ms = bench::timeMs(
          [&] { u = bridge::buildFunctionality(row.qc, p, res[m].stats); });
      res[m].serialized = serializeToString(u, n);
      for (const auto& op : row.qc) {
        res[m].gateNodes += Package::size(bridge::getDD(*op, n, p));
      }
    }
    // cross-validate: both modes must canonicalize to the same root in a
    // fresh identity-skipping package
    Package ref(n, NormalizationScheme::Largest, RealTable::DEFAULT_TOLERANCE,
                IdentityMode::Strip);
    const mEdge a = deserializeMatrixFromString(ref, res[0].serialized);
    const mEdge b = deserializeMatrixFromString(ref, res[1].serialized);
    const bool rootsMatch = a.p == b.p && a.w.approximatelyEquals(b.w, 1e-9);
    const double reduction =
        res[0].gateNodes > 0
            ? static_cast<double>(res[1].gateNodes) /
                  static_cast<double>(res[0].gateNodes)
            : 0.;
    std::printf("%-20s %-6zu %-8zu %-11zu %-11zu %-9.2f %-10.3f %-10.3f "
                "%-6s\n",
                row.name, n, row.qc.gateCount(), res[0].gateNodes,
                res[1].gateNodes, reduction, res[0].ms, res[1].ms,
                rootsMatch ? "yes" : "NO");
    std::printf(
        "BENCH_APPLY %s_%zu {\"n\": %zu, \"gates\": %zu, "
        "\"stripGateNodes\": %zu, \"materializeGateNodes\": %zu, "
        "\"nodeReduction\": %.3f, \"stripPeakNodes\": %zu, "
        "\"materializePeakNodes\": %zu, \"finalNodes\": %zu, "
        "\"stripMs\": %.3f, \"materializeMs\": %.3f, \"rootsMatch\": %s, "
        "\"resources\": %s}\n",
        row.name, n, n, row.qc.gateCount(), res[0].gateNodes,
        res[1].gateNodes, reduction, res[0].stats.maxNodes,
        res[1].stats.maxNodes, res[0].stats.finalNodes, res[0].ms, res[1].ms,
        rootsMatch ? "true" : "false",
        bench::ResourceUsage::sample().toJson().c_str());
  }
  std::printf("\nstrip/mat gDD = cumulative nodes of the per-gate operator "
              "DDs built during the functionality build: identity-skipping "
              "edges never materialize the identity tower above/below a "
              "gate's support. The accumulated product converges to the same "
              "canonical DD in both modes (match column).\n");

  if (quick) {
    return 0; // CI perf smoke: ablation records emitted, skip the slow rest
  }

  bench::heading("instrumented reference run (BENCH_PROFILE record)");
  const auto qft12 = ir::builders::qft(12);
  const double profMs = bench::profiledRun("fig8_qft12_sim", [&] {
    Package p(12);
    sim::SimulationSession s(qft12, p);
    while (s.stepForward()) {
    }
  });
  std::printf("stepwise QFT_12 with tracing enabled: %.2f ms\n", profMs);

  bench::heading("non-destructive repeated measurement ([16] weak "
                 "simulation)");
  auto ghz = ir::builders::ghz(16);
  ghz.measureAll();
  const double ms = bench::timeMs([&] {
    const auto result = sim::sampleCircuit(ghz, 10000, 99);
    std::printf("10000 shots on GHZ_16: %zu distinct outcomes (expect 2)\n",
                result.counts.size());
  });
  std::printf("one strong simulation + 10000 samples took %.2f ms\n", ms);
  return 0;
}
