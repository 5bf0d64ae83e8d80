// Reproduces paper Fig. 8 / Ex. 13: the interactive simulation of the
// circuit of Fig. 1(c) including the 50/50 measurement dialog and the
// collapse to |11>, followed by the simulation-scaling study behind
// Sec. III-B (DD-based simulation vs the dense baseline on GHZ, QFT, and
// Grover workloads).

#include "BenchUtil.hpp"

#include "qdd/baseline/DenseSimulator.hpp"
#include "qdd/bridge/DDBuilder.hpp"
#include "qdd/ir/Builders.hpp"
#include "qdd/sim/SimulationSession.hpp"
#include "qdd/viz/TextDump.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>

using namespace qdd;

namespace {

/// The general path the direct kernels replace: every gate's matrix DD is
/// built and multiplied into the state, with the same per-gate bookkeeping
/// (peak size, GC check) as `bridge::simulate`.
void simulateGeneral(const ir::QuantumComputation& qc, Package& p,
                     bridge::BuildStats& stats) {
  const std::size_t n = qc.numQubits();
  vEdge state = p.makeZeroState(n);
  p.incRef(state);
  for (const auto& op : qc) {
    if (op->type() == ir::OpType::Barrier) {
      continue;
    }
    const vEdge next = p.multiply(bridge::getDD(*op, n, p), state);
    p.incRef(next);
    p.decRef(state);
    state = next;
    stats.maxNodes = std::max(stats.maxNodes, Package::size(state));
    p.garbageCollect();
  }
  p.decRef(state);
}

/// Times one full simulation of `qc` on a fresh package (so the apply-path
/// counters belong to this run alone), through the direct kernels or the
/// general path, and reports the kernel coverage alongside.
/// Best-of-`repeats` wall time.
struct AblationRun {
  double ms = 0.;
  double coverage = 0.;
  std::size_t peakNodes = 0;
};

AblationRun runAblation(const ir::QuantumComputation& qc, bool general,
                        int repeats) {
  AblationRun run;
  run.ms = 1e300;
  for (int r = 0; r < repeats; ++r) {
    Package p(qc.numQubits());
    bridge::BuildStats stats;
    const double ms = bench::timeMs([&] {
      if (general) {
        simulateGeneral(qc, p, stats);
      } else {
        (void)bridge::simulate(qc, p.makeZeroState(qc.numQubits()), p, stats);
      }
    });
    run.ms = std::min(run.ms, ms);
    run.coverage = p.applyPathCounters().coverage();
    run.peakNodes = stats.maxNodes;
  }
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
    const auto fast = runAblation(row.qc, false, repeats);
    const auto general = runAblation(row.qc, true, repeats);
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
              "multiply rebuilt per gate.\n");

  bench::heading("functionality build: identity-skipping gate DDs vs their "
                 "materialized node count");
  std::printf("%-20s %-6s %-8s %-11s %-11s %-9s %-10s\n", "workload", "n",
              "gates", "strip gDD", "mat gDD", "reduce", "strip(ms)");
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
    Package p(n);
    bridge::BuildStats stats;
    const double ms = bench::timeMs(
        [&] { (void)bridge::buildFunctionality(row.qc, p, stats); });
    std::size_t stripGateNodes = 0;
    std::size_t materializeGateNodes = 0;
    for (const auto& op : row.qc) {
      const mEdge gate = bridge::getDD(*op, n, p);
      stripGateNodes += Package::size(gate);
      materializeGateNodes += Package::materializedSize(gate, n);
    }
    const double reduction =
        stripGateNodes > 0 ? static_cast<double>(materializeGateNodes) /
                                 static_cast<double>(stripGateNodes)
                           : 0.;
    std::printf("%-20s %-6zu %-8zu %-11zu %-11zu %-9.2f %-10.3f\n", row.name,
                n, row.qc.gateCount(), stripGateNodes, materializeGateNodes,
                reduction, ms);
    std::printf("BENCH_APPLY %s_%zu {\"n\": %zu, \"gates\": %zu, "
                "\"stripGateNodes\": %zu, \"materializeGateNodes\": %zu, "
                "\"nodeReduction\": %.3f, \"stripPeakNodes\": %zu, "
                "\"finalNodes\": %zu, \"stripMs\": %.3f, \"resources\": %s}\n",
                row.name, n, n, row.qc.gateCount(), stripGateNodes,
                materializeGateNodes, reduction, stats.maxNodes,
                stats.finalNodes, ms,
                bench::ResourceUsage::sample().toJson().c_str());
  }
  std::printf("\nstrip/mat gDD = cumulative nodes of the per-gate operator "
              "DDs built during the functionality build, as built and as "
              "counted with every skipped level materialized as an identity "
              "node (Package::materializedSize): identity-skipping edges "
              "never build the identity tower above/below a gate's "
              "support.\n");

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
