// qdd-tool: console counterpart of the paper's web tool
// (https://iic.jku.at/eda/research/quantum_dd/tool), substituting the
// browser UI with a terminal REPL (see DESIGN.md). Three modes mirror the
// tool's tabs:
//
//   qdd-tool sim <circuit.{qasm,real}>        interactive simulation
//   qdd-tool verify <left.qasm> <right.qasm>  interactive verification
//   qdd-tool show <circuit.{qasm,real}>       one-shot: final DD + exports
//
// Interactive commands (simulation):
//   f / step      step one operation forward        (the -> button)
//   b / back      step one operation backward       (the <- button)
//   e / end       run to end or next breakpoint     (the >>| button)
//   s / start     rewind to the start               (the |<< button)
//   d / dd        print the current DD
//   v / state     print the state in Dirac notation
//   x / export    write dd.dot / dd.svg / dd.json
//   q / quit
//
// Measurement/reset outcomes are resolved via a prompt showing the
// probabilities — the console version of the tool's pop-up dialog.

#include "qdd/bridge/DDBuilder.hpp"
#include "qdd/exec/Batch.hpp"
#include "qdd/exec/Portfolio.hpp"
#include "qdd/exec/ThreadPool.hpp"
#include "qdd/ir/Builders.hpp"
#include "qdd/ir/Mapping.hpp"
#include "qdd/obs/Obs.hpp"
#include "qdd/obs/Sinks.hpp"
#include "qdd/parser/qasm/Parser.hpp"
#include "qdd/parser/real/RealParser.hpp"
#include "qdd/service/Api.hpp"
#include "qdd/service/HttpServer.hpp"
#include "qdd/synth/Synthesis.hpp"
#include "qdd/sim/SimulationSession.hpp"
#include "qdd/verify/VerificationSession.hpp"
#include "qdd/viz/CircuitDiagram.hpp"
#include "qdd/viz/DotExporter.hpp"
#include "qdd/viz/TraceExporter.hpp"
#include "qdd/viz/JsonExporter.hpp"
#include "qdd/viz/SvgExporter.hpp"
#include "qdd/viz/TextDump.hpp"

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace {

using namespace qdd;

/// Set by the global --stats flag: dump the package's statistics registry
/// (unique/compute/real-table counters, GC generations) as JSON on exit.
bool statsRequested = false;

/// Set by the global `--out <path>` flag: where machine-readable JSON goes.
/// Output hygiene contract: stdout carries only the human-readable summaries,
/// machine-readable JSON goes to `--out` when given and to stderr otherwise,
/// so piping stdout never mixes formats.
std::string outPath;

/// Writes a stats registry JSON to the machine-readable channel. Throws on
/// IO failure (surfaces as a nonzero exit code in main).
void maybePrintStats(const mem::StatsRegistry& stats) {
  if (!statsRequested) {
    return;
  }
  const std::string json = stats.toJson();
  if (outPath.empty()) {
    std::fprintf(stderr, "%s\n", json.c_str());
    return;
  }
  std::ofstream out(outPath);
  if (!out) {
    throw std::runtime_error("cannot open --out file for writing: " + outPath);
  }
  out << json << "\n";
  if (!out) {
    throw std::runtime_error("failed writing --out file: " + outPath);
  }
}

void maybePrintStats(const Package& pkg) {
  if (statsRequested) {
    maybePrintStats(pkg.statistics());
  }
}

ir::QuantumComputation load(const std::string& path) {
  if (path.size() >= 5 && path.substr(path.size() - 5) == ".real") {
    return real::parseFile(path);
  }
  return qasm::parseFile(path);
}

void exportAll(const viz::Graph& g, const std::string& prefix) {
  viz::DotExporter({.style = viz::Style::Classic}).writeFile(prefix + ".dot",
                                                             g);
  viz::SvgExporter({.style = viz::Style::Classic,
                    .edgeLabels = false,
                    .colored = true,
                    .magnitudeThickness = true})
      .writeFile(prefix + ".svg", g);
  viz::JsonExporter().writeFile(prefix + ".json", g);
  std::printf("wrote %s.dot, %s.svg, %s.json\n", prefix.c_str(),
              prefix.c_str(), prefix.c_str());
}

int promptOutcome(Qubit q, double p0, double p1) {
  std::printf("qubit q%d is in superposition:\n"
              "  [0] measure |0>  (probability %.2f%%)\n"
              "  [1] measure |1>  (probability %.2f%%)\n"
              "choice> ",
              q, 100. * p0, 100. * p1);
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line == "0" || line == "1") {
      return line[0] - '0';
    }
    std::printf("please answer 0 or 1> ");
  }
  return p1 >= p0 ? 1 : 0; // EOF: deterministic fallback
}

void printState(Package& pkg, const vEdge& state) {
  std::printf("state: %s  (%zu nodes)\n",
              viz::toDirac(pkg, state).c_str(), Package::size(state));
}

int runSim(const std::string& path) {
  const auto qc = load(path);
  std::printf("loaded '%s': %zu qubits, %zu operations\n", path.c_str(),
              qc.numQubits(), qc.size());
  std::printf("%s\n", viz::circuitToAscii(qc).c_str());
  Package pkg(qc.numQubits());
  sim::SimulationSession session(qc, pkg);
  session.setOutcomeChooser(promptOutcome);

  printState(pkg, session.state());
  std::printf("(f)orward (b)ack (e)nd (s)tart (d)d (v)state e(x)port "
              "(q)uit\n");
  std::string line;
  std::printf("> ");
  while (std::getline(std::cin, line)) {
    if (line.empty()) {
      std::printf("> ");
      continue;
    }
    const char c = line[0];
    if (c == 'q') {
      break;
    }
    switch (c) {
    case 'f': {
      if (const auto* op = session.nextOperation()) {
        std::printf("applying: %s\n", op->name().c_str());
      }
      if (!session.stepForward()) {
        std::printf("(already at the end)\n");
      }
      printState(pkg, session.state());
      break;
    }
    case 'b':
      if (!session.stepBackward()) {
        std::printf("(already at the start)\n");
      }
      printState(pkg, session.state());
      break;
    case 'e': {
      const std::size_t steps = session.runToEnd();
      std::printf("advanced %zu operation(s); position %zu/%zu\n", steps,
                  session.position(), session.numOperations());
      printState(pkg, session.state());
      break;
    }
    case 's':
      session.runToStart();
      printState(pkg, session.state());
      break;
    case 'd':
      std::printf("%s",
                  viz::asciiDump(viz::buildGraph(session.state())).c_str());
      break;
    case 'v':
      printState(pkg, session.state());
      break;
    case 'x':
      exportAll(viz::buildGraph(session.state()), "dd");
      break;
    default:
      std::printf("unknown command '%c'\n", c);
      break;
    }
    std::printf("> ");
  }
  maybePrintStats(pkg);
  return 0;
}

int runVerify(const std::string& leftPath, const std::string& rightPath) {
  const auto left = load(leftPath);
  const auto right = load(rightPath);
  std::printf("left  '%s': %zu qubits, %zu operations\n", leftPath.c_str(),
              left.numQubits(), left.size());
  std::printf("right '%s': %zu qubits, %zu operations\n", rightPath.c_str(),
              right.numQubits(), right.size());
  Package pkg(left.numQubits());
  verify::VerificationSession session(left, right, pkg);
  std::printf("starting from the identity (%zu nodes)\n",
              session.currentNodes());
  std::printf("(l)eft-step (r)ight-step (R)ight-to-barrier (b)ack (a)uto "
              "(d)d e(x)port (q)uit\n");

  std::string line;
  std::printf("> ");
  while (std::getline(std::cin, line)) {
    if (line.empty()) {
      std::printf("> ");
      continue;
    }
    const char c = line[0];
    if (c == 'q') {
      break;
    }
    switch (c) {
    case 'l':
      if (!session.stepLeft()) {
        std::printf("(left circuit exhausted)\n");
      }
      break;
    case 'r':
      if (!session.stepRight()) {
        std::printf("(right circuit exhausted)\n");
      }
      break;
    case 'R':
      std::printf("applied %zu right gate(s)\n", session.runRightToBarrier());
      break;
    case 'b':
      if (!session.stepBack()) {
        std::printf("(at the start)\n");
      }
      break;
    case 'a': {
      const auto result = session.runToCompletion();
      std::printf("result: %s (peak %zu nodes)\n",
                  toString(result.equivalence).c_str(), result.maxNodes);
      break;
    }
    case 'd':
      std::printf("%s",
                  viz::asciiDump(viz::buildGraph(session.state())).c_str());
      break;
    case 'x':
      exportAll(viz::buildGraph(session.state()), "dd");
      break;
    default:
      std::printf("unknown command '%c'\n", c);
      break;
    }
    std::printf("[L %zu/%zu | R %zu/%zu] %zu nodes%s\n",
                session.leftPosition(), session.leftSize(),
                session.rightPosition(), session.rightSize(),
                session.currentNodes(),
                session.currentVerdict() ==
                        verify::Equivalence::Equivalent
                    ? " = identity"
                    : "");
    if (session.finished()) {
      std::printf("both circuits exhausted; verdict: %s\n",
                  toString(session.currentVerdict()).c_str());
    }
    std::printf("> ");
  }
  maybePrintStats(pkg);
  return 0;
}

int runMap(const std::string& path, const std::string& device) {
  const auto qc = load(path);
  ir::CouplingMap cm = ir::CouplingMap::linear(qc.numQubits());
  if (device == "ring") {
    cm = ir::CouplingMap::ring(qc.numQubits());
  } else if (device.rfind("grid", 0) == 0) {
    // gridRxC, e.g. grid2x3
    const auto xPos = device.find('x');
    if (xPos == std::string::npos) {
      std::fprintf(stderr, "grid device needs the form gridRxC\n");
      return 2;
    }
    const auto rows = std::strtoul(device.c_str() + 4, nullptr, 10);
    const auto cols = std::strtoul(device.c_str() + xPos + 1, nullptr, 10);
    cm = ir::CouplingMap::grid(rows, cols);
  } else if (device != "linear") {
    std::fprintf(stderr, "unknown device '%s' (linear | ring | gridRxC)\n",
                 device.c_str());
    return 2;
  }
  const auto result = ir::mapToCoupling(qc, cm);
  std::printf("// mapped '%s' onto %s: %zu -> %zu gates (%zu SWAPs "
              "inserted)\n",
              path.c_str(), device.c_str(), qc.gateCount(),
              result.mapped.gateCount(), result.addedSwaps);
  std::printf("%s", result.mapped.toOpenQASM().c_str());

  // verify the flow end to end (paper ref. [28])
  if (qc.isPurelyUnitary() && cm.size() == qc.numQubits()) {
    Package pkg(qc.numQubits());
    const verify::EquivalenceChecker checker(qc,
                                             result.mappedWithRestore());
    std::printf("// verification (alternating scheme): %s\n",
                toString(checker.checkAlternating(pkg).equivalence).c_str());
  }
  return 0;
}

int runSynth(const std::string& path) {
  // the file lists the permutation images f(0) f(1) ... f(2^n - 1),
  // whitespace separated; '#' starts a comment
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::vector<std::uint64_t> perm;
  std::string line;
  while (std::getline(in, line)) {
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.resize(hash);
    }
    std::istringstream ss(line);
    std::uint64_t v = 0;
    while (ss >> v) {
      perm.push_back(v);
    }
  }
  const auto qc = synth::synthesizePermutation(perm);
  const auto stats = synth::analyze(qc);
  std::printf("// synthesized %zu-entry permutation: %zu gates (max %zu "
              "controls)\n",
              perm.size(), stats.gates, stats.maxControls);
  std::printf("%s", qc.toOpenQASM().c_str());
  // verify against the spec via canonical DDs
  Package pkg(qc.numQubits());
  const mEdge spec = synth::buildPermutationDD(pkg, perm);
  const mEdge impl = bridge::buildFunctionality(qc, pkg);
  std::printf("// verification: %s\n",
              spec.p == impl.p && spec.w.approximatelyEquals(impl.w, 1e-9)
                  ? "cascade realizes the specification (canonical DDs)"
                  : "MISMATCH");
  return 0;
}

int runTrace(const std::string& path, const std::string& tracePath) {
  const auto qc = load(path);
  Package pkg(qc.numQubits());
  viz::writeSimulationTrace(qc, pkg, tracePath);
  std::printf("wrote step-by-step simulation trace of '%s' (%zu operations) "
              "to %s\n",
              path.c_str(), qc.size(), tracePath.c_str());
  maybePrintStats(pkg);
  return 0;
}

/// `qdd-tool profile <circuit>`: runs the circuit once with the
/// observability layer enabled, writes a Chrome-trace-event JSON (loadable
/// by ui.perfetto.dev / chrome://tracing, with the stats registry embedded
/// as "qddStats"), and prints a per-operation latency profile to stdout.
int runProfile(const std::string& path) {
  const std::string tracePath = outPath.empty() ? "trace.json" : outPath;
  auto chrome = std::make_shared<obs::ChromeTraceSink>();
  auto agg = std::make_shared<obs::AggregatorSink>();
  auto& registry = obs::Registry::instance();
  registry.addSink(chrome);
  registry.addSink(agg);
  registry.setEnabled(true);

  int exitCode = 0;
  try {
    const auto qc = load(path); // parser spans land in the trace
    Package pkg(qc.numQubits());
    sim::SimulationSession session(qc, pkg);
    // deterministic profile runs: always take the more probable outcome
    session.setOutcomeChooser(
        [](Qubit, double p0, double p1) { return p1 > p0 ? 1 : 0; });
    while (session.stepForward()) {
    }
    registry.setEnabled(false);

    chrome->setStatsJson(pkg.statistics().toJson(false));
    chrome->writeFile(tracePath);

    std::printf("profiled '%s': %zu qubits, %zu operations, peak %zu nodes\n",
                path.c_str(), qc.numQubits(), qc.size(), session.peakNodes());
    const mem::ApplyPathStats& apply = pkg.applyPathCounters();
    const bridge::GateDDCache& gateCache = session.gateCache();
    std::printf("apply path: %zu kernel calls (%zu diagonal, %zu "
                "permutation, %zu generic), %zu fallback -> %.1f%% fast-path "
                "coverage\n",
                apply.fast(), apply.diagonal, apply.permutation,
                apply.generic, apply.fallback, apply.coverage() * 100.);
    if (gateCache.lookups() > 0) {
      std::printf("gate-DD cache: %zu lookups, %zu hits (%.1f%%), %zu "
                  "entries\n",
                  gateCache.lookups(), gateCache.hits(),
                  gateCache.hitRatio() * 100., gateCache.size());
    }
    std::printf("%s", agg->summaryTable().c_str());
    std::printf("wrote Chrome trace (%zu events) to %s — open in "
                "ui.perfetto.dev or chrome://tracing\n",
                chrome->eventCount(), tracePath.c_str());
    if (statsRequested) {
      // stats are embedded in the trace; --stats additionally streams them
      // to stderr (the trace file already occupies --out)
      std::fprintf(stderr, "%s\n", pkg.statistics().toJson().c_str());
    }
  } catch (...) {
    registry.setEnabled(false);
    registry.clearSinks();
    throw;
  }
  registry.clearSinks();
  return exitCode;
}

/// Shared flags of the parallel modes, parsed from the arguments after the
/// positional ones: --workers N, --shots N, --seed N.
struct ExecFlags {
  std::size_t workers = 0; ///< 0 = one per hardware thread
  std::size_t shots = 0;
  std::uint64_t seed = 0;
};

ExecFlags parseExecFlags(int argc, char** argv, int first) {
  ExecFlags flags;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto numeric = [&](const char* what) -> std::uint64_t {
      if (i + 1 >= argc) {
        throw std::runtime_error(std::string(what) +
                                 " requires a numeric argument");
      }
      return std::strtoull(argv[++i], nullptr, 10);
    };
    if (arg == "--workers") {
      flags.workers = static_cast<std::size_t>(numeric("--workers"));
    } else if (arg == "--shots") {
      flags.shots = static_cast<std::size_t>(numeric("--shots"));
    } else if (arg == "--seed") {
      flags.seed = numeric("--seed");
    } else {
      throw std::runtime_error("unknown flag '" + arg + "'");
    }
  }
  return flags;
}

/// `qdd-tool batch <dir>`: parses and simulates every .qasm/.real file in the
/// directory across a work-stealing worker pool, one private DD package per
/// worker. Prints one summary line per file (in name order, independent of
/// scheduling) and exits nonzero if any file failed.
int runBatch(const std::string& directory, const ExecFlags& flags) {
  const auto files = exec::collectCircuitFiles(directory);
  if (files.empty()) {
    std::fprintf(stderr, "no .qasm/.real files in %s\n", directory.c_str());
    return 2;
  }
  exec::BatchOptions options;
  options.workers = flags.workers;
  options.shots = flags.shots;
  options.seed = flags.seed;
  const exec::BatchResult result = exec::runSuite(files, options);

  for (const auto& c : result.circuits) {
    if (!c.error.empty()) {
      std::printf("FAIL %-40s %s\n", c.name.c_str(), c.error.c_str());
      continue;
    }
    if (flags.shots > 0) {
      std::printf("ok   %-40s %zu qubits, %zu ops, %zu shots, %zu distinct "
                  "outcomes  (%.2f ms, worker %zu)\n",
                  c.name.c_str(), c.qubits, c.operations, c.sampling.shots,
                  c.sampling.counts.size(), c.wallMs, c.worker);
    } else {
      std::printf("ok   %-40s %zu qubits, %zu ops, %zu nodes final, %zu peak "
                  " (%.2f ms, worker %zu)\n",
                  c.name.c_str(), c.qubits, c.operations, c.finalNodes,
                  c.peakNodes, c.wallMs, c.worker);
    }
  }
  std::printf("batch: %zu file(s), %zu failure(s), %zu worker(s), %.2f ms\n",
              result.circuits.size(), result.failures(), result.workers,
              result.wallMs);
  maybePrintStats(result.stats);
  return result.failures() == 0 ? 0 : 1;
}

/// `qdd-tool pverify <left> <right>`: portfolio equivalence checking — both
/// alternating directions (and a simulation prover) race on private packages;
/// the first conclusive entry cancels the rest.
int runPverify(const std::string& leftPath, const std::string& rightPath,
               const ExecFlags& flags) {
  const auto left = load(leftPath);
  const auto right = load(rightPath);
  std::printf("left  '%s': %zu qubits, %zu operations\n", leftPath.c_str(),
              left.numQubits(), left.size());
  std::printf("right '%s': %zu qubits, %zu operations\n", rightPath.c_str(),
              right.numQubits(), right.size());

  exec::PortfolioOptions options;
  options.workers = flags.workers;
  options.seed = flags.seed;
  const exec::PortfolioResult result = exec::checkPortfolio(left, right,
                                                            options);
  for (const auto& entry : result.entries) {
    std::printf("  %-24s %-12s %8.2f ms  peak %zu nodes, %zu gates\n",
                entry.name.c_str(),
                entry.result.cancelled
                    ? "(cancelled)"
                    : toString(entry.result.equivalence).c_str(),
                entry.wallMs, entry.result.maxNodes,
                entry.result.gatesApplied);
  }
  std::printf("winner: %s (%.2f ms total)\n", result.winner.c_str(),
              result.wallMs);
  std::printf("result: %s\n", toString(result.result.equivalence).c_str());
  return 0;
}

int runShow(const std::string& path) {
  const auto qc = load(path);
  Package pkg(qc.numQubits());
  if (qc.isPurelyUnitary()) {
    const mEdge u = bridge::buildFunctionality(qc, pkg);
    std::printf("functionality DD of '%s': %zu nodes\n", path.c_str(),
                Package::size(u));
    const viz::Graph g = viz::buildGraph(u, qc.numQubits());
    std::printf("%s", viz::asciiDump(g).c_str());
    exportAll(g, "dd");
  } else {
    sim::SimulationSession session(qc, pkg);
    while (session.stepForward()) {
    }
    printState(pkg, session.state());
    exportAll(viz::buildGraph(session.state()), "dd");
  }
  maybePrintStats(pkg);
  return 0;
}

// --- serve mode ---------------------------------------------------------------

/// SIGINT counter: the first signal starts a graceful drain, the second
/// aborts the wait and stops immediately.
std::atomic<int> serveSignals{0};

void onServeSignal(int /*signum*/) {
  serveSignals.fetch_add(1, std::memory_order_relaxed);
}

int runServe(int argc, char** argv, int first) {
  service::ServerOptions serverOpts;
  service::ApiOptions apiOpts;
  bool enableObs = false;
  int drainMs = 5000;
  for (int i = first; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto intArg = [&](const char* name) -> long {
      if (i + 1 >= argc) {
        throw std::runtime_error(std::string(name) +
                                 " requires a numeric argument");
      }
      return std::strtol(argv[++i], nullptr, 10);
    };
    const auto strArg = [&](const char* name) -> std::string {
      if (i + 1 >= argc) {
        throw std::runtime_error(std::string(name) +
                                 " requires an argument");
      }
      return argv[++i];
    };
    if (flag == "--port") {
      serverOpts.port = static_cast<std::uint16_t>(intArg("--port"));
    } else if (flag == "--workers") {
      serverOpts.workers = static_cast<std::size_t>(intArg("--workers"));
    } else if (flag == "--max-sessions") {
      apiOpts.maxSessions = static_cast<std::size_t>(intArg("--max-sessions"));
    } else if (flag == "--max-qubits") {
      apiOpts.maxQubits = static_cast<std::size_t>(intArg("--max-qubits"));
    } else if (flag == "--max-body") {
      serverOpts.maxBodyBytes = static_cast<std::size_t>(intArg("--max-body"));
    } else if (flag == "--ttl") {
      apiOpts.sessionTtlMs = intArg("--ttl") * 1000;
    } else if (flag == "--deadline") {
      apiOpts.defaultDeadlineMs = intArg("--deadline");
    } else if (flag == "--drain-timeout") {
      drainMs = static_cast<int>(intArg("--drain-timeout"));
    } else if (flag == "--obs") {
      enableObs = true;
    } else if (flag == "--access-log") {
      serverOpts.accessLogPath = strArg("--access-log");
    } else if (flag == "--incident-dir") {
      apiOpts.incidentDir = strArg("--incident-dir");
    } else if (flag == "--max-incidents") {
      apiOpts.maxIncidents = static_cast<std::size_t>(intArg("--max-incidents"));
    } else if (flag == "--slow-ms") {
      serverOpts.slowRequestMs = static_cast<double>(intArg("--slow-ms"));
    } else if (flag == "--no-tracing") {
      serverOpts.tracing = false;
    } else if (flag == "--net") {
      const std::string mode = strArg("--net");
      if (mode == "epoll") {
        serverOpts.net = service::NetMode::Epoll;
      } else if (mode == "poll") {
        serverOpts.net = service::NetMode::Poll;
      } else {
        std::fprintf(stderr, "serve: --net must be epoll or poll\n");
        return 2;
      }
    } else if (flag == "--idle-timeout") {
      serverOpts.idleTimeoutMs = intArg("--idle-timeout");
    } else if (flag == "--spill-dir") {
      apiOpts.spillDir = strArg("--spill-dir");
    } else if (flag == "--spill-after") {
      apiOpts.spillAfterMs = intArg("--spill-after");
    } else if (flag == "--spill-budget") {
      apiOpts.maxResidentSessions =
          static_cast<std::size_t>(intArg("--spill-budget"));
    } else {
      std::fprintf(stderr, "serve: unknown flag '%s'\n", flag.c_str());
      return 2;
    }
  }

  service::ServiceMetrics metrics;
  std::unique_ptr<service::Api> apiOwner;
  try {
    apiOwner = std::make_unique<service::Api>(apiOpts, metrics);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "serve: %s\n", e.what());
    return 2;
  }
  service::Api& api = *apiOwner;
  std::shared_ptr<obs::AggregatorSink> aggregator;
  if (enableObs) {
    aggregator = std::make_shared<obs::AggregatorSink>();
    obs::Registry::instance().addSink(aggregator);
    obs::Registry::instance().setEnabled(true);
    api.setAggregator(aggregator);
  }
  service::Router router;
  api.install(router);
  service::HttpServer server(serverOpts, router, metrics);
  api.setDrainingProbe([&server] { return server.draining(); });
  api.setOpenConnectionsProbe([&server] { return server.openConnections(); });
  if (serverOpts.tracing) {
    server.setIncidentLog(&api.incidents());
  }
  server.start();

  // grep-able startup line: scripted drivers read the actual (possibly
  // ephemeral) port from here
  std::printf("SERVE_READY port=%u workers=%zu max-sessions=%zu net=%s\n",
              static_cast<unsigned>(server.port()), serverOpts.workers,
              apiOpts.maxSessions, server.netName());
  std::fflush(stdout);

  std::signal(SIGINT, onServeSignal);
  std::signal(SIGTERM, onServeSignal);
  while (serveSignals.load(std::memory_order_relaxed) == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  std::printf("SERVE_DRAINING (new requests get 503; Ctrl-C again to force)\n");
  std::fflush(stdout);
  server.drain();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(drainMs);
  while (std::chrono::steady_clock::now() < deadline &&
         serveSignals.load(std::memory_order_relaxed) < 2) {
    if (server.awaitIdle(100)) {
      break;
    }
  }
  server.stop();

  const std::string summary = metrics.toJson().dump();
  std::printf("SERVE_STOPPED requests=%zu\n", metrics.requests());
  if (outPath.empty()) {
    std::fprintf(stderr, "%s\n", summary.c_str());
  } else {
    std::ofstream out(outPath);
    if (!out) {
      throw std::runtime_error("cannot open --out file for writing: " +
                               outPath);
    }
    out << summary << "\n";
  }
  if (aggregator) {
    obs::Registry::instance().setEnabled(false);
    obs::Registry::instance().removeSink(aggregator);
  }
  return 0;
}

} // namespace

int main(int argc, char** argv) {
  // Extract the global --stats / --out flags before positional parsing.
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--stats") == 0) {
      statsRequested = true;
    } else if (std::strcmp(argv[i], "--out") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--out requires a file path argument\n");
        return 2;
      }
      outPath = argv[++i];
    } else {
      args.push_back(argv[i]);
    }
  }
  argc = static_cast<int>(args.size());
  argv = args.data();
  if (argc >= 2 && std::strcmp(argv[1], "serve") == 0) {
    try {
      return runServe(argc, argv, 2);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage:\n"
                 "  %s sim <circuit.{qasm,real}>\n"
                 "  %s verify <left.{qasm,real}> <right.{qasm,real}>\n"
                 "  %s show <circuit.{qasm,real}>\n"
                 "  %s trace <circuit.{qasm,real}> [out.json]\n"
                 "  %s profile <circuit.{qasm,real}>\n"
                 "  %s map <circuit.{qasm,real}> [linear|ring|gridRxC]\n"
                 "  %s synth <permutation.txt>\n"
                 "  %s batch <directory> [--workers N --shots S --seed X]\n"
                 "  %s pverify <left.{qasm,real}> <right.{qasm,real}> "
                 "[--workers N --seed X]\n"
                 "  %s serve [--port N --workers W --max-sessions S "
                 "--max-qubits Q\n"
                 "            --max-body BYTES --ttl SECONDS --deadline MS "
                 "--obs\n"
                 "            --access-log FILE --incident-dir DIR "
                 "--max-incidents N\n"
                 "            --slow-ms MS --no-tracing "
                 "--net epoll|poll\n"
                 "            --idle-timeout MS --spill-dir DIR "
                 "--spill-after MS\n"
                 "            --spill-budget N]\n"
                 "global flags: --stats (dump stats JSON), --out <file>\n"
                 "  (--out routes machine-readable JSON to <file>; without it,\n"
                 "   JSON goes to stderr and stdout stays human-readable)\n",
                 argv[0], argv[0], argv[0], argv[0], argv[0], argv[0],
                 argv[0], argv[0], argv[0], argv[0]);
    return 2;
  }
  try {
    const std::string mode = argv[1];
    if (mode == "sim") {
      return runSim(argv[2]);
    }
    if (mode == "verify") {
      if (argc < 4) {
        std::fprintf(stderr, "verify needs two circuit files\n");
        return 2;
      }
      return runVerify(argv[2], argv[3]);
    }
    if (mode == "show") {
      return runShow(argv[2]);
    }
    if (mode == "trace") {
      return runTrace(argv[2], argc > 3 ? argv[3] : "trace.json");
    }
    if (mode == "profile") {
      return runProfile(argv[2]);
    }
    if (mode == "map") {
      return runMap(argv[2], argc > 3 ? argv[3] : "linear");
    }
    if (mode == "synth") {
      return runSynth(argv[2]);
    }
    if (mode == "batch") {
      return runBatch(argv[2], parseExecFlags(argc, argv, 3));
    }
    if (mode == "pverify") {
      if (argc < 4) {
        std::fprintf(stderr, "pverify needs two circuit files\n");
        return 2;
      }
      return runPverify(argv[2], argv[3], parseExecFlags(argc, argv, 4));
    }
    std::fprintf(stderr, "unknown mode '%s'\n", mode.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
