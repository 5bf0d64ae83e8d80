// sessbench-replay: the traced mode's in-process replay.
//
//   sessbench-replay --script F --workload W --workdir D --trace-out T
//
// Replays the requests a sessbench-load run recorded (--script) through
// Router::dispatch of an in-process Api: bare, for the dispatch medians per
// route, and with spans, for the tracing overhead. It then
// runs the workload's circuits through each layer's public functions
// (parser, dd::Package, sim, verify, viz, json, SessionStore spill and
// restore) under spans, reads the DD tables' counters from
// Package::statistics(), writes every span as a Chrome trace (--trace-out),
// and prints the per-layer metrics as one JSON line.
//
// The spans come from this file, around each public call; none are placed
// inside the program.

#include "fleet.hpp"
#include "stats.hpp"

#include "qdd/dd/Package.hpp"
#include "qdd/dd/Serialization.hpp"
#include "qdd/parser/qasm/Parser.hpp"
#include "qdd/service/Api.hpp"
#include "qdd/service/Json.hpp"
#include "qdd/service/Metrics.hpp"
#include "qdd/service/Router.hpp"
#include "qdd/service/SessionStore.hpp"
#include "qdd/sim/SimulationSession.hpp"
#include "qdd/verify/VerificationSession.hpp"
#include "qdd/viz/DotExporter.hpp"
#include "qdd/viz/Graph.hpp"
#include "qdd/viz/JsonExporter.hpp"
#include "qdd/viz/SvgExporter.hpp"
#include "qdd/viz/TextDump.hpp"

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace sessbench {
namespace {

using Clock = std::chrono::steady_clock;
namespace svc = qdd::service;

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// --- spans ----------------------------------------------------------------------

/// In-memory span recorder: name, start, end, parent and request id per
/// span; written out once, as a Chrome trace, when the run ends.
class Tracer {
public:
  struct Span {
    const char* name;
    std::int64_t startNs;
    std::int64_t endNs;
    int parent;
    std::int64_t request;
  };

  bool enabled = false;

  int begin(const char* name, std::int64_t request) {
    if (!enabled) {
      return -1;
    }
    spans.push_back(Span{name, nowNs(), 0, stack.empty() ? -1 : stack.back(),
                         request});
    stack.push_back(static_cast<int>(spans.size() - 1));
    return stack.back();
  }
  void end(int index) {
    if (index < 0) {
      return;
    }
    spans[static_cast<std::size_t>(index)].endNs = nowNs();
    stack.pop_back();
  }

  /// Self time of every span: its duration minus its children's.
  [[nodiscard]] std::vector<std::int64_t> selfNs() const {
    std::vector<std::int64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
      self[i] += spans[i].endNs - spans[i].startNs;
      if (spans[i].parent >= 0) {
        self[static_cast<std::size_t>(spans[i].parent)] -=
            spans[i].endNs - spans[i].startNs;
      }
    }
    return self;
  }

  /// Chrome trace-event JSON. Times are whole microseconds, floored, so a
  /// child never ends after its parent in the written file.
  void write(const std::string& path) const {
    std::vector<std::size_t> order(spans.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      order[i] = i;
    }
    const auto us = [](std::int64_t ns) { return ns / 1000; };
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      const std::int64_t ta = us(spans[a].startNs);
      const std::int64_t tb = us(spans[b].startNs);
      if (ta != tb) {
        return ta < tb;
      }
      return us(spans[a].endNs) - ta > us(spans[b].endNs) - tb;
    });
    const std::vector<std::int64_t> self = selfNs();
    const std::int64_t origin = spans.empty() ? 0 : us(spans.front().startNs);
    std::ofstream out(path);
    out << "{\"traceEvents\": [";
    for (std::size_t k = 0; k < order.size(); ++k) {
      const Span& s = spans[order[k]];
      const std::int64_t ts = us(s.startNs) - origin;
      const std::int64_t dur = us(s.endNs) - us(s.startNs);
      out << (k == 0 ? "\n" : ",\n") << "{\"name\": \"" << s.name
          << "\", \"cat\": \"sessbench\", \"ph\": \"X\", \"ts\": " << ts
          << ", \"dur\": " << dur << ", \"pid\": 1, \"tid\": 1, \"args\": "
          << "{\"span\": " << order[k] << ", \"parent\": " << s.parent
          << ", \"request\": " << s.request << ", \"self_us\": "
          << jsonNum(static_cast<double>(self[order[k]]) / 1e3) << "}}";
    }
    out << "\n]}\n";
  }

  std::vector<Span> spans;

private:
  std::vector<int> stack;
};

/// Times `fn` (always) and records it as a span (when tracing is on).
template <typename Fn>
double timedMs(Tracer& tracer, const char* name, std::int64_t request, Fn&& fn) {
  const int span = tracer.begin(name, request);
  const auto t0 = Clock::now();
  fn();
  const double ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  tracer.end(span);
  return ms;
}

// --- the recorded requests ---------------------------------------------------------

struct Request {
  char tag = 'p'; ///< p set-up, t timed, o other, h probe
  std::string method;
  std::string target;
  double httpMs = 0.;
  std::string body;
};

std::vector<Request> readScript(const std::string& path, std::size_t timedCap) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot read script " + path);
  }
  std::vector<Request> out;
  std::string line;
  std::size_t inTimedPhase = 0;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    Request r;
    std::string tag;
    std::string ms;
    std::getline(fields, tag, '\t');
    std::getline(fields, r.method, '\t');
    std::getline(fields, r.target, '\t');
    std::getline(fields, ms, '\t');
    std::getline(fields, r.body);
    r.tag = tag.empty() ? 'p' : tag[0];
    r.httpMs = std::atof(ms.c_str());
    if (r.tag != 'p' && ++inTimedPhase > timedCap) {
      break;
    }
    if (r.tag == 'p' && inTimedPhase > 0) {
      continue; // the closing /metrics reads
    }
    out.push_back(std::move(r));
  }
  return out;
}

svc::HttpRequest toHttpRequest(const Request& r) {
  svc::HttpRequest req;
  req.method = r.method;
  req.target = r.target;
  const auto q = r.target.find('?');
  req.path = r.target.substr(0, q);
  if (q != std::string::npos) {
    std::istringstream query(r.target.substr(q + 1));
    std::string pair;
    while (std::getline(query, pair, '&')) {
      const auto eq = pair.find('=');
      req.query[pair.substr(0, eq)] =
          eq == std::string::npos ? "" : pair.substr(eq + 1);
    }
  }
  req.body = r.body;
  return req;
}

std::string routeName(const std::string& method, const std::string& pattern) {
  if (pattern == "/v1/sessions" && method == "POST") return "create";
  if (pattern == "/v1/sessions/{id}/step") return "step";
  if (pattern == "/v1/sessions/{id}/back") return "back";
  if (pattern == "/v1/sessions/{id}/reset") return "reset";
  if (pattern == "/v1/sessions/{id}/run") return "run";
  if (pattern == "/v1/sessions/{id}/dd") return "export";
  if (pattern == "/v1/sessions/{id}" && method == "DELETE") return "delete";
  return {};
}

const char* const kRoutes[] = {"create", "step",   "back",  "reset",
                               "run",    "export", "delete"};

// --- pass A/B: the recorded requests through Router::dispatch ----------------------

struct DispatchPass {
  std::map<std::string, std::vector<double>> routeTimedMs;
  std::map<std::string, std::vector<double>> routeOtherMs;
  std::vector<double> timedMs;   ///< dispatch time of each timed request
  std::vector<double> timedHttp; ///< the same requests over HTTP
  std::size_t residentMax = 0;
  double wallMs = 0.;
  std::vector<std::string> errors;
};

svc::ApiOptions apiOptions(const std::string& workload, const std::string& dir) {
  svc::ApiOptions o;
  if (workload == "fleet") {
    o.spillDir = dir;
    o.maxResidentSessions = fleet::kBudget;
    o.maxSessions = fleet::kMaxSessions;
  }
  return o;
}

DispatchPass dispatchAll(const std::vector<Request>& requests,
                         const std::string& workload, const std::string& dir,
                         Tracer& tracer) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  svc::ServiceMetrics metrics;
  svc::Api api(apiOptions(workload, dir), metrics);
  svc::Router router;
  api.install(router);
  // spill order follows millisecond LRU stamps: keep one request per
  // millisecond tick so the replay spills the sessions the server spilled
  const bool tickPerRequest = workload == "fleet";

  DispatchPass pass;
  const auto t0 = Clock::now();
  double pausedMs = 0.;
  for (std::size_t k = 0; k < requests.size(); ++k) {
    const Request& r = requests[k];
    if (tickPerRequest) {
      const auto p0 = Clock::now();
      const auto tick = std::chrono::duration_cast<std::chrono::milliseconds>(
          p0.time_since_epoch());
      while (std::chrono::duration_cast<std::chrono::milliseconds>(
                 Clock::now().time_since_epoch()) == tick) {
      }
      pausedMs +=
          std::chrono::duration<double, std::milli>(Clock::now() - p0).count();
    }
    const svc::HttpRequest req = toHttpRequest(r);
    svc::Router::Dispatch d;
    const double ms = timedMs(tracer, "service.dispatch", static_cast<std::int64_t>(k),
                              [&] { d = router.dispatch(req); });
    const std::string route = routeName(r.method, d.pattern);
    if (d.response.status >= 400 && pass.errors.size() < 8) {
      pass.errors.push_back("replay " + r.method + " " + r.target + ": HTTP " +
                            std::to_string(d.response.status));
    }
    if (!route.empty() && r.tag != 'p') {
      (r.tag == 't' ? pass.routeTimedMs : pass.routeOtherMs)[route].push_back(ms);
    }
    if (r.tag == 't') {
      pass.timedMs.push_back(ms);
      pass.timedHttp.push_back(r.httpMs);
    }
    pass.residentMax = std::max(pass.residentMax, api.sessions().residentCount());
  }
  pass.wallMs =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count() -
      pausedMs;
  return pass;
}

// --- pass C: the workload's circuits through each layer -----------------------------

struct Layers {
  std::map<std::string, std::vector<double>> samples;
  qdd::mem::StatsRegistry stats;
  std::size_t gateCacheLookups = 0;
  std::size_t gateCacheHits = 0;
  std::size_t circuits = 0;
  std::vector<double> peakNodes;
  std::vector<double> realEntries;
  std::vector<double> spillKiB;

  void add(const std::string& name, double v) { samples[name].push_back(v); }
  [[nodiscard]] double med(const std::string& name) const {
    const auto it = samples.find(name);
    return it == samples.end() ? 0. : median(it->second);
  }
  void fold(const qdd::Package& pkg) {
    const auto s = pkg.statistics();
    stats.merge(s);
    peakNodes.push_back(static_cast<double>(s.vectorTable.peakEntries +
                                            s.matrixTable.peakEntries));
    realEntries.push_back(static_cast<double>(s.reals.entries));
  }
};

/// The response document's work on one state: graph, compact JSON, Dirac
/// text (the server adds it up to 10 qubits), and the service's JSON
/// round trip of the exporter text.
void documentLayers(Tracer& tr, Layers& L, std::int64_t req, qdd::Package& pkg,
                    const qdd::vEdge& state, std::size_t qubits) {
  qdd::viz::Graph graph;
  L.add("viz.graph_ms", timedMs(tr, "viz.graph", req,
                                [&] { graph = qdd::viz::buildGraph(state); }));
  std::string text;
  L.add("viz.json_ms", timedMs(tr, "viz.json", req, [&] {
          text = qdd::viz::JsonExporter(10, true).toJson(graph);
        }));
  L.add("viz.doc_kib", static_cast<double>(text.size()) / 1024.);
  if (qubits <= 10) {
    L.add("viz.dirac_ms", timedMs(tr, "viz.dirac", req, [&] {
            const std::string dirac = qdd::viz::toDirac(pkg, state);
            (void)dirac;
          }));
  }
  L.add("service.json_ms", timedMs(tr, "service.json", req, [&] {
          const std::string dumped = svc::json::Value::parse(text).dump();
          (void)dumped;
        }));
}

void exportLayers(Tracer& tr, Layers& L, std::int64_t req,
                  const qdd::vEdge& state) {
  const qdd::viz::Graph graph = qdd::viz::buildGraph(state);
  const qdd::viz::ExportOptions opts; // the server's defaults
  L.add("viz.svg_ms", timedMs(tr, "viz.svg", req, [&] {
          (void)qdd::viz::SvgExporter(opts).toSvg(graph);
        }));
  L.add("viz.dot_ms", timedMs(tr, "viz.dot", req, [&] {
          (void)qdd::viz::DotExporter(opts).toDot(graph);
        }));
}

void simulationCircuit(Tracer& tr, Layers& L, std::int64_t req,
                       const std::string& qasm, bool stepEachGate,
                       const std::string& spillDir) {
  const int circuitSpan = tr.begin("circuit", req);
  qdd::ir::QuantumComputation qc;
  L.add("parser.qasm_ms", timedMs(tr, "parser.qasm", req,
                                  [&] { qc = qdd::qasm::parse(qasm, "request"); }));
  const std::size_t n = std::max<std::size_t>(qc.numQubits(), 1);

  // stepping session: what a user's step requests do
  std::unique_ptr<qdd::Package> pkg;
  L.add("dd.package_new_ms", timedMs(tr, "dd.package_new", req, [&] {
          pkg = std::make_unique<qdd::Package>(n);
        }));
  auto session = std::make_unique<qdd::sim::SimulationSession>(qc, *pkg, 0);
  while (!session->atEnd()) {
    L.add("sim.step_ms",
          timedMs(tr, "sim.step", req, [&] { session->stepForward(); }));
    if (stepEachGate) {
      documentLayers(tr, L, req, *pkg, session->state(), n);
    }
  }
  if (!stepEachGate) {
    documentLayers(tr, L, req, *pkg, session->state(), n);
  }
  exportLayers(tr, L, req, session->state());
  pkg->garbageCollect(true);
  L.add("sim.pinned_nodes_ratio",
        static_cast<double>(pkg->statistics().vectorTable.entries) /
            static_cast<double>(std::max<std::size_t>(
                1, qdd::Package::size(session->state()))));
  std::string image;
  L.add("dd.serialize_ms", timedMs(tr, "dd.serialize", req, [&] {
          image = qdd::serializeToString(session->state());
        }));
  {
    qdd::Package fresh(n);
    L.add("dd.deserialize_ms", timedMs(tr, "dd.deserialize", req, [&] {
            (void)qdd::deserializeVectorFromString(fresh, image);
          }));
  }
  L.gateCacheLookups += session->gateCache().lookups();
  L.gateCacheHits += session->gateCache().hits();
  L.fold(*pkg);
  session.reset();
  L.add("dd.package_free_ms",
        timedMs(tr, "dd.package_free", req, [&] { pkg.reset(); }));

  // run session: what a run request does
  {
    qdd::Package runPkg(n);
    qdd::sim::SimulationSession run(qc, runPkg, 0);
    L.add("sim.run_ms", timedMs(tr, "sim.run", req, [&] {
            while (!run.atEnd()) {
              run.runToEnd();
            }
          }));
  }

  // spill and restore through the session store
  {
    svc::SessionStoreOptions o;
    o.spillDir = spillDir;
    svc::SessionStore store(o);
    auto entry = store.create("simulation");
    entry->qubits = n;
    entry->package = std::make_unique<qdd::Package>(n);
    entry->simulation =
        std::make_unique<qdd::sim::SimulationSession>(qc, *entry->package, 0);
    entry->simulation->runToEnd();
    store.publish(entry);
    const std::string id = entry->id;
    entry.reset();
    L.add("service.spill_ms", timedMs(tr, "service.spill", req,
                                      [&] { store.spillNow(id); }));
    L.spillKiB.push_back(static_cast<double>(store.spillBytesTotal()) / 1024.);
    L.add("service.restore_ms", timedMs(tr, "service.restore", req, [&] {
            auto found = store.find(id);
            const std::lock_guard<std::mutex> lock(found->mutex);
            store.ensureResident(*found);
          }));
    store.erase(id);
  }
  ++L.circuits;
  tr.end(circuitSpan);
}

void verificationPair(Tracer& tr, Layers& L, std::int64_t req,
                      const std::string& leftQasm, const std::string& rightQasm) {
  const int circuitSpan = tr.begin("pair", req);
  qdd::ir::QuantumComputation left;
  qdd::ir::QuantumComputation right;
  L.add("parser.qasm_ms", timedMs(tr, "parser.qasm", req,
                                  [&] { left = qdd::qasm::parse(leftQasm, "left"); }));
  L.add("parser.qasm_ms", timedMs(tr, "parser.qasm", req, [&] {
          right = qdd::qasm::parse(rightQasm, "right");
        }));
  std::unique_ptr<qdd::Package> pkg;
  L.add("dd.package_new_ms", timedMs(tr, "dd.package_new", req, [&] {
          pkg = std::make_unique<qdd::Package>(left.numQubits());
        }));
  auto session =
      std::make_unique<qdd::verify::VerificationSession>(left, right, *pkg);
  qdd::verify::CheckResult result;
  L.add("verify.run_ms", timedMs(tr, "verify.run", req,
                                 [&] { result = session->runToCompletion(); }));
  L.add("verify.peak_nodes", static_cast<double>(result.maxNodes));
  L.fold(*pkg);
  session.reset();
  L.add("dd.package_free_ms",
        timedMs(tr, "dd.package_free", req, [&] { pkg.reset(); }));
  ++L.circuits;
  tr.end(circuitSpan);
}

/// Resident bytes per empty Package, from this process's RSS.
double packageKiB(Tracer& tr, Layers& L) {
  const auto rssKiB = [] {
    std::ifstream statm("/proc/self/statm");
    double size = 0.;
    double resident = 0.;
    statm >> size >> resident;
    return resident * static_cast<double>(sysconf(_SC_PAGESIZE)) / 1024.;
  };
  constexpr int kPackages = 16;
  std::vector<std::unique_ptr<qdd::Package>> pkgs;
  const double before = rssKiB();
  for (int k = 0; k < kPackages; ++k) {
    L.add("dd.package_new_ms", timedMs(tr, "dd.package_new", -1, [&] {
            pkgs.push_back(std::make_unique<qdd::Package>(12));
          }));
  }
  const double grown = (rssKiB() - before) / kPackages;
  for (auto& p : pkgs) {
    L.add("dd.package_free_ms",
          timedMs(tr, "dd.package_free", -1, [&] { p.reset(); }));
  }
  return grown;
}

struct Args {
  std::string script;
  std::string workload;
  std::string workdir;
  std::string traceOut;
};

int runMain(const Args& args) {
  // caps on the timed phase's requests keep each pass to a few seconds
  const std::size_t cap = args.workload == "fleet"      ? 1500
                          : args.workload == "analysis" ? 120
                                                        : 4000;
  const std::vector<Request> requests = readScript(args.script, cap);

  // measured first, while the heap holds no freed pages to reuse
  Layers L;
  Tracer tracer;
  tracer.enabled = true;
  const double kib = packageKiB(tracer, L);

  // bare and traced passes alternate twice; the overhead compares the
  // faster of each, which is least disturbed by the host
  Tracer bare;
  const std::string replayDir = args.workdir + "/replay";
  const DispatchPass a =
      dispatchAll(requests, args.workload, replayDir, bare);
  const DispatchPass b1 =
      dispatchAll(requests, args.workload, replayDir, tracer);
  const DispatchPass a2 =
      dispatchAll(requests, args.workload, replayDir, bare);
  Tracer discarded;
  discarded.enabled = true;
  const DispatchPass b2 =
      dispatchAll(requests, args.workload, replayDir, discarded);
  const double overhead = std::min(b1.wallMs, b2.wallMs) /
                          std::min(a.wallMs, a2.wallMs);

  // pass C over the distinct circuits the workload created
  std::set<std::string> seen;
  std::size_t sims = 0;
  std::size_t pairs = 0;
  const std::string spillDir = args.workdir + "/replay-c";
  std::filesystem::create_directories(spillDir);
  for (std::size_t k = 0; k < requests.size(); ++k) {
    const Request& r = requests[k];
    if (r.method != "POST" || r.target != "/v1/sessions" || r.tag == 'p' ||
        !seen.insert(r.body).second) {
      continue;
    }
    const svc::json::Value body = svc::json::Value::parse(r.body);
    const auto req = static_cast<std::int64_t>(k);
    if (body.getString("kind", "simulation") == "verification") {
      if (pairs++ < 12) {
        verificationPair(tracer, L, req, body.find("left")->getString("qasm", ""),
                         body.find("right")->getString("qasm", ""));
      }
    } else if (sims++ < 24) {
      simulationCircuit(tracer, L, req, body.getString("qasm", ""),
                        args.workload != "analysis", spillDir);
    }
  }
  tracer.write(args.traceOut);

  std::string out;
  addMetric(out, "net.transport_ms", median(a.timedHttp) - median(a.timedMs), "ms");
  // a route's timed requests where the workload times it (the ones in
  // op_ms), all of its requests otherwise
  for (const char* route : kRoutes) {
    const auto timed = a.routeTimedMs.find(route);
    const auto other = a.routeOtherMs.find(route);
    const double ms = timed != a.routeTimedMs.end() ? median(timed->second)
                      : other != a.routeOtherMs.end() ? median(other->second)
                                                      : 0.;
    addMetric(out, std::string("service.dispatch_ms.") + route, ms, "ms");
  }
  for (const char* m : {"service.json_ms", "service.spill_ms", "service.restore_ms"}) {
    addMetric(out, m, L.med(m), "ms");
  }
  addMetric(out, "service.spill_kib", L.spillKiB.empty() ? 0. : median(L.spillKiB),
            "KiB");
  addMetric(out, "service.resident_max", static_cast<double>(a.residentMax),
            "count");
  for (const char* m : {"viz.graph_ms", "viz.json_ms", "viz.dirac_ms", "viz.svg_ms",
                        "viz.dot_ms"}) {
    addMetric(out, m, L.med(m), "ms");
  }
  addMetric(out, "viz.doc_kib", L.med("viz.doc_kib"), "KiB");
  addMetric(out, "sim.step_ms", L.med("sim.step_ms"), "ms");
  addMetric(out, "sim.run_ms", L.med("sim.run_ms"), "ms");
  addMetric(out, "sim.pinned_nodes_ratio", L.med("sim.pinned_nodes_ratio"), "ratio");
  addMetric(out, "verify.run_ms", L.med("verify.run_ms"), "ms");
  addMetric(out, "verify.peak_nodes", L.med("verify.peak_nodes"), "count");
  addMetric(out, "dd.package_new_ms", L.med("dd.package_new_ms"), "ms");
  addMetric(out, "dd.package_free_ms", L.med("dd.package_free_ms"), "ms");
  addMetric(out, "dd.package_kib", kib, "KiB");
  addMetric(out, "dd.serialize_ms", L.med("dd.serialize_ms"), "ms");
  addMetric(out, "dd.deserialize_ms", L.med("dd.deserialize_ms"), "ms");
  // every table a package has, whether or not this workload looked it up
  for (const auto& table : qdd::Package(1).statistics().computeTables) {
    const auto* seen = L.stats.computeTable(table.name);
    addMetric(out, "dd.compute_hit_ratio." + table.name,
              seen == nullptr ? 0. : seen->hitRatio(), "ratio");
  }
  qdd::mem::UniqueTableStats unique = L.stats.vectorTable;
  unique.merge(L.stats.matrixTable);
  addMetric(out, "dd.unique_hit_ratio", unique.hitRatio(), "ratio");
  addMetric(out, "dd.unique_probe_avg", unique.avgProbeLength(), "count");
  addMetric(out, "dd.gc_runs",
            static_cast<double>(L.stats.gc.runs) /
                static_cast<double>(std::max<std::size_t>(1, L.circuits)),
            "count");
  addMetric(out, "dd.peak_nodes", L.peakNodes.empty() ? 0. : median(L.peakNodes),
            "count");
  addMetric(out, "bridge.gate_cache_hit_ratio",
            L.gateCacheLookups == 0
                ? 0.
                : static_cast<double>(L.gateCacheHits) /
                      static_cast<double>(L.gateCacheLookups),
            "ratio");
  addMetric(out, "bridge.fast_path_share", L.stats.apply.coverage(), "ratio");
  addMetric(out, "complex.real_entries",
            L.realEntries.empty() ? 0. : median(L.realEntries), "count");
  addMetric(out, "complex.real_hit_ratio", L.stats.reals.hitRatio(), "ratio");
  addMetric(out, "parser.qasm_ms", L.med("parser.qasm_ms"), "ms");
  addMetric(out, "trace.overhead_ratio", overhead, "ratio");

  std::string errors;
  for (const auto& e : a.errors) {
    errors += (errors.empty() ? "\"" : ", \"") + e + "\"";
  }
  std::cout << "{\"layers\": {" << out << "}, \"replayed\": " << requests.size()
            << ", \"spans\": " << tracer.spans.size() << ", \"errors\": ["
            << errors << "]}" << std::endl;
  return 0;
}

} // namespace
} // namespace sessbench

int main(int argc, char** argv) {
  sessbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key == "--script") {
      args.script = argv[i + 1];
    } else if (key == "--workload") {
      args.workload = argv[i + 1];
    } else if (key == "--workdir") {
      args.workdir = argv[i + 1];
    } else if (key == "--trace-out") {
      args.traceOut = argv[i + 1];
    }
  }
  if (args.script.empty() || args.workload.empty() || args.workdir.empty() ||
      args.traceOut.empty()) {
    std::fprintf(stderr, "usage: sessbench-replay --script F --workload W "
                         "--workdir D --trace-out T\n");
    return 2;
  }
  try {
    return sessbench::runMain(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sessbench-replay: %s\n", e.what());
    return 1;
  }
}
