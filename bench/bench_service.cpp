// Throughput/latency of the qdd::service HTTP session server under
// concurrent interactive clients: each client owns one GHZ-8 simulation
// session and drives it with step/reset requests over a keep-alive
// connection, the workload of the paper's web tool (one request per gate).
//
// Emits one grep-able `BENCH_SERVICE <label> {json}` record per client
// count plus a summary record, consumed by scripts/check_bench_service.py
// (--record / --check). Every record carries `hardwareConcurrency`: the
// scaling gates only apply on machines with enough cores, but the
// correctness gates (zero failed requests, sane latency ordering) run
// everywhere.
//
// Also measures the request-tracing overhead: two extra single-client
// phases against fresh servers — `tracing_off` first (flight-recorder
// arming is process-wide and sticky, so this phase must precede ANY
// tracing-enabled server in the process), then `tracing_on` with the
// full production surface (traceparent, root span, flight recorder,
// incident log wired). check_bench_service.py gates the tracing-on p50
// within 10% of tracing-off.
//
// A spill-tier phase rides along: `idle_spill` creates a fleet of Bell
// sessions (10k full / 1.5k quick) under a small resident budget,
// force-spills the rest, and reports the marginal RSS per spilled idle
// session plus 50 post-restore touches. check_bench_service.py gates the
// RSS per idle session at 4 KiB and zero errors end to end. The spill
// directory is removed when the phase ends.
//
// The `document` phase prices the response document against the DD work
// it reports: GHZ-8 step requests dispatched in-process (no sockets), the
// median dispatch time next to the median engine time the step responses
// carry (`lastStep.durationUs`). check_bench_service.py gates
// (dispatch - engine) / engine.

#include "BenchUtil.hpp"

#include "qdd/service/Api.hpp"
#include "qdd/service/HttpServer.hpp"
#include "qdd/service/Json.hpp"
#include "qdd/service/Router.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>

#if defined(__linux__)
#include <malloc.h>
#include <unistd.h>
#endif

using namespace qdd;

namespace {

const std::vector<std::size_t> CLIENT_COUNTS{1, 4, 8, 16, 64};

/// Current (not peak) resident set size; 0 where unmeasurable. The spill
/// phase needs the *live* footprint after the packages were destroyed —
/// getrusage's ru_maxrss only ever grows.
std::size_t currentRssBytes() {
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) {
    return 0;
  }
  long pagesTotal = 0;
  long pagesResident = 0;
  const int got = std::fscanf(f, "%ld %ld", &pagesTotal, &pagesResident);
  std::fclose(f);
  if (got != 2 || pagesResident < 0) {
    return 0;
  }
  return static_cast<std::size_t>(pagesResident) *
         static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
#else
  return 0;
#endif
}

/// Hands heap pages freed by destroyed packages back to the OS so the
/// RSS delta measures retained memory, not allocator caching.
void trimHeap() {
#if defined(__GLIBC__)
  ::malloc_trim(0);
#endif
}

struct ClientStats {
  std::vector<double> latenciesMs;
  std::size_t errors = 0;
};

/// One client: create a GHZ-8 session, then loop { step x8, reset } over a
/// keep-alive connection until `requests` requests have been issued. Every
/// request's latency is recorded; any non-2xx answer or malformed DD
/// document counts as an error.
ClientStats runClient(std::uint16_t port, std::size_t requests) {
  ClientStats stats;
  stats.latenciesMs.reserve(requests);
  service::HttpClient client("127.0.0.1", port);

  const auto timed = [&](const char* method, const std::string& target,
                         const std::string& body) {
    const auto start = std::chrono::steady_clock::now();
    auto result = client.request(method, target, body);
    stats.latenciesMs.push_back(std::chrono::duration<double, std::milli>(
                                    std::chrono::steady_clock::now() - start)
                                    .count());
    return result;
  };

  auto created = timed("POST", "/v1/sessions",
                       R"({"builder": {"name": "ghz", "qubits": 8}})");
  if (created.status != 201) {
    ++stats.errors;
    return stats;
  }
  const std::string id =
      service::json::Value::parse(created.body).getString("id", "");
  const std::string stepTarget = "/v1/sessions/" + id + "/step";
  const std::string resetTarget = "/v1/sessions/" + id + "/reset";

  bool atEnd = false;
  while (stats.latenciesMs.size() < requests) {
    const bool reset = atEnd;
    auto result = reset ? timed("POST", resetTarget, "{}")
                        : timed("POST", stepTarget, "{}");
    if (result.status != 200) {
      ++stats.errors;
      continue;
    }
    try {
      const auto doc = service::json::Value::parse(result.body);
      atEnd = doc.getBool("atEnd", false);
      if (!reset && doc.find("dd") == nullptr) {
        ++stats.errors;
      }
    } catch (const service::json::ParseError&) {
      ++stats.errors;
    }
  }
  return stats;
}

double percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) {
    return 0.;
  }
  std::sort(sorted.begin(), sorted.end());
  const auto rank = static_cast<std::size_t>(
      p / 100. * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

struct RunRecord {
  std::size_t clients = 0;
  std::size_t requests = 0;
  std::size_t errors = 0;
  double wallMs = 0.;
  double rps = 0.;
  double p50Ms = 0.;
  double p95Ms = 0.;
};

RunRecord runLoad(std::uint16_t port, std::size_t clients,
                  std::size_t requestsPerClient) {
  std::vector<ClientStats> perClient(clients);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&perClient, c, port, requestsPerClient] {
      perClient[c] = runClient(port, requestsPerClient);
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  RunRecord record;
  record.wallMs = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  std::vector<double> all;
  for (const auto& stats : perClient) {
    record.errors += stats.errors;
    record.requests += stats.latenciesMs.size();
    all.insert(all.end(), stats.latenciesMs.begin(),
               stats.latenciesMs.end());
  }
  record.clients = clients;
  record.rps = record.wallMs > 0.
                   ? 1000. * static_cast<double>(record.requests) /
                         record.wallMs
                   : 0.;
  record.p50Ms = percentile(all, 50.);
  record.p95Ms = percentile(all, 95.);
  return record;
}

/// Spins up a fresh server with tracing on or off, drives it with one
/// client, and tears it down again. Isolating each phase in its own
/// server keeps the metrics/incident state of the phases independent.
RunRecord tracingPhase(bool tracing, std::size_t requests) {
  service::ServiceMetrics metrics;
  service::ApiOptions apiOpts;
  apiOpts.maxSessions = 4;
  service::Api api(apiOpts, metrics);
  service::Router router;
  api.install(router);
  service::ServerOptions serverOpts;
  serverOpts.workers = 2;
  serverOpts.tracing = tracing;
  service::HttpServer server(serverOpts, router, metrics);
  if (tracing) {
    server.setIncidentLog(&api.incidents());
  }
  server.start();
  auto record = runLoad(server.port(), 1, requests);
  server.drain();
  server.stop();
  return record;
}

struct SpillRecord {
  std::size_t sessions = 0;
  std::size_t spilled = 0;
  std::size_t resident = 0;
  std::size_t errors = 0;
  double createWallMs = 0.;
  double rssPerIdleSessionBytes = 0.; ///< <= 0 when unmeasurable
  std::size_t restoreTouches = 0;
  double touchP50Ms = 0.;
};

/// Creates `sessions` Bell sessions under a 64-session resident budget,
/// force-spills the remainder, measures the marginal RSS per spilled idle
/// session, then touches 50 of them (transparent restore) and checks the
/// answers.
SpillRecord idleSpillPhase(std::size_t sessions, const std::string& dir) {
  SpillRecord rec;
  rec.sessions = sessions;

  service::ServiceMetrics metrics;
  service::ApiOptions apiOpts;
  apiOpts.maxSessions = sessions + 8;
  apiOpts.spillDir = dir;
  apiOpts.maxResidentSessions = 64;
  service::Api api(apiOpts, metrics);
  service::Router router;
  api.install(router);
  service::ServerOptions serverOpts;
  serverOpts.workers = 2;
  service::HttpServer server(serverOpts, router, metrics);
  server.start();

  service::HttpClient client("127.0.0.1", server.port());
  trimHeap();
  const std::size_t rss0 = currentRssBytes();

  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < sessions; ++i) {
    const auto created = client.request(
        "POST", "/v1/sessions", R"({"builder": {"name": "bell"}})");
    if (created.status != 201) {
      ++rec.errors;
    }
  }
  rec.createWallMs = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - start)
                         .count();

  // the budget left the hottest 64 resident — spill them too, so the RSS
  // delta is the cost of *idle* sessions only
  auto& store = api.sessions();
  for (const auto& entry : store.list()) {
    if (!entry->spilled.load(std::memory_order_relaxed)) {
      store.spillNow(entry->id);
    }
  }
  trimHeap();
  const std::size_t rss1 = currentRssBytes();
  rec.spilled = store.spilledCount();
  rec.resident = store.residentCount();
  if (rss0 > 0 && rss1 > rss0 && rec.spilled > 0) {
    rec.rssPerIdleSessionBytes = static_cast<double>(rss1 - rss0) /
                                 static_cast<double>(rec.spilled);
  }

  // post-restore touches: a strided sample of the fleet must answer with
  // the session intact (bell -> 2 qubits, position 0)
  std::vector<double> touchMs;
  const std::size_t touches = std::min<std::size_t>(50, sessions);
  for (std::size_t k = 0; k < touches; ++k) {
    const std::size_t pick = 1 + (k * 7919) % sessions;
    const std::string target = "/v1/sessions/s" + std::to_string(pick);
    const auto t0 = std::chrono::steady_clock::now();
    const auto got = client.request("GET", target);
    touchMs.push_back(std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count());
    if (got.status != 200) {
      ++rec.errors;
      continue;
    }
    try {
      const auto doc = service::json::Value::parse(got.body);
      if (doc.getNumber("qubits", 0) != 2.) {
        ++rec.errors;
      }
    } catch (const service::json::ParseError&) {
      ++rec.errors;
    }
  }
  rec.restoreTouches = touches;
  rec.touchP50Ms = percentile(touchMs, 50.);
  rec.errors += store.restoreFailures();

  server.drain();
  server.stop();
  return rec;
}

struct DocumentRecord {
  std::size_t steps = 0;
  std::size_t errors = 0;
  double dispatchP50Us = 0.;
  double engineP50Us = 0.;
  /// (dispatch - engine) / engine of the medians: what the response costs
  /// per microsecond of DD work
  double overheadRatio = 0.;
};

/// Steps GHZ-8 sessions `steps` times through Router::dispatch of an
/// in-process Api (a reset after each end, untimed) and compares each step
/// request's wall time with the engine time its response reports.
DocumentRecord documentPhase(std::size_t steps) {
  service::ServiceMetrics metrics;
  service::Api api(service::ApiOptions{}, metrics);
  service::Router router;
  api.install(router);
  const auto request = [&router](const char* method, const std::string& path,
                                 const std::string& body) {
    service::HttpRequest r;
    r.method = method;
    r.target = path;
    r.path = path;
    r.body = body;
    return router.dispatch(r).response;
  };

  DocumentRecord rec;
  const auto created = request("POST", "/v1/sessions",
                               R"({"builder": {"name": "ghz", "qubits": 8}})");
  if (created.status != 201) {
    rec.errors = 1;
    return rec;
  }
  const std::string id =
      service::json::Value::parse(created.body).getString("id", "");
  const std::string stepPath = "/v1/sessions/" + id + "/step";
  const std::string resetPath = "/v1/sessions/" + id + "/reset";

  std::vector<double> dispatchUs;
  std::vector<double> engineUs;
  while (dispatchUs.size() < steps) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto response = request("POST", stepPath, "{}");
    dispatchUs.push_back(std::chrono::duration<double, std::micro>(
                             std::chrono::steady_clock::now() - t0)
                             .count());
    if (response.status != 200) {
      ++rec.errors;
      continue;
    }
    const auto doc = service::json::Value::parse(response.body);
    const service::json::Value* last = doc.find("lastStep");
    if (last == nullptr || doc.find("dd") == nullptr) {
      ++rec.errors;
      continue;
    }
    engineUs.push_back(last->getNumber("durationUs", 0.));
    if (doc.getBool("atEnd", false) &&
        request("POST", resetPath, "{}").status != 200) {
      ++rec.errors;
    }
  }
  rec.steps = dispatchUs.size();
  rec.dispatchP50Us = percentile(dispatchUs, 50.);
  rec.engineP50Us = percentile(engineUs, 50.);
  if (rec.engineP50Us > 0.) {
    rec.overheadRatio =
        (rec.dispatchP50Us - rec.engineP50Us) / rec.engineP50Us;
  }
  return rec;
}

void printRecord(const char* label, const RunRecord& record,
                 unsigned cores) {
  std::printf("BENCH_SERVICE %s {\"clients\": %zu, \"requests\": %zu, "
              "\"errors\": %zu, \"wallMs\": %.3f, \"rps\": %.3f, "
              "\"p50Ms\": %.4f, \"p95Ms\": %.4f, "
              "\"hardwareConcurrency\": %u, \"resources\": %s}\n",
              label, record.clients, record.requests, record.errors,
              record.wallMs, record.rps, record.p50Ms, record.p95Ms, cores,
              bench::ResourceUsage::sample().toJson().c_str());
}

} // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    }
  }
  const std::size_t requestsPerClient = quick ? 60 : 400;
  const auto cores = std::thread::hardware_concurrency();

  // The document phase runs first, in a process with no server threads
  // and the flight recorder still disarmed.
  bench::heading("qdd::service step document vs engine (GHZ-8, in-process)");
  const auto document = documentPhase(2000);
  std::printf("%zu steps: dispatch p50 %.2f us, engine p50 %.2f us, "
              "(dispatch - engine) / engine %.2f, %zu errors\n",
              document.steps, document.dispatchP50Us, document.engineP50Us,
              document.overheadRatio, document.errors);
  bench::rule();

  // Tracing phases next: the flight recorder arms process-wide the moment
  // any tracing-enabled server starts and never disarms, so the off-phase
  // must complete before the tracing-on phase or the main server below.
  bench::heading("qdd::service request tracing overhead (1 client, GHZ-8)");
  std::printf("%8s %10s %10s %10s %8s\n", "tracing", "requests", "p50 ms",
              "p95 ms", "errors");
  const auto tracingOff = tracingPhase(false, requestsPerClient);
  std::printf("%8s %10zu %10.3f %10.3f %8zu\n", "off", tracingOff.requests,
              tracingOff.p50Ms, tracingOff.p95Ms, tracingOff.errors);
  const auto tracingOn = tracingPhase(true, requestsPerClient);
  std::printf("%8s %10zu %10.3f %10.3f %8zu\n", "on", tracingOn.requests,
              tracingOn.p50Ms, tracingOn.p95Ms, tracingOn.errors);
  bench::rule();

  // server shaped like `qdd-tool serve` defaults, sized for the widest
  // run; the epoll front-end is pinned explicitly so the QDD_NET env
  // cannot silently turn the sweep into a poll run
  service::ServiceMetrics metrics;
  service::ApiOptions apiOpts;
  apiOpts.maxSessions = 2 * CLIENT_COUNTS.back();
  service::Api api(apiOpts, metrics);
  service::Router router;
  api.install(router);
  service::ServerOptions serverOpts;
  serverOpts.workers = std::max<std::size_t>(
      4, std::thread::hardware_concurrency());
  serverOpts.net = service::NetMode::Epoll;
  service::HttpServer server(serverOpts, router, metrics);
  server.start();

  bench::heading("qdd::service step-request throughput (GHZ-8 sessions)");
  std::printf("%8s %10s %10s %10s %10s %8s\n", "clients", "requests",
              "rps", "p50 ms", "p95 ms", "errors");

  std::vector<RunRecord> records;
  for (const std::size_t clients : CLIENT_COUNTS) {
    const auto record = runLoad(server.port(), clients, requestsPerClient);
    std::printf("%8zu %10zu %10.1f %10.3f %10.3f %8zu\n", record.clients,
                record.requests, record.rps, record.p50Ms, record.p95Ms,
                record.errors);
    records.push_back(record);
  }
  bench::rule();

  // spill tier: a big created-then-idle fleet under a small budget
  const std::size_t fleet = quick ? 1500 : 10000;
  const std::string spillDir =
      "/tmp/qdd_bench_spill_" + std::to_string(::getpid());
  ::mkdir(spillDir.c_str(), 0755);
  bench::heading("qdd::service idle-session spill tier (Bell sessions)");
  const auto spill = idleSpillPhase(fleet, spillDir);
  std::filesystem::remove_all(spillDir);
  std::printf("%zu sessions: %zu spilled, %zu resident, "
              "%.1f bytes RSS/idle session, touch p50 %.3f ms, %zu errors\n",
              spill.sessions, spill.spilled, spill.resident,
              spill.rssPerIdleSessionBytes, spill.touchP50Ms, spill.errors);
  bench::rule();

  printRecord("tracing_off", tracingOff, cores);
  printRecord("tracing_on", tracingOn, cores);
  for (const auto& record : records) {
    char label[32];
    std::snprintf(label, sizeof(label), "steps_c%zu", record.clients);
    printRecord(label, record, cores);
  }
  std::printf("BENCH_SERVICE document {\"steps\": %zu, \"errors\": %zu, "
              "\"dispatchP50Us\": %.3f, \"engineP50Us\": %.3f, "
              "\"overheadRatio\": %.3f, \"hardwareConcurrency\": %u, "
              "\"resources\": %s}\n",
              document.steps, document.errors, document.dispatchP50Us,
              document.engineP50Us, document.overheadRatio, cores,
              bench::ResourceUsage::sample().toJson().c_str());
  std::printf("BENCH_SERVICE idle_spill {\"sessions\": %zu, "
              "\"spilled\": %zu, \"resident\": %zu, "
              "\"rssPerIdleSessionBytes\": %.1f, \"restoreTouches\": %zu, "
              "\"touchP50Ms\": %.4f, \"createWallMs\": %.1f, "
              "\"errors\": %zu, \"hardwareConcurrency\": %u, "
              "\"resources\": %s}\n",
              spill.sessions, spill.spilled, spill.resident,
              spill.rssPerIdleSessionBytes, spill.restoreTouches,
              spill.touchP50Ms, spill.createWallMs, spill.errors, cores,
              bench::ResourceUsage::sample().toJson().c_str());

  const double rps1 = records.front().rps;
  double scale4 = 0.;
  double scale8 = 0.;
  double scale64 = 0.;
  std::size_t totalRequests = 0;
  std::size_t totalErrors = 0;
  for (const auto& record : records) {
    totalRequests += record.requests;
    totalErrors += record.errors;
    if (rps1 > 0. && record.clients == 4) {
      scale4 = record.rps / rps1;
    }
    if (rps1 > 0. && record.clients == 8) {
      scale8 = record.rps / rps1;
    }
    if (rps1 > 0. && record.clients == 64) {
      scale64 = record.rps / rps1;
    }
  }
  std::printf("BENCH_SERVICE summary {\"totalRequests\": %zu, "
              "\"errors\": %zu, \"serverRequests\": %zu, \"scale4\": %.3f, "
              "\"scale8\": %.3f, \"scale64\": %.3f, "
              "\"hardwareConcurrency\": %u, \"resources\": %s}\n",
              totalRequests, totalErrors, metrics.requests(), scale4, scale8,
              scale64, cores, bench::ResourceUsage::sample().toJson().c_str());

  server.drain();
  server.stop();
  totalErrors +=
      tracingOff.errors + tracingOn.errors + spill.errors + document.errors;
  return totalErrors == 0 ? 0 : 1;
}
