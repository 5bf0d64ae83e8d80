#pragma once

// qdd::service — the REST surface of the paper's web tool, mapped onto the
// library: interactive simulation sessions (Sec. IV-B), interactive
// verification sessions (Sec. IV-C), one-shot portfolio equivalence checks,
// and DD export in json/dot/svg. See docs/SERVICE.md for the endpoint
// reference.
//
// Robustness contract:
//   * admission control — session cap -> 429, circuit size caps -> 413,
//     body size cap -> 413 (enforced in the HTTP layer);
//   * per-request deadlines — every /run and /v1/verify arms a
//     DeadlineTimer token plumbed into the session's gate loop; expiry
//     stops the work at the next gate boundary and answers a structured
//     408 (the applied prefix stays applied and inspectable);
//   * TTL eviction of idle sessions (SessionStore).

#include "qdd/obs/Sinks.hpp"
#include "qdd/service/Deadline.hpp"
#include "qdd/service/Incidents.hpp"
#include "qdd/service/Metrics.hpp"
#include "qdd/service/Router.hpp"
#include "qdd/service/SessionStore.hpp"

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

namespace qdd::service {

/// Thrown by handlers to produce a structured JSON error response.
class ApiError : public std::runtime_error {
public:
  ApiError(int status, std::string code, const std::string& message)
      : std::runtime_error(message), status(status), code(std::move(code)) {}

  const int status;
  const std::string code;
};

struct ApiOptions {
  std::size_t maxSessions = 16;
  /// Circuit admission caps (413 circuit_too_large beyond them).
  std::size_t maxQubits = 25;
  std::size_t maxOperations = 200000;
  /// Deadline for /run and /v1/verify when the request names none.
  std::int64_t defaultDeadlineMs = 10000;
  /// Hard ceiling on requested deadlines (requests asking for more are
  /// clamped, not rejected). Non-positive requested deadlines expire
  /// immediately — a deterministic way to exercise the 408 path.
  std::int64_t maxDeadlineMs = 120000;
  /// Idle sessions older than this are evicted (<= 0 disables TTL).
  std::int64_t sessionTtlMs = 600000;
  /// Newest incident traces kept in memory (and mirrored on disk when
  /// `incidentDir` is set); older ones are dropped/unlinked.
  std::size_t maxIncidents = 32;
  /// On-disk mirror for incident trace JSON; empty keeps them memory-only.
  std::string incidentDir;
  /// Directory for idle-session spill files; empty disables the spill
  /// tier (see SessionStore).
  std::string spillDir;
  /// Sessions idle longer than this are spilled to disk (<= 0 disables
  /// idle-driven spilling; budget pressure still spills).
  std::int64_t spillAfterMs = 0;
  /// Soft cap on sessions holding a live DD package; the coldest beyond
  /// it are spilled. 0 means unlimited.
  std::size_t maxResidentSessions = 0;
};

class Api {
public:
  Api(ApiOptions options, ServiceMetrics& metrics);

  /// Registers every endpoint on `router`. The Api must outlive the router.
  void install(Router& router);

  [[nodiscard]] SessionStore& sessions() noexcept { return store; }
  [[nodiscard]] DeadlineTimer& deadlines() noexcept { return timer; }
  /// The flight-recorder incident log served by /v1/incidents. Wire it to
  /// the server via HttpServer::setIncidentLog(&api.incidents()).
  [[nodiscard]] IncidentLog& incidents() noexcept { return incidentLog; }

  /// Attaches the obs aggregator whose summaries /metrics embeds.
  void setAggregator(std::shared_ptr<obs::AggregatorSink> sink) {
    aggregator = std::move(sink);
  }
  /// Lets /healthz report drain state (wired to HttpServer::draining).
  void setDrainingProbe(std::function<bool()> probe) {
    drainingProbe = std::move(probe);
  }
  /// Lets /metrics export qdd_net_open_connections (wired to
  /// HttpServer::openConnections).
  void setOpenConnectionsProbe(std::function<std::size_t()> probe) {
    openConnectionsProbe = std::move(probe);
  }

private:
  HttpResponse createSession(const HttpRequest& request);
  HttpResponse listSessions();
  HttpResponse getSession(const std::string& id);
  HttpResponse deleteSession(const std::string& id);
  HttpResponse stepSession(const std::string& id, const HttpRequest& request);
  HttpResponse backSession(const std::string& id, const HttpRequest& request);
  HttpResponse resetSession(const std::string& id);
  HttpResponse runSession(const std::string& id, const HttpRequest& request);
  HttpResponse exportDd(const std::string& id, const HttpRequest& request);
  HttpResponse verifyOnce(const HttpRequest& request);
  HttpResponse healthz();
  HttpResponse metricsDoc(const HttpRequest& request);
  HttpResponse listIncidents();
  HttpResponse getIncident(const std::string& id);

  /// The DD statistics /metrics reports: retired packages plus whichever
  /// live sessions are idle right now.
  [[nodiscard]] mem::StatsRegistry ddStats() const;
  [[nodiscard]] std::string prometheusDoc() const;

  /// Builds a circuit from {"qasm": "..."} or {"builder": {...}}, enforcing
  /// the qubit/operation caps. Throws ApiError.
  ir::QuantumComputation buildCircuit(const json::Value& spec) const;

  [[nodiscard]] std::int64_t clampDeadline(const json::Value& body) const;
  std::shared_ptr<SessionStore::Entry> require(const std::string& id);
  /// Locks the entry and transparently restores it when spilled (the lock
  /// is the restore-once guard). RestoreError maps to a 500.
  std::unique_lock<std::mutex> lockSession(SessionStore::Entry& entry);

  json::Value sessionDoc(SessionStore::Entry& entry, bool includeDd) const;

  const ApiOptions options;
  ServiceMetrics& metrics;
  SessionStore store;
  DeadlineTimer timer;
  IncidentLog incidentLog;
  std::shared_ptr<obs::AggregatorSink> aggregator;
  std::function<bool()> drainingProbe;
  std::function<std::size_t()> openConnectionsProbe;
};

} // namespace qdd::service
