#pragma once

// qdd::service — the embedded HTTP server. A qdd::net::Reactor owns every
// socket on one event-loop thread (epoll, or poll(2) where epoll is
// missing); only *complete* requests are dispatched to the qdd::exec pool,
// and the serialized response is queued back through the reactor for
// writeout. Slow or silent clients never pin a worker — concurrency is
// bounded by memory (one buffered connection each), not by worker count,
// and `workers` sizes CPU parallelism only.
//
// Robustness knobs: body-size cap (413 before the body is read),
// idle-connection timeout, graceful drain (in-flight requests finish,
// everything new gets 503 + close), hard stop. Every request runs the same
// pipeline (tracing, metrics, incidents, access log) via processRequest().
// docs/SERVICE.md discusses sizing.

#include "qdd/exec/ThreadPool.hpp"
#include "qdd/net/Reactor.hpp"
#include "qdd/obs/TraceContext.hpp"
#include "qdd/service/Metrics.hpp"
#include "qdd/service/Router.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>

namespace qdd::service {

class IncidentLog;

/// Network front-end selection. Epoll falls back to Poll at runtime when
/// the platform has no epoll.
enum class NetMode : std::uint8_t { Epoll, Poll };

/// Default NetMode, overridable via the QDD_NET environment variable
/// ("epoll" | "poll"); unset or unrecognized values mean Epoll. Lets CI
/// run the whole service suite against either backend.
[[nodiscard]] NetMode defaultNetMode();

struct ServerOptions {
  std::string bindAddress = "127.0.0.1";
  /// 0 picks an ephemeral port; read the actual one via port().
  std::uint16_t port = 0;
  /// Pool workers: CPU parallelism for request handlers (0: hardware).
  std::size_t workers = 4;
  std::size_t maxBodyBytes = 1U << 20U;
  /// Network front-end (see NetMode); QDD_NET overrides the default.
  NetMode net = defaultNetMode();
  /// Idle keep-alive connections are closed after this long.
  int idleTimeoutMs = 30000;
  /// Request-scoped tracing: parse/emit W3C traceparent, install a
  /// TraceContext around dispatch, arm the obs flight recorder, and record
  /// a "service/request" root span per request.
  bool tracing = true;
  /// Requests at least this slow are captured as incidents even when they
  /// succeed (tail-latency forensics). <= 0 disables the slow trigger;
  /// ≥500 and 408 responses are always captured.
  double slowRequestMs = 250.;
  /// JSONL access log (one line per routed request); empty disables.
  std::string accessLogPath;
};

class HttpServer {
public:
  /// The router and metrics must outlive the server.
  HttpServer(ServerOptions options, Router& router, ServiceMetrics& metrics);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds, listens, and starts accepting. Throws std::runtime_error when
  /// the address cannot be bound.
  void start();

  /// The bound port (the ephemeral one when options.port was 0).
  [[nodiscard]] std::uint16_t port() const noexcept { return boundPort; }

  /// Enters drain mode: every new request — on new or existing
  /// connections — is answered 503 and the connection closed; requests
  /// already executing finish normally.
  void drain() noexcept { drainingFlag.store(true); }
  [[nodiscard]] bool draining() const noexcept {
    return drainingFlag.load();
  }

  /// Blocks until no request is in flight or `timeoutMs` elapsed; returns
  /// true when idle was reached.
  bool awaitIdle(int timeoutMs);

  /// Stops accepting, closes all open connections, joins the event loop,
  /// and waits for in-flight requests. Idempotent.
  void stop();

  [[nodiscard]] std::size_t openConnections() const;

  /// Effective network mode after any epoll->poll fallback (valid after
  /// start()): "epoll" or "poll".
  [[nodiscard]] const char* netName() const noexcept;

  /// Connections reclaimed by the reactor's idle sweep.
  [[nodiscard]] std::uint64_t idleClosedConnections() const noexcept {
    return reactor ? reactor->idleClosedTotal() : 0;
  }

  /// Attaches the incident log slow/error/deadline captures go to (must
  /// outlive the server; nullptr disables capture).
  void setIncidentLog(IncidentLog* log) noexcept { incidents = log; }

private:
  /// The full request pipeline: drain check, tracing scope, router
  /// dispatch, metrics, incident capture, access log. Transport concerns
  /// (write, close-after) stay with the caller.
  HttpResponse processRequest(const HttpRequest& request);
  /// Maps a transport-level parse failure to its error response
  /// (400/413/501) and counts it.
  HttpResponse parseFailureResponse(net::ParseStatus status);
  void logAccess(const obs::TraceContext& ctx, const HttpRequest& request,
                 const std::string& routeKey, int status, double ms,
                 std::size_t bytesOut);

  const ServerOptions options;
  Router& router;
  ServiceMetrics& metrics;

  int listenFd = -1;
  std::uint16_t boundPort = 0;
  std::atomic<bool> stopping{false};
  std::atomic<bool> drainingFlag{false};

  std::mutex connMutex;
  std::condition_variable connCv;
  std::size_t inFlight = 0; ///< requests currently executing a handler

  IncidentLog* incidents = nullptr;
  std::mutex accessLogMutex;
  std::ofstream accessLog;

  /// Declared before the pool on purpose: pool workers call
  /// reactor->complete() on their way out, so the reactor object must
  /// outlive the pool (it is destroyed after; complete() after stop() is a
  /// safe no-op).
  std::unique_ptr<net::Reactor> reactor;

  /// Declared last on purpose: the pool destructor joins the request
  /// workers, and they touch connMutex/connCv (and the reactor) on their
  /// way out — those members must still be alive when the workers finish.
  exec::ThreadPool pool;
};

} // namespace qdd::service
