#include "qdd/service/HttpServer.hpp"

#include "qdd/common/Json.hpp"
#include "qdd/obs/FlightRecorder.hpp"
#include "qdd/obs/Obs.hpp"
#include "qdd/service/Incidents.hpp"
#include "qdd/service/RequestContext.hpp"

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

namespace qdd::service {

NetMode defaultNetMode() {
  const char* env = std::getenv("QDD_NET");
  if (env != nullptr && std::string(env) == "poll") {
    return NetMode::Poll;
  }
  return NetMode::Epoll;
}

HttpServer::HttpServer(ServerOptions options, Router& router,
                       ServiceMetrics& metrics)
    : options(std::move(options)), router(router), metrics(metrics),
      pool(this->options.workers) {}

HttpServer::~HttpServer() { stop(); }

void HttpServer::start() {
  listenFd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listenFd < 0) {
    throw std::runtime_error("HttpServer: socket() failed");
  }
  const int one = 1;
  ::setsockopt(listenFd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options.port);
  if (::inet_pton(AF_INET, options.bindAddress.c_str(), &addr.sin_addr) !=
      1) {
    throw std::runtime_error("HttpServer: bad bind address '" +
                             options.bindAddress + "'");
  }
  if (::bind(listenFd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    throw std::runtime_error("HttpServer: cannot bind " +
                             options.bindAddress + ":" +
                             std::to_string(options.port) + ": " +
                             std::strerror(errno));
  }
  if (::listen(listenFd, 64) != 0) {
    throw std::runtime_error("HttpServer: listen() failed");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(listenFd, reinterpret_cast<sockaddr*>(&bound), &len);
  boundPort = ntohs(bound.sin_port);

  if (options.tracing) {
    // Arming is process-wide and sticky on purpose: rings record only while
    // a valid TraceContext is installed, and only tracing servers install
    // one — so arming costs untraced code paths nothing.
    obs::FlightRecorder::setArmed(true);
  }
  if (!options.accessLogPath.empty()) {
    accessLog.open(options.accessLogPath, std::ios::app);
  }

  net::ReactorOptions reactorOptions;
  reactorOptions.backend = options.net == NetMode::Poll
                               ? net::Backend::Poll
                               : net::Backend::Epoll;
  reactorOptions.idleTimeoutMs = options.idleTimeoutMs;
  reactorOptions.maxBodyBytes = options.maxBodyBytes;
  reactor = std::make_unique<net::Reactor>(
      reactorOptions,
      [this](std::uint64_t token, HttpRequest&& request) {
        // reactor thread: queue and return — the worker runs the pipeline
        // and hands the serialized bytes back for reactor-owned writeout
        pool.submit([this, token, request = std::move(request)]() mutable {
          HttpResponse response = processRequest(request);
          response.close = response.close || !request.keepAlive;
          reactor->complete(token, serializeHttpResponse(response),
                            response.close);
        });
      },
      [this](net::ParseStatus status) {
        return serializeHttpResponse(parseFailureResponse(status));
      });
  reactor->start(listenFd);
}

HttpResponse HttpServer::parseFailureResponse(net::ParseStatus status) {
  HttpResponse response;
  switch (status) {
  case net::ParseStatus::TooLarge:
    response = errorResponse(
        413, "payload_too_large",
        "request exceeds the " + std::to_string(options.maxBodyBytes) +
            "-byte body limit");
    break;
  case net::ParseStatus::Unsupported:
    response = errorResponse(501, "unsupported",
                             "Transfer-Encoding is not supported");
    break;
  default:
    response =
        errorResponse(400, "malformed_request", "unparseable HTTP request");
    break;
  }
  response.close = true;
  metrics.recordTransportError(response.status);
  return response;
}

HttpResponse HttpServer::processRequest(const HttpRequest& request) {
  if (drainingFlag.load(std::memory_order_relaxed) ||
      stopping.load(std::memory_order_relaxed)) {
    HttpResponse response = errorResponse(
        503, "draining", "server is draining; retry against a new server");
    response.close = true;
    // count before writing: once the client has the 503, the counters
    // already reflect it
    metrics.countDrainRejected();
    metrics.recordTransportError(503);
    return response;
  }

  {
    const std::lock_guard<std::mutex> lock(connMutex);
    ++inFlight;
  }

  // Request identity: continue the caller's trace (traceparent header,
  // fresh child span id) or start a new one. With tracing off the context
  // stays invalid, which turns every tracing hook below into a no-op.
  obs::TraceContext ctx;
  if (options.tracing) {
    const auto tp = request.headers.find("traceparent");
    if (tp == request.headers.end() ||
        !obs::TraceContext::parseTraceparent(tp->second, ctx)) {
      ctx = obs::TraceContext::make();
    } else {
      ctx.spanId = obs::TraceContext::nextId();
    }
  }

  const auto t0 = std::chrono::steady_clock::now();
  Router::Dispatch dispatched;
  {
    // Scope: the root span must close (and land in the flight ring)
    // before any incident capture below reads the ring.
    const obs::TraceScope traceScope(ctx);
    requestAnnotations().reset();
    obs::ScopedSpan rootSpan("service", "request", options.tracing);
    try {
      dispatched = router.dispatch(request);
    } catch (const std::exception& e) {
      dispatched.response = errorResponse(500, "internal_error", e.what());
    } catch (...) {
      dispatched.response =
          errorResponse(500, "internal_error", "unknown error");
    }
  }
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  const std::string routeKey = dispatched.pattern.empty()
                                   ? request.method + " " + request.path
                                   : request.method + " " + dispatched.pattern;
  const int status = dispatched.response.status;
  metrics.recordRequest(routeKey, status, ms);

  if (options.tracing) {
    dispatched.response.headers.emplace_back("traceparent",
                                             ctx.traceparent());
    if (incidents != nullptr) {
      const char* reason = nullptr;
      if (status >= 500) {
        reason = "error";
      } else if (status == 408) {
        reason = "deadline";
      } else if (options.slowRequestMs > 0. && ms >= options.slowRequestMs) {
        reason = "slow";
      }
      if (reason != nullptr) {
        incidents->capture(ctx, routeKey, status, ms,
                           requestAnnotations().sessionId, reason);
      }
    }
  }
  if (accessLog.is_open()) {
    logAccess(ctx, request, routeKey, status, ms,
              dispatched.response.body.size());
  }

  {
    const std::lock_guard<std::mutex> lock(connMutex);
    --inFlight;
  }
  connCv.notify_all();

  return std::move(dispatched.response);
}

void HttpServer::logAccess(const obs::TraceContext& ctx,
                           const HttpRequest& request,
                           const std::string& routeKey, int status, double ms,
                           std::size_t bytesOut) {
  const double wallMs =
      std::chrono::duration<double, std::milli>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  const RequestAnnotations& ann = requestAnnotations();

  std::string line = "{\"ts\":" + std::to_string(wallMs);
  if (ctx.valid()) {
    line += ",\"traceId\":\"" + ctx.traceIdHex() + "\"";
  }
  line += ",\"method\":\"" + json::escape(request.method) + "\"";
  line += ",\"route\":\"" + json::escape(routeKey) + "\"";
  line += ",\"status\":" + std::to_string(status);
  line += ",\"latencyMs\":" + std::to_string(ms);
  if (!ann.sessionId.empty()) {
    line += ",\"session\":\"" + json::escape(ann.sessionId) + "\"";
  }
  if (ann.hasNodeDelta) {
    line += ",\"ddNodeDelta\":" + std::to_string(ann.ddNodeDelta);
  }
  line += ",\"bytesOut\":" + std::to_string(bytesOut);
  line += "}\n";

  const std::lock_guard<std::mutex> lock(accessLogMutex);
  accessLog << line;
  accessLog.flush();
}

std::size_t HttpServer::openConnections() const {
  return reactor ? reactor->openConnections() : 0;
}

const char* HttpServer::netName() const noexcept {
  if (reactor && reactor->backend() == net::Backend::Poll) {
    return "poll";
  }
  return "epoll";
}

bool HttpServer::awaitIdle(int timeoutMs) {
  std::unique_lock<std::mutex> lock(connMutex);
  return connCv.wait_for(lock, std::chrono::milliseconds(timeoutMs),
                         [this] { return inFlight == 0; });
}

void HttpServer::stop() {
  if (stopping.exchange(true)) {
    return;
  }
  if (reactor) {
    // Closes every connection and joins the event loop; pool workers still
    // in flight call complete() into the void (safe no-op), and the wait
    // below lets their pipelines finish before the caller reads metrics.
    reactor->stop();
  }
  if (listenFd >= 0) {
    ::close(listenFd);
    listenFd = -1;
  }
  std::unique_lock<std::mutex> lock(connMutex);
  connCv.wait_for(lock, std::chrono::seconds(10),
                  [this] { return inFlight == 0; });
}

} // namespace qdd::service
