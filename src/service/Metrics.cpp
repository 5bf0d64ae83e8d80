#include "qdd/service/Metrics.hpp"

#include "qdd/common/NumberFormat.hpp"

#include <algorithm>

namespace qdd::service {

namespace prom {

std::string escapeLabel(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
    case '\\':
      out += "\\\\";
      break;
    case '"':
      out += "\\\"";
      break;
    case '\n':
      out += "\\n";
      break;
    default:
      out += c;
      break;
    }
  }
  return out;
}

void family(std::string& out, const char* name, const char* type,
            const char* help) {
  out += "# HELP ";
  out += name;
  out += ' ';
  out += help;
  out += "\n# TYPE ";
  out += name;
  out += ' ';
  out += type;
  out += '\n';
}

void sample(std::string& out, const char* name, const std::string& labels,
            double value) {
  out += name;
  if (!labels.empty()) {
    out += '{';
    out += labels;
    out += '}';
  }
  out += ' ';
  appendGeneral(out, value, 9);
  out += '\n';
}

} // namespace prom

void ServiceMetrics::recordRequest(const std::string& pattern, int status,
                                   double ms) {
  const std::lock_guard<std::mutex> lock(mutex);
  ++total;
  ++byStatus[status];
  Route& route = routes[pattern];
  ++route.count;
  route.totalMs += ms;
  route.maxMs = std::max(route.maxMs, ms);
  route.latency.record(ms);
  allRoutes.record(ms);
}

void ServiceMetrics::recordTransportError(int status) {
  const std::lock_guard<std::mutex> lock(mutex);
  ++total;
  ++byStatus[status];
}

std::size_t ServiceMetrics::requests() const {
  const std::lock_guard<std::mutex> lock(mutex);
  return total;
}

std::size_t ServiceMetrics::statusCount(int status) const {
  const std::lock_guard<std::mutex> lock(mutex);
  const auto it = byStatus.find(status);
  return it == byStatus.end() ? 0 : it->second;
}

std::size_t ServiceMetrics::deadlineTimeouts() const {
  const std::lock_guard<std::mutex> lock(mutex);
  return deadlineTimeoutsN;
}

std::size_t ServiceMetrics::sessionsCreated() const {
  const std::lock_guard<std::mutex> lock(mutex);
  return sessionsCreatedN;
}

std::size_t ServiceMetrics::drainRejected() const {
  const std::lock_guard<std::mutex> lock(mutex);
  return drainRejectedN;
}

json::Value ServiceMetrics::toJson() const {
  const std::lock_guard<std::mutex> lock(mutex);
  json::Value doc = json::Value::object();
  doc.set("requests", json::Value::number(static_cast<double>(total)));

  json::Value statuses = json::Value::object();
  for (const auto& [status, count] : byStatus) {
    statuses.set(std::to_string(status),
                 json::Value::number(static_cast<double>(count)));
  }
  doc.set("byStatus", std::move(statuses));

  json::Value routeDoc = json::Value::object();
  for (const auto& [pattern, route] : routes) {
    json::Value r = json::Value::object();
    r.set("count", json::Value::number(static_cast<double>(route.count)));
    r.set("totalMs", json::Value::number(route.totalMs));
    r.set("maxMs", json::Value::number(route.maxMs));
    // histogram estimates — O(buckets), no sample copies under the lock
    r.set("p50Ms", json::Value::number(route.latency.quantile(0.50)));
    r.set("p95Ms", json::Value::number(route.latency.quantile(0.95)));
    routeDoc.set(pattern, std::move(r));
  }
  doc.set("routes", std::move(routeDoc));

  doc.set("sessionsCreated",
          json::Value::number(static_cast<double>(sessionsCreatedN)));
  doc.set("deadlineTimeouts",
          json::Value::number(static_cast<double>(deadlineTimeoutsN)));
  doc.set("drainRejected",
          json::Value::number(static_cast<double>(drainRejectedN)));
  return doc;
}

std::string ServiceMetrics::prometheus() const {
  const std::lock_guard<std::mutex> lock(mutex);
  std::string out;
  out.reserve(8192);

  prom::family(out, "qdd_http_requests_total", "counter",
               "HTTP requests observed (routed and transport errors).");
  prom::sample(out, "qdd_http_requests_total", "",
               static_cast<double>(total));

  prom::family(out, "qdd_http_responses_total", "counter",
               "Responses by HTTP status code.");
  for (const auto& [status, count] : byStatus) {
    prom::sample(out, "qdd_http_responses_total",
                 "status=\"" + std::to_string(status) + "\"",
                 static_cast<double>(count));
  }

  prom::family(out, "qdd_http_route_requests_total", "counter",
               "Routed requests by route pattern.");
  for (const auto& [pattern, route] : routes) {
    prom::sample(out, "qdd_http_route_requests_total",
                 "route=\"" + prom::escapeLabel(pattern) + "\"",
                 static_cast<double>(route.count));
  }

  prom::family(out, "qdd_http_route_latency_ms", "gauge",
               "Per-route latency summary (histogram estimate), ms.");
  for (const auto& [pattern, route] : routes) {
    const std::string base = "route=\"" + prom::escapeLabel(pattern) + "\"";
    prom::sample(out, "qdd_http_route_latency_ms", base + ",stat=\"p50\"",
                 route.latency.quantile(0.50));
    prom::sample(out, "qdd_http_route_latency_ms", base + ",stat=\"p95\"",
                 route.latency.quantile(0.95));
    prom::sample(out, "qdd_http_route_latency_ms", base + ",stat=\"max\"",
                 route.maxMs);
  }

  // Aggregate latency histogram in seconds with cumulative `le` buckets.
  prom::family(out, "qdd_http_request_duration_seconds", "histogram",
               "Request latency across all routes.");
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < LatencyHistogram::BUCKETS; ++i) {
    cum += allRoutes.bucketCounts()[i];
    std::string le = "le=\"";
    appendGeneral(le, LatencyHistogram::upperBoundMs(i) / 1000., 9);
    le += '"';
    prom::sample(out, "qdd_http_request_duration_seconds_bucket", le,
                 static_cast<double>(cum));
  }
  prom::sample(out, "qdd_http_request_duration_seconds_bucket", "le=\"+Inf\"",
               static_cast<double>(allRoutes.count()));
  prom::sample(out, "qdd_http_request_duration_seconds_sum", "",
               allRoutes.sumMs() / 1000.);
  prom::sample(out, "qdd_http_request_duration_seconds_count", "",
               static_cast<double>(allRoutes.count()));

  prom::family(out, "qdd_sessions_created_total", "counter",
               "Sessions ever created.");
  prom::sample(out, "qdd_sessions_created_total", "",
               static_cast<double>(sessionsCreatedN));
  prom::family(out, "qdd_deadline_timeouts_total", "counter",
               "Requests stopped by an expired deadline (408).");
  prom::sample(out, "qdd_deadline_timeouts_total", "",
               static_cast<double>(deadlineTimeoutsN));
  prom::family(out, "qdd_drain_rejected_total", "counter",
               "Requests rejected while draining (503).");
  prom::sample(out, "qdd_drain_rejected_total", "",
               static_cast<double>(drainRejectedN));
  return out;
}

} // namespace qdd::service
