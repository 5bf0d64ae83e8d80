#pragma once

// qdd::service — request/session counters behind one mutex. The service
// keeps its own metrics (independent of the optional qdd::obs registry) so
// /metrics always works and tests can assert on exact counter values:
// deadline cancellations, drain rejections, eviction counts.
//
// Latency is tracked in fixed log-spaced histograms (Histogram.hpp), one
// per route plus one aggregate: bounded memory under unbounded request
// counts, and /metrics summaries come from an O(buckets) scan instead of
// copying and sorting sample vectors under the lock — a scrape never
// stalls the request path.

#include "qdd/service/Histogram.hpp"
#include "qdd/service/Json.hpp"

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace qdd::service {

class ServiceMetrics {
public:
  /// Records one routed request (pattern is the matched route, e.g.
  /// "/v1/sessions/{id}/step", so metrics aggregate per route).
  void recordRequest(const std::string& pattern, int status, double ms);
  /// Records a transport-level rejection (malformed / oversize / 501).
  void recordTransportError(int status);

  void countSessionCreated() { bump(sessionsCreatedN); }
  void countDeadlineTimeout() { bump(deadlineTimeoutsN); }
  void countDrainRejected() { bump(drainRejectedN); }

  [[nodiscard]] std::size_t requests() const;
  [[nodiscard]] std::size_t statusCount(int status) const;
  [[nodiscard]] std::size_t deadlineTimeouts() const;
  [[nodiscard]] std::size_t sessionsCreated() const;
  [[nodiscard]] std::size_t drainRejected() const;

  /// Full snapshot:
  /// {"requests":n,"byStatus":{...},"routes":{pattern:{count,totalMs,maxMs,
  ///  p50Ms,p95Ms}},"sessionsCreated":...,"deadlineTimeouts":...,
  ///  "drainRejected":...}. Api::metricsDoc adds "sessionsEvicted" from the
  /// session store, which does the evicting.
  [[nodiscard]] json::Value toJson() const;

  /// Prometheus text exposition of everything this object owns: request /
  /// status / route counters, the aggregate latency histogram (cumulative
  /// `le` buckets, in seconds per Prometheus convention), per-route latency
  /// summary gauges, and the service counters. Api::metricsDoc appends the
  /// session-store and DD-package gauges it alone can see.
  [[nodiscard]] std::string prometheus() const;

private:
  struct Route {
    std::size_t count = 0;
    double totalMs = 0.;
    double maxMs = 0.;
    LatencyHistogram latency;
  };

  void bump(std::size_t& counter) {
    const std::lock_guard<std::mutex> lock(mutex);
    ++counter;
  }

  mutable std::mutex mutex;
  std::size_t total = 0;
  std::map<int, std::size_t> byStatus;
  std::map<std::string, Route> routes;
  LatencyHistogram allRoutes; ///< aggregate over every routed request
  std::size_t sessionsCreatedN = 0;
  std::size_t deadlineTimeoutsN = 0;
  std::size_t drainRejectedN = 0;
};

/// Helpers shared by the Prometheus emitters in Metrics.cpp and Api.cpp.
namespace prom {

/// Escapes a label value (backslash, quote, newline).
[[nodiscard]] std::string escapeLabel(const std::string& value);
/// Appends "# HELP name help\n# TYPE name type\n".
void family(std::string& out, const char* name, const char* type,
            const char* help);
/// Appends one sample line: name{labels} value. `labels` is the raw
/// rendered label list without braces ("" for none); the value has nine
/// significant digits (qdd::appendGeneral).
void sample(std::string& out, const char* name, const std::string& labels,
            double value);

} // namespace prom

} // namespace qdd::service
