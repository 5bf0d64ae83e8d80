#pragma once

// Structural validator for Chrome trace-event JSON documents produced by
// ChromeTraceSink (and, conservatively, by anything emitting the trace-event
// format). Used by tests, by the `qdd-trace-check` CLI, and by CI smoke runs.

#include <string>

namespace qdd::obs {

/// What `validateChromeTrace` found; all counts refer to the traceEvents
/// array of the validated document.
struct TraceCheckResult {
  bool valid = false;
  std::string error; ///< empty when valid
  std::size_t events = 0;
  std::size_t spans = 0;        ///< "X" events
  std::size_t counters = 0;     ///< "C" events
  std::size_t stepInstants = 0; ///< "i" events named "sim.step"
  std::size_t metadata = 0;     ///< "M" events (thread_name, ...)
  bool hasStats = false;        ///< top-level "qddStats" object present
};

/// Checks that `text` parses with the package's strict JSON parser
/// (qdd::json::Value::parse), has a "traceEvents" array whose
/// elements all carry name/ph (plus ts for everything except "M" metadata
/// events, and dur for "X" events), that `ts` is monotonically non-decreasing
/// in array order, and that "X" spans observe per-thread stack discipline:
/// within one `tid` track each span is either disjoint from or fully
/// contained in the enclosing open span (tracks of different threads may
/// overlap freely). With `requireStepMetrics`, at least one "sim.step"
/// instant must carry the per-step DD metric args (nodes,
/// cacheHitRatioDelta, nodesPerLevel, gcRuns).
TraceCheckResult validateChromeTrace(const std::string& text,
                                     bool requireStepMetrics = false);

/// Checks a flight-recorder incident dump (GET /v1/incidents/{id}): the
/// document must pass `validateChromeTrace`, carry a top-level "traceId"
/// that is 32 lowercase hex digits and not all-zero, and every "X" span's
/// args.trace_id must equal it — one incident is exactly one trace.
TraceCheckResult validateIncidentTrace(const std::string& text);

} // namespace qdd::obs
