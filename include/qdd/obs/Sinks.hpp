#pragma once

// Concrete sinks for the qdd::obs registry (see Obs.hpp):
//   * ChromeTraceSink — buffers records and exports one Chrome trace-event
//     JSON document loadable by chrome://tracing and ui.perfetto.dev;
//   * AggregatorSink — in-memory per-operation latency histograms
//     (p50/p95/p99) and the per-simulation-step DD metrics time series.

#include "qdd/obs/Obs.hpp"

#include <cstddef>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace qdd::obs {

/// Buffers spans/counters/steps and serializes them as Chrome trace events.
/// Spans become complete ("X") events whose nesting Perfetto reconstructs
/// from interval containment; counters and per-step metrics become counter
/// ("C") tracks plus one instant ("i") event per step carrying the full
/// metrics as args. Events are emitted sorted by timestamp (ties: the longer
/// — i.e. enclosing — span first), so `ts` is monotonically non-decreasing.
/// Every event carries the registry thread id as its `tid`, giving one track
/// per worker thread; thread labels registered via
/// Registry::labelCurrentThread are exported as `thread_name` metadata.
class ChromeTraceSink : public Sink {
public:
  void onSpan(const SpanRecord& span) override;
  void onCounter(const CounterRecord& counter) override;
  void onStep(const StepMetrics& step) override;

  /// Embeds a pre-serialized stats JSON document (mem::StatsRegistry::toJson)
  /// verbatim as the top-level "qddStats" member of the export.
  void setStatsJson(std::string json) { statsJson = std::move(json); }

  /// Number of buffered events (spans + counters + step instants).
  [[nodiscard]] std::size_t eventCount() const noexcept {
    return events.size();
  }

  /// Serializes the whole trace as one JSON document.
  [[nodiscard]] std::string toJson() const;
  /// Writes the trace to `path`; throws std::runtime_error on IO failure.
  void writeFile(const std::string& path) const;

private:
  struct Event {
    char phase = 'X'; ///< 'X' complete span, 'C' counter, 'i' instant
    std::string name;
    std::string category;
    double tsUs = 0.;
    double durUs = 0.; ///< 'X' only
    std::uint32_t tid = 0;
    std::vector<Arg> args;
  };

  std::vector<Event> events;
  std::string statsJson;
};

/// Latency percentiles of one span population (category/name pair).
struct LatencySummary {
  std::size_t count = 0;
  double totalUs = 0.;
  double p50Us = 0.;
  double p95Us = 0.;
  double p99Us = 0.;
  double maxUs = 0.;
};

/// Aggregates spans into per-operation latency histograms and keeps the
/// per-step DD metrics series. Everything stays in memory; call the getters
/// after the run (or at any point in between). Recording and the summary
/// getters (percentileUs/summary/keys/peakStepNodes/summaryTable/toJson)
/// are mutually thread-safe, so a live /metrics endpoint can read while
/// workers record; the raw series accessors steps()/gcPausesUs() return
/// references and must not be iterated concurrently with recording.
class AggregatorSink : public Sink {
public:
  void onSpan(const SpanRecord& span) override;
  void onStep(const StepMetrics& step) override;

  /// Nearest-rank percentile (p in [0, 100]) over the samples recorded for
  /// `key` ("category/name"). Returns 0 for unknown keys.
  [[nodiscard]] double percentileUs(const std::string& key, double p) const;
  /// Summary of one span population; zeroed for unknown keys.
  [[nodiscard]] LatencySummary summary(const std::string& key) const;
  /// All keys with at least one sample, sorted.
  [[nodiscard]] std::vector<std::string> keys() const;

  [[nodiscard]] const std::vector<StepMetrics>& steps() const noexcept {
    return stepSeries;
  }
  /// Peak transient DD size over all recorded steps.
  [[nodiscard]] std::size_t peakStepNodes() const noexcept;
  /// Durations of every "dd/gc" span — the GC pause series.
  [[nodiscard]] const std::vector<double>& gcPausesUs() const noexcept {
    return gcPauses;
  }

  /// Human-readable profile table (count, total, p50/p95/p99, max per key).
  [[nodiscard]] std::string summaryTable() const;
  /// Single-line JSON rendering of all summaries + step-series aggregates
  /// (used by the BENCH_PROFILE bench records).
  [[nodiscard]] std::string toJson() const;

private:
  static constexpr std::size_t MAX_SAMPLES = 1U << 20U;

  /// Hot-path cache: span category/name are string literals, so their
  /// address pair identifies a population without building the "cat/name"
  /// string key on every record. Distinct literal addresses with equal text
  /// (e.g. the same span name in two translation units) resolve to the same
  /// canonical bucket on first use.
  struct Bucket {
    std::vector<double>* durations = nullptr;
    bool isGc = false;
  };
  Bucket& resolve(const SpanRecord& span);

  /// Recursive because the public getters compose (summary -> percentileUs,
  /// toJson -> keys/summary); all of them are cold paths.
  mutable std::recursive_mutex mutex;
  std::map<std::pair<const void*, const void*>, Bucket> buckets;
  std::map<std::string, std::vector<double>> samples;
  std::vector<StepMetrics> stepSeries;
  std::vector<double> gcPauses;
};

} // namespace qdd::obs
