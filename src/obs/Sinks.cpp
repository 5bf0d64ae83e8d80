#include "qdd/obs/Sinks.hpp"

#include "qdd/common/Json.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace qdd::obs {

namespace {

/// Trace and stats numbers: nine significant digits, null when not finite.
std::string formatDouble(double v) {
  std::string out;
  json::appendNumber(out, v, 9);
  return out;
}

void appendArg(std::string& out, const Arg& a) {
  out += '"';
  out += json::escape(a.key);
  out += "\":";
  switch (a.kind) {
  case Arg::Kind::UInt:
    out += std::to_string(a.u);
    break;
  case Arg::Kind::Double:
    out += formatDouble(a.d);
    break;
  case Arg::Kind::Str:
    out += '"';
    out += json::escape(a.s);
    out += '"';
    break;
  }
}

std::string argsJson(const std::vector<Arg>& args) {
  std::string out = "{";
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    appendArg(out, args[i]);
  }
  out += '}';
  return out;
}

std::vector<Arg> stepArgs(const StepMetrics& step) {
  std::vector<Arg> args;
  args.push_back(Arg::uintArg("index", step.index));
  args.push_back(Arg::strArg("op", step.op));
  args.push_back(Arg::uintArg("nodes", step.nodes));
  args.push_back(Arg::uintArg("cacheLookups", step.cacheLookups));
  args.push_back(Arg::uintArg("cacheHits", step.cacheHits));
  args.push_back(Arg::doubleArg("cacheHitRatioDelta", step.cacheHitRatioDelta));
  args.push_back(Arg::uintArg("realEntries", step.realEntries));
  args.push_back(Arg::uintArg("gcRuns", step.gcRuns));
  args.push_back(Arg::doubleArg("durUs", step.durUs));
  return args;
}

/// 32-hex-char trace id, empty when none was attached.
std::string traceHex(std::uint64_t hi, std::uint64_t lo) {
  if ((hi | lo) == 0) {
    return {};
  }
  TraceContext ctx;
  ctx.traceHi = hi;
  ctx.traceLo = lo;
  return ctx.traceIdHex();
}

std::string levelsJson(const std::vector<std::size_t>& nodesPerLevel) {
  std::string out = "[";
  for (std::size_t i = 0; i < nodesPerLevel.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    out += std::to_string(nodesPerLevel[i]);
  }
  out += ']';
  return out;
}

} // namespace

// --- ChromeTraceSink --------------------------------------------------------

void ChromeTraceSink::onSpan(const SpanRecord& span) {
  Event e;
  e.phase = 'X';
  e.name = span.name;
  e.category = span.category;
  e.tsUs = span.startUs;
  e.durUs = span.durUs;
  e.tid = span.tid;
  e.args = span.args;
  const std::string trace = traceHex(span.traceHi, span.traceLo);
  if (!trace.empty()) {
    e.args.push_back(Arg::strArg("trace_id", trace));
  }
  events.push_back(std::move(e));
}

void ChromeTraceSink::onCounter(const CounterRecord& counter) {
  Event e;
  e.phase = 'C';
  e.name = counter.name;
  e.category = "counter";
  e.tsUs = counter.tsUs;
  e.tid = counter.tid;
  e.args.push_back(Arg::doubleArg("value", counter.value));
  events.push_back(std::move(e));
}

void ChromeTraceSink::onStep(const StepMetrics& step) {
  // Counter tracks give Perfetto plottable time series ...
  const std::array<std::pair<const char*, double>, 4> tracks{{
      {"dd.nodes", static_cast<double>(step.nodes)},
      {"dd.cacheHitRatio", step.cacheHitRatioDelta},
      {"dd.realEntries", static_cast<double>(step.realEntries)},
      {"dd.gcRuns", static_cast<double>(step.gcRuns)},
  }};
  for (const auto& [name, value] : tracks) {
    Event c;
    c.phase = 'C';
    c.name = name;
    c.category = "counter";
    c.tsUs = step.tsUs;
    c.tid = step.tid;
    c.args.push_back(Arg::doubleArg("value", value));
    events.push_back(std::move(c));
  }
  // ... and one instant event carries the full per-step metrics as args,
  // including the active-nodes-per-level breakdown (serialized as a string
  // arg since trace-event args are flat).
  Event e;
  e.phase = 'i';
  e.name = "sim.step";
  e.category = "sim";
  e.tsUs = step.tsUs;
  e.tid = step.tid;
  e.args = stepArgs(step);
  e.args.push_back(Arg::strArg("nodesPerLevel", levelsJson(step.nodesPerLevel)));
  events.push_back(std::move(e));
}

std::string ChromeTraceSink::toJson() const {
  std::vector<const Event*> ordered;
  ordered.reserve(events.size());
  for (const auto& e : events) {
    ordered.push_back(&e);
  }
  // Monotonic ts; at equal ts the longer (enclosing) span comes first so
  // viewers open parents before children.
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const Event* a, const Event* b) {
                     if (a->tsUs != b->tsUs) {
                       return a->tsUs < b->tsUs;
                     }
                     return a->durUs > b->durUs;
                   });

  std::string out = "{\"traceEvents\":[\n";
  bool first = true;

  // One `thread_name` metadata event per known thread, so viewers label the
  // per-thread tracks. Labels come from Registry::labelCurrentThread; tid 0
  // (the first thread that ever recorded) defaults to "main".
  std::vector<std::pair<std::uint32_t, std::string>> names =
      Registry::instance().threadLabels();
  const bool tidZeroLabeled =
      std::any_of(names.begin(), names.end(),
                  [](const auto& p) { return p.first == 0; });
  if (!tidZeroLabeled) {
    names.emplace_back(0, "main");
  }
  std::sort(names.begin(), names.end());
  for (const auto& [tid, label] : names) {
    if (!first) {
      out += ",\n";
    }
    first = false;
    out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":";
    out += std::to_string(tid);
    out += ",\"args\":{\"name\":\"";
    out += json::escape(label);
    out += "\"}}";
  }

  for (const Event* e : ordered) {
    if (!first) {
      out += ",\n";
    }
    first = false;
    out += "{\"name\":\"";
    out += json::escape(e->name);
    out += "\",\"cat\":\"";
    out += json::escape(e->category);
    out += "\",\"ph\":\"";
    out += e->phase;
    out += "\",\"pid\":1,\"tid\":";
    out += std::to_string(e->tid);
    out += ",\"ts\":";
    out += formatDouble(e->tsUs);
    if (e->phase == 'X') {
      out += ",\"dur\":";
      out += formatDouble(e->durUs);
    }
    if (e->phase == 'i') {
      out += ",\"s\":\"t\"";
    }
    if (!e->args.empty()) {
      out += ",\"args\":";
      out += argsJson(e->args);
    }
    out += '}';
  }
  out += "\n],\"displayTimeUnit\":\"ms\"";
  if (!statsJson.empty()) {
    out += ",\"qddStats\":";
    out += statsJson;
  }
  out += "}\n";
  return out;
}

void ChromeTraceSink::writeFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot open trace file for writing: " + path);
  }
  out << toJson();
  out.flush();
  if (!out) {
    throw std::runtime_error("failed writing trace file: " + path);
  }
}

// --- AggregatorSink ---------------------------------------------------------

AggregatorSink::Bucket& AggregatorSink::resolve(const SpanRecord& span) {
  Bucket& bucket = buckets[{span.category, span.name}];
  if (bucket.durations == nullptr) {
    const std::string key = std::string(span.category) + "/" + span.name;
    // std::map nodes are stable, so the vector address survives inserts
    bucket.durations = &samples[key];
    bucket.isGc = key == "dd/gc";
  }
  return bucket;
}

void AggregatorSink::onSpan(const SpanRecord& span) {
  const std::lock_guard<std::recursive_mutex> lock(mutex);
  const Bucket& bucket = resolve(span);
  if (bucket.durations->size() < MAX_SAMPLES) {
    bucket.durations->push_back(span.durUs);
  }
  if (bucket.isGc && gcPauses.size() < MAX_SAMPLES) {
    gcPauses.push_back(span.durUs);
  }
}

void AggregatorSink::onStep(const StepMetrics& step) {
  const std::lock_guard<std::recursive_mutex> lock(mutex);
  stepSeries.push_back(step);
}

double AggregatorSink::percentileUs(const std::string& key, double p) const {
  const std::lock_guard<std::recursive_mutex> lock(mutex);
  const auto it = samples.find(key);
  if (it == samples.end() || it->second.empty()) {
    return 0.;
  }
  std::vector<double> sorted = it->second;
  std::sort(sorted.begin(), sorted.end());
  // nearest-rank: smallest value such that at least p% of samples are <= it
  const double clamped = std::min(std::max(p, 0.), 100.);
  const auto n = sorted.size();
  std::size_t rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(clamped / 100. * static_cast<double>(n))));
  rank = std::min(rank, n);
  return sorted[rank - 1];
}

LatencySummary AggregatorSink::summary(const std::string& key) const {
  const std::lock_guard<std::recursive_mutex> lock(mutex);
  LatencySummary s;
  const auto it = samples.find(key);
  if (it == samples.end() || it->second.empty()) {
    return s;
  }
  s.count = it->second.size();
  for (const double d : it->second) {
    s.totalUs += d;
    s.maxUs = std::max(s.maxUs, d);
  }
  s.p50Us = percentileUs(key, 50.);
  s.p95Us = percentileUs(key, 95.);
  s.p99Us = percentileUs(key, 99.);
  return s;
}

std::vector<std::string> AggregatorSink::keys() const {
  const std::lock_guard<std::recursive_mutex> lock(mutex);
  std::vector<std::string> out;
  out.reserve(samples.size());
  for (const auto& [key, bucket] : samples) {
    if (!bucket.empty()) {
      out.push_back(key);
    }
  }
  return out;
}

std::size_t AggregatorSink::peakStepNodes() const noexcept {
  const std::lock_guard<std::recursive_mutex> lock(mutex);
  std::size_t peak = 0;
  for (const auto& step : stepSeries) {
    peak = std::max(peak, step.nodes);
  }
  return peak;
}

std::string AggregatorSink::summaryTable() const {
  const std::lock_guard<std::recursive_mutex> lock(mutex);
  std::ostringstream out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-24s %8s %12s %10s %10s %10s %10s\n",
                "span", "count", "total ms", "p50 us", "p95 us", "p99 us",
                "max us");
  out << line;
  out << std::string(90, '-') << "\n";
  for (const auto& key : keys()) {
    const LatencySummary s = summary(key);
    std::snprintf(line, sizeof(line),
                  "%-24s %8zu %12.3f %10.1f %10.1f %10.1f %10.1f\n",
                  key.c_str(), s.count, s.totalUs / 1000., s.p50Us, s.p95Us,
                  s.p99Us, s.maxUs);
    out << line;
  }
  if (!stepSeries.empty()) {
    double gcTotal = 0.;
    for (const double p : gcPauses) {
      gcTotal += p;
    }
    std::snprintf(line, sizeof(line),
                  "steps: %zu   peak transient DD: %zu nodes   GC pauses: "
                  "%zu (%.3f ms total)\n",
                  stepSeries.size(), peakStepNodes(), gcPauses.size(),
                  gcTotal / 1000.);
    out << line;
  }
  return out.str();
}

std::string AggregatorSink::toJson() const {
  const std::lock_guard<std::recursive_mutex> lock(mutex);
  std::string out = "{\"spans\":{";
  bool first = true;
  for (const auto& key : keys()) {
    const LatencySummary s = summary(key);
    if (!first) {
      out += ',';
    }
    first = false;
    out += '"';
    out += json::escape(key);
    out += "\":{\"count\":" + std::to_string(s.count);
    out += ",\"totalUs\":" + formatDouble(s.totalUs);
    out += ",\"p50Us\":" + formatDouble(s.p50Us);
    out += ",\"p95Us\":" + formatDouble(s.p95Us);
    out += ",\"p99Us\":" + formatDouble(s.p99Us);
    out += ",\"maxUs\":" + formatDouble(s.maxUs);
    out += '}';
  }
  out += "},\"steps\":" + std::to_string(stepSeries.size());
  out += ",\"peakStepNodes\":" + std::to_string(peakStepNodes());
  double gcTotal = 0.;
  for (const double p : gcPauses) {
    gcTotal += p;
  }
  out += ",\"gcPauses\":" + std::to_string(gcPauses.size());
  out += ",\"gcPauseTotalUs\":" + formatDouble(gcTotal);
  out += '}';
  return out;
}

} // namespace qdd::obs
