#include "qdd/obs/TraceCheck.hpp"

#include "qdd/common/Json.hpp"

#include <map>
#include <vector>

namespace qdd::obs {

namespace {

bool isNumber(const json::Value* v) { return v != nullptr && v->isNumber(); }
bool isString(const json::Value* v) { return v != nullptr && v->isString(); }

TraceCheckResult failure(std::string error) {
  TraceCheckResult r;
  r.error = std::move(error);
  return r;
}

/// The checks of validateChromeTrace() on a parsed document.
TraceCheckResult checkChromeTrace(const json::Value& root,
                                  bool requireStepMetrics) {
  if (!root.isObject()) {
    return failure("top-level value is not an object");
  }
  const json::Value* eventsVal = root.find("traceEvents");
  if (eventsVal == nullptr || !eventsVal->isArray()) {
    return failure("missing \"traceEvents\" array");
  }
  const std::vector<json::Value>& events = eventsVal->asArray();

  TraceCheckResult result;
  const json::Value* stats = root.find("qddStats");
  result.hasStats = stats != nullptr && stats->isObject();

  double lastTs = -1.;
  // Open "X" spans as (start, end) intervals, tracked per thread id: spans
  // on different worker tracks legitimately overlap in wall time, but within
  // one track each span must begin after the start of — and end within —
  // every still-open enclosing span.
  std::map<double, std::vector<std::pair<double, double>>> openSpansPerTid;
  bool sawStepMetrics = false;

  for (std::size_t i = 0; i < events.size(); ++i) {
    const json::Value& ev = events[i];
    const std::string at = "event " + std::to_string(i);
    if (!ev.isObject()) {
      return failure(at + ": not an object");
    }
    const json::Value* name = ev.find("name");
    const json::Value* phase = ev.find("ph");
    const json::Value* ts = ev.find("ts");
    if (!isString(name) || !isString(phase)) {
      return failure(at + ": missing name/ph");
    }
    const std::string& ph = phase->asString();
    if (ph == "M") {
      // Metadata events (thread_name, process_name, ...) carry no timestamp.
      ++result.events;
      ++result.metadata;
      continue;
    }
    if (!isNumber(ts)) {
      return failure(at + ": missing name/ph/ts");
    }
    if (ts->asNumber() < lastTs) {
      return failure(at + ": ts not monotonically non-decreasing");
    }
    lastTs = ts->asNumber();
    ++result.events;
    const double track = ev.getNumber("tid", 0.);

    if (ph == "X") {
      const json::Value* dur = ev.find("dur");
      if (!isNumber(dur) || dur->asNumber() < 0.) {
        return failure(at + ": \"X\" event without non-negative dur");
      }
      const double start = ts->asNumber();
      const double end = start + dur->asNumber();
      auto& openSpans = openSpansPerTid[track];
      while (!openSpans.empty() && openSpans.back().second <= start) {
        openSpans.pop_back();
      }
      if (!openSpans.empty() && end > openSpans.back().second) {
        return failure(at + ": span overlaps but is not nested in its parent");
      }
      openSpans.emplace_back(start, end);
      ++result.spans;
    } else if (ph == "C") {
      ++result.counters;
    } else if (ph == "i" && name->asString() == "sim.step") {
      ++result.stepInstants;
      const json::Value* args = ev.find("args");
      if (args != nullptr && isNumber(args->find("nodes")) &&
          isNumber(args->find("cacheHitRatioDelta")) &&
          isNumber(args->find("gcRuns")) &&
          isString(args->find("nodesPerLevel"))) {
        sawStepMetrics = true;
      }
    }
  }

  if (result.spans == 0) {
    return failure("trace contains no \"X\" span events");
  }
  if (requireStepMetrics && !sawStepMetrics) {
    return failure("no \"sim.step\" instant with per-step DD metric args "
                   "(nodes, cacheHitRatioDelta, gcRuns, nodesPerLevel)");
  }
  result.valid = true;
  return result;
}

} // namespace

TraceCheckResult validateChromeTrace(const std::string& text,
                                     bool requireStepMetrics) {
  try {
    return checkChromeTrace(json::Value::parse(text), requireStepMetrics);
  } catch (const json::ParseError& e) {
    return failure(e.what());
  }
}

TraceCheckResult validateIncidentTrace(const std::string& text) {
  json::Value root;
  try {
    root = json::Value::parse(text);
  } catch (const json::ParseError& e) {
    return failure(e.what());
  }
  TraceCheckResult result = checkChromeTrace(root, false);
  if (!result.valid) {
    return result;
  }
  const json::Value* traceId = root.find("traceId");
  if (!isString(traceId)) {
    return failure("incident dump missing top-level \"traceId\"");
  }
  const std::string& id = traceId->asString();
  if (id.size() != 32) {
    return failure("\"traceId\" is not 32 hex digits: \"" + id + "\"");
  }
  bool nonzero = false;
  for (const char c : id) {
    const bool hex = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
    if (!hex) {
      return failure("\"traceId\" is not lowercase hex: \"" + id + "\"");
    }
    nonzero = nonzero || c != '0';
  }
  if (!nonzero) {
    return failure("\"traceId\" is all-zero");
  }
  const std::vector<json::Value>& events = root.find("traceEvents")->asArray();
  for (std::size_t i = 0; i < events.size(); ++i) {
    const json::Value& ev = events[i];
    if (ev.getString("ph", "") != "X") {
      continue;
    }
    const json::Value* args = ev.find("args");
    const json::Value* spanTrace =
        args != nullptr ? args->find("trace_id") : nullptr;
    if (!isString(spanTrace)) {
      return failure("event " + std::to_string(i) +
                     ": span without args.trace_id");
    }
    if (spanTrace->asString() != id) {
      return failure("event " + std::to_string(i) + ": trace_id \"" +
                     spanTrace->asString() + "\" differs from incident \"" +
                     id + "\"");
    }
  }
  return result;
}

} // namespace qdd::obs
