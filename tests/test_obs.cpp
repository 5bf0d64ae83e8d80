// Tests for the observability subsystem (qdd::obs): RAII span nesting
// (including exception unwinding), the disabled-mode no-op guarantee, the
// Chrome trace exporter and its validator, the aggregator's percentiles,
// the JSONL sink, and per-step DD metrics captured by a real simulation.

#include "qdd/exec/ThreadPool.hpp"
#include "qdd/ir/Builders.hpp"
#include "qdd/obs/FlightRecorder.hpp"
#include "qdd/obs/Obs.hpp"
#include "qdd/obs/Sinks.hpp"
#include "qdd/obs/TraceCheck.hpp"
#include "qdd/obs/TraceContext.hpp"
#include "qdd/sim/SimulationSession.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace qdd {
namespace {

/// Collects raw records for assertions.
class RecordingSink : public obs::Sink {
public:
  void onSpan(const obs::SpanRecord& span) override { spans.push_back(span); }
  void onCounter(const obs::CounterRecord& counter) override {
    counters.push_back(counter);
  }
  void onStep(const obs::StepMetrics& step) override {
    steps.push_back(step);
  }

  std::vector<obs::SpanRecord> spans;
  std::vector<obs::CounterRecord> counters;
  std::vector<obs::StepMetrics> steps;
};

/// RAII guard: every test leaves the registry disabled and sink-free.
class ObsTest : public ::testing::Test {
protected:
  void SetUp() override {
    obs::Registry::instance().clearSinks();
    obs::Registry::instance().setEnabled(false);
  }
  void TearDown() override {
    obs::Registry::instance().setEnabled(false);
    obs::Registry::instance().clearSinks();
  }

  std::shared_ptr<RecordingSink> attachRecorder() {
    auto sink = std::make_shared<RecordingSink>();
    obs::Registry::instance().addSink(sink);
    obs::Registry::instance().setEnabled(true);
    return sink;
  }
};

TEST_F(ObsTest, SpansNestAndCloseInOrder) {
  auto sink = attachRecorder();
  {
    obs::ScopedSpan outer("test", "outer");
    EXPECT_TRUE(outer.active());
    EXPECT_EQ(obs::Registry::currentDepth(), 1);
    {
      obs::ScopedSpan inner("test", "inner");
      EXPECT_EQ(obs::Registry::currentDepth(), 2);
    }
    EXPECT_EQ(obs::Registry::currentDepth(), 1);
  }
  EXPECT_EQ(obs::Registry::currentDepth(), 0);

  // children complete (and are recorded) before their parents
  ASSERT_EQ(sink->spans.size(), 2U);
  EXPECT_STREQ(sink->spans[0].name, "inner");
  EXPECT_EQ(sink->spans[0].depth, 1);
  EXPECT_STREQ(sink->spans[1].name, "outer");
  EXPECT_EQ(sink->spans[1].depth, 0);
  // the parent interval contains the child interval
  EXPECT_LE(sink->spans[1].startUs, sink->spans[0].startUs);
  EXPECT_GE(sink->spans[1].startUs + sink->spans[1].durUs,
            sink->spans[0].startUs + sink->spans[0].durUs);
}

TEST_F(ObsTest, SpansCloseDuringExceptionUnwinding) {
  auto sink = attachRecorder();
  EXPECT_EQ(obs::Registry::currentDepth(), 0);
  try {
    obs::ScopedSpan outer("test", "outer");
    obs::ScopedSpan inner("test", "inner");
    throw std::runtime_error("unwind");
  } catch (const std::runtime_error&) {
  }
  // both spans were closed and recorded despite the exception
  EXPECT_EQ(obs::Registry::currentDepth(), 0);
  ASSERT_EQ(sink->spans.size(), 2U);
  EXPECT_STREQ(sink->spans[0].name, "inner");
  EXPECT_STREQ(sink->spans[1].name, "outer");
}

TEST_F(ObsTest, DisabledModeRecordsNothing) {
  auto sink = std::make_shared<RecordingSink>();
  obs::Registry::instance().addSink(sink);
  // registry stays disabled
  {
    obs::ScopedSpan span("test", "quiet");
    EXPECT_FALSE(span.active());
    EXPECT_EQ(obs::Registry::currentDepth(), 0); // no depth bookkeeping
    span.arg("ignored", std::size_t{1});
    QDD_OBS_COUNTER("test.counter", 42);
  }
  EXPECT_TRUE(sink->spans.empty());
  EXPECT_TRUE(sink->counters.empty());
  EXPECT_FALSE(obs::enabled());
}

TEST_F(ObsTest, ConditionFalseDeactivatesSpan) {
  auto sink = attachRecorder();
  {
    obs::ScopedSpan span("test", "guarded", /*condition=*/false);
    EXPECT_FALSE(span.active());
    EXPECT_EQ(obs::Registry::currentDepth(), 0);
  }
  EXPECT_TRUE(sink->spans.empty());
}

TEST_F(ObsTest, RemoveSinkDetaches) {
  auto sink = attachRecorder();
  obs::Registry::instance().removeSink(sink);
  { obs::ScopedSpan span("test", "after-remove"); }
  EXPECT_TRUE(sink->spans.empty());
}

TEST_F(ObsTest, CountersCarryValueAndTimestamp) {
  auto sink = attachRecorder();
  QDD_OBS_COUNTER("test.counter", 7);
  QDD_OBS_COUNTER("test.counter", 9.5);
  ASSERT_EQ(sink->counters.size(), 2U);
  EXPECT_DOUBLE_EQ(sink->counters[0].value, 7.);
  EXPECT_DOUBLE_EQ(sink->counters[1].value, 9.5);
  EXPECT_LE(sink->counters[0].tsUs, sink->counters[1].tsUs);
}

TEST_F(ObsTest, AggregatorPercentilesNearestRank) {
  auto agg = std::make_shared<obs::AggregatorSink>();
  obs::Registry::instance().addSink(agg);
  obs::Registry::instance().setEnabled(true);
  for (int v = 1; v <= 100; ++v) {
    obs::SpanRecord span;
    span.category = "test";
    span.name = "latency";
    span.durUs = static_cast<double>(v);
    agg->onSpan(span);
  }
  EXPECT_DOUBLE_EQ(agg->percentileUs("test/latency", 50.), 50.);
  EXPECT_DOUBLE_EQ(agg->percentileUs("test/latency", 95.), 95.);
  EXPECT_DOUBLE_EQ(agg->percentileUs("test/latency", 99.), 99.);
  EXPECT_DOUBLE_EQ(agg->percentileUs("test/latency", 100.), 100.);
  EXPECT_DOUBLE_EQ(agg->percentileUs("test/latency", 0.), 1.);
  EXPECT_DOUBLE_EQ(agg->percentileUs("unknown/key", 50.), 0.);

  const auto s = agg->summary("test/latency");
  EXPECT_EQ(s.count, 100U);
  EXPECT_DOUBLE_EQ(s.totalUs, 5050.);
  EXPECT_DOUBLE_EQ(s.maxUs, 100.);
  EXPECT_DOUBLE_EQ(s.p50Us, 50.);
}

TEST_F(ObsTest, AggregatorTracksGcPauses) {
  auto agg = std::make_shared<obs::AggregatorSink>();
  obs::SpanRecord gc;
  gc.category = "dd";
  gc.name = "gc";
  gc.durUs = 123.;
  agg->onSpan(gc);
  ASSERT_EQ(agg->gcPausesUs().size(), 1U);
  EXPECT_DOUBLE_EQ(agg->gcPausesUs()[0], 123.);
}

TEST_F(ObsTest, ChromeTraceFromRealSimulationValidates) {
  auto chrome = std::make_shared<obs::ChromeTraceSink>();
  obs::Registry::instance().addSink(chrome);
  obs::Registry::instance().setEnabled(true);

  const auto qft = ir::builders::qft(4);
  Package pkg(4);
  sim::SimulationSession session(qft, pkg);
  while (session.stepForward()) {
  }
  obs::Registry::instance().setEnabled(false);
  chrome->setStatsJson(pkg.statistics().toJson(false));

  const std::string json = chrome->toJson();
  const auto result =
      obs::validateChromeTrace(json, /*requireStepMetrics=*/true);
  EXPECT_TRUE(result.valid) << result.error;
  EXPECT_GT(result.spans, 0U);
  EXPECT_EQ(result.stepInstants, qft.size());
  EXPECT_TRUE(result.hasStats);
  EXPECT_GT(chrome->eventCount(), qft.size());
}

TEST_F(ObsTest, StepMetricsCarryPerLevelNodeCounts) {
  auto sink = attachRecorder();
  const auto ghz = ir::builders::ghz(3);
  Package pkg(3);
  sim::SimulationSession session(ghz, pkg);
  while (session.stepForward()) {
  }
  ASSERT_EQ(sink->steps.size(), ghz.size());
  for (std::size_t k = 0; k < sink->steps.size(); ++k) {
    const auto& step = sink->steps[k];
    EXPECT_EQ(step.index, k);
    EXPECT_EQ(step.nodesPerLevel.size(), 3U);
    std::size_t total = 0;
    for (const std::size_t n : step.nodesPerLevel) {
      total += n;
    }
    EXPECT_EQ(total, step.nodes);
    EXPECT_GE(step.durUs, 0.);
  }
  // GHZ_3 state DD: 1 node at the top level, 2 at each level below
  EXPECT_EQ(sink->steps.back().nodes, 5U);
  EXPECT_EQ(sink->steps.back().nodesPerLevel[2], 1U);
  EXPECT_FALSE(sink->steps.front().op.empty());
}

TEST_F(ObsTest, ValidatorAcceptsMinimalTrace) {
  const std::string good = R"({"traceEvents":[
    {"name":"a","cat":"t","ph":"X","pid":1,"tid":1,"ts":0,"dur":10},
    {"name":"b","cat":"t","ph":"X","pid":1,"tid":1,"ts":2,"dur":3}
  ]})";
  const auto result = obs::validateChromeTrace(good);
  EXPECT_TRUE(result.valid) << result.error;
  EXPECT_EQ(result.spans, 2U);
}

TEST_F(ObsTest, ValidatorRejectsMalformedInput) {
  // not JSON at all
  EXPECT_FALSE(obs::validateChromeTrace("not json").valid);
  // missing traceEvents
  EXPECT_FALSE(obs::validateChromeTrace("{}").valid);
  // non-monotonic timestamps
  const std::string backwards = R"({"traceEvents":[
    {"name":"a","cat":"t","ph":"X","pid":1,"tid":1,"ts":10,"dur":1},
    {"name":"b","cat":"t","ph":"X","pid":1,"tid":1,"ts":5,"dur":1}
  ]})";
  EXPECT_FALSE(obs::validateChromeTrace(backwards).valid);
  // overlapping spans that violate stack discipline
  const std::string overlap = R"({"traceEvents":[
    {"name":"a","cat":"t","ph":"X","pid":1,"tid":1,"ts":0,"dur":5},
    {"name":"b","cat":"t","ph":"X","pid":1,"tid":1,"ts":3,"dur":10}
  ]})";
  EXPECT_FALSE(obs::validateChromeTrace(overlap).valid);
  // negative duration
  const std::string negative = R"({"traceEvents":[
    {"name":"a","cat":"t","ph":"X","pid":1,"tid":1,"ts":0,"dur":-1}
  ]})";
  EXPECT_FALSE(obs::validateChromeTrace(negative).valid);
  // spans missing entirely
  const std::string spanless = R"({"traceEvents":[
    {"name":"c","cat":"counter","ph":"C","pid":1,"tid":1,"ts":0}
  ]})";
  EXPECT_FALSE(obs::validateChromeTrace(spanless).valid);
  // step metrics required but absent
  const std::string noSteps = R"({"traceEvents":[
    {"name":"a","cat":"t","ph":"X","pid":1,"tid":1,"ts":0,"dur":5}
  ]})";
  EXPECT_FALSE(
      obs::validateChromeTrace(noSteps, /*requireStepMetrics=*/true).valid);
  // malformed numbers and a raw control character in a string: no strict
  // JSON parser accepts these
  for (const std::string bad :
       {R"({"traceEvents":[{"name":"a","ph":"X","ts":1.2.3,"dur":1}]})",
        R"({"traceEvents":[{"name":"a","ph":"X","ts":1e,"dur":1}]})",
        "{\"traceEvents\":[{\"name\":\"a\x01\",\"ph\":\"X\",\"ts\":0,"
        "\"dur\":1}]}"}) {
    const obs::TraceCheckResult result = obs::validateChromeTrace(bad);
    EXPECT_FALSE(result.valid) << bad;
    EXPECT_NE(result.error.find("JSON parse error"), std::string::npos)
        << result.error;
  }
}

TEST_F(ObsTest, StatsJsonIsDeterministic) {
  Package pkg(3);
  const auto qft = ir::builders::qft(3);
  sim::SimulationSession session(qft, pkg);
  while (session.stepForward()) {
  }
  const std::string a = pkg.statistics().toJson(false);
  const std::string b = pkg.statistics().toJson(false);
  EXPECT_EQ(a, b);
  // stable key order and fixed float formatting: hitRatio appears with a
  // dot decimal separator (never a locale comma) and the same digits
  EXPECT_NE(a.find("\"uniqueTables\""), std::string::npos);
  EXPECT_EQ(a.find("nan"), std::string::npos);
  // embeddable into the Chrome trace without escaping issues
  auto chrome = std::make_shared<obs::ChromeTraceSink>();
  obs::Registry::instance().addSink(chrome);
  obs::Registry::instance().setEnabled(true);
  { obs::ScopedSpan span("test", "wrap"); }
  obs::Registry::instance().setEnabled(false);
  chrome->setStatsJson(a);
  const auto result = obs::validateChromeTrace(chrome->toJson());
  EXPECT_TRUE(result.valid) << result.error;
  EXPECT_TRUE(result.hasStats);
}

TEST_F(ObsTest, ConcurrentSpansCarryDistinctThreadIds) {
  auto sink = attachRecorder();
  constexpr std::size_t numThreads = 4;
  std::vector<std::thread> threads;
  threads.reserve(numThreads);
  for (std::size_t t = 0; t < numThreads; ++t) {
    threads.emplace_back([] {
      obs::ScopedSpan outer("test", "outer");
      EXPECT_EQ(obs::Registry::currentDepth(), 1); // depth is thread-local
      obs::ScopedSpan inner("test", "inner");
      EXPECT_EQ(obs::Registry::currentDepth(), 2);
    });
  }
  for (auto& th : threads) {
    th.join();
  }

  // every thread's two spans were recorded, each tagged with its thread id
  ASSERT_EQ(sink->spans.size(), 2 * numThreads);
  std::map<std::uint32_t, std::vector<const obs::SpanRecord*>> byTid;
  for (const auto& span : sink->spans) {
    byTid[span.tid].push_back(&span);
  }
  EXPECT_EQ(byTid.size(), numThreads); // distinct ids, one per thread
  for (const auto& [tid, spans] : byTid) {
    EXPECT_NE(tid, obs::Registry::currentThreadId()); // none is this thread
    ASSERT_EQ(spans.size(), 2U);
    // completion order within a thread: inner closes before outer
    EXPECT_STREQ(spans[0]->name, "inner");
    EXPECT_EQ(spans[0]->depth, 1);
    EXPECT_STREQ(spans[1]->name, "outer");
    EXPECT_EQ(spans[1]->depth, 0);
  }
}

TEST_F(ObsTest, ThreadIdIsStablePerThread) {
  const auto main1 = obs::Registry::currentThreadId();
  const auto main2 = obs::Registry::currentThreadId();
  EXPECT_EQ(main1, main2);
  std::uint32_t worker = main1;
  std::thread([&] { worker = obs::Registry::currentThreadId(); }).join();
  EXPECT_NE(worker, main1);
}

TEST_F(ObsTest, ChromeTraceSeparatesWorkerTracksAndNamesThem) {
  auto chrome = std::make_shared<obs::ChromeTraceSink>();
  obs::Registry::instance().addSink(chrome);
  obs::Registry::instance().setEnabled(true);

  constexpr std::size_t numThreads = 3;
  std::vector<std::thread> threads;
  threads.reserve(numThreads);
  for (std::size_t t = 0; t < numThreads; ++t) {
    threads.emplace_back([t] {
      obs::Registry::labelCurrentThread("worker-" + std::to_string(t));
      // overlapping spans across threads are fine — they live on separate
      // tracks; within a track they must still nest
      obs::ScopedSpan outer("test", "outer");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      obs::ScopedSpan inner("test", "inner");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  obs::Registry::instance().setEnabled(false);

  const std::string json = chrome->toJson();
  const auto result = obs::validateChromeTrace(json);
  EXPECT_TRUE(result.valid) << result.error;
  EXPECT_EQ(result.spans, 2 * numThreads);
  for (std::size_t t = 0; t < numThreads; ++t) {
    const std::string label =
        "\"name\":\"thread_name\"";
    EXPECT_NE(json.find("worker-" + std::to_string(t)), std::string::npos);
    EXPECT_NE(json.find(label), std::string::npos);
  }

  const auto labels = obs::Registry::instance().threadLabels();
  EXPECT_GE(labels.size(), numThreads);
}

TEST_F(ObsTest, ValidatorAllowsOverlapAcrossTidsButNotWithin) {
  // same interval overlap on two different tids: two parallel tracks, valid
  const std::string acrossTids = R"({"traceEvents":[
    {"name":"a","cat":"t","ph":"X","pid":1,"tid":1,"ts":0,"dur":5},
    {"name":"b","cat":"t","ph":"X","pid":1,"tid":2,"ts":3,"dur":10}
  ]})";
  EXPECT_TRUE(obs::validateChromeTrace(acrossTids).valid);
  // the same shape on one tid violates stack discipline
  const std::string withinTid = R"({"traceEvents":[
    {"name":"a","cat":"t","ph":"X","pid":1,"tid":1,"ts":0,"dur":5},
    {"name":"b","cat":"t","ph":"X","pid":1,"tid":1,"ts":3,"dur":10}
  ]})";
  EXPECT_FALSE(obs::validateChromeTrace(withinTid).valid);
}

TEST_F(ObsTest, OverheadGateCompilesToNoOpWhenDisabled) {
  // With the registry disabled the macros must not evaluate expensive
  // arguments' side effects beyond the value expression itself; verify the
  // guard path at least stays allocation-free by depth bookkeeping.
  EXPECT_EQ(obs::Registry::currentDepth(), 0);
  for (int k = 0; k < 1000; ++k) {
    QDD_OBS_SPAN("test", "noop");
    EXPECT_EQ(obs::Registry::currentDepth(), 0);
  }
}

// --- request-scoped tracing --------------------------------------------------

/// Leaves the flight recorder disarmed and the thread trace-free.
class TraceTest : public ObsTest {
protected:
  void SetUp() override {
    ObsTest::SetUp();
    obs::FlightRecorder::setArmed(false);
  }
  void TearDown() override {
    obs::FlightRecorder::setArmed(false);
    ObsTest::TearDown();
  }
};

TEST_F(TraceTest, TraceparentRoundTrip) {
  const std::string header =
      "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01";
  obs::TraceContext ctx;
  ASSERT_TRUE(obs::TraceContext::parseTraceparent(header, ctx));
  EXPECT_EQ(ctx.traceHi, 0x0af7651916cd43ddULL);
  EXPECT_EQ(ctx.traceLo, 0x8448eb211c80319cULL);
  EXPECT_EQ(ctx.spanId, 0xb7ad6b7169203331ULL);
  EXPECT_EQ(ctx.flags, 1);
  EXPECT_TRUE(ctx.valid());
  EXPECT_EQ(ctx.traceparent(), header);
  EXPECT_EQ(ctx.traceIdHex(), "0af7651916cd43dd8448eb211c80319c");
  EXPECT_EQ(ctx.spanIdHex(), "b7ad6b7169203331");
}

TEST_F(TraceTest, TraceparentRejectsMalformedHeaders) {
  obs::TraceContext ctx;
  const char* bad[] = {
      "",
      "00",
      // wrong length (one hex digit short)
      "00-0af7651916cd43dd8448eb211c80319-b7ad6b7169203331-01",
      // non-hex digit in the trace id
      "00-0af7651916cd43dd8448eb211c80319z-b7ad6b7169203331-01",
      // version ff is reserved
      "ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
      // all-zero trace id
      "00-00000000000000000000000000000000-b7ad6b7169203331-01",
      // all-zero span id
      "00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01",
      // wrong separators
      "00_0af7651916cd43dd8448eb211c80319c_b7ad6b7169203331_01",
  };
  for (const char* header : bad) {
    EXPECT_FALSE(obs::TraceContext::parseTraceparent(header, ctx))
        << "accepted: " << header;
  }
  // a rejected header must leave the output untouched
  ctx = obs::TraceContext{};
  EXPECT_FALSE(obs::TraceContext::parseTraceparent("junk", ctx));
  EXPECT_EQ(ctx.traceHi, 0U);
  EXPECT_EQ(ctx.spanId, 0U);
}

TEST_F(TraceTest, MakeGeneratesDistinctValidContexts) {
  const obs::TraceContext a = obs::TraceContext::make();
  const obs::TraceContext b = obs::TraceContext::make();
  EXPECT_TRUE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_FALSE(a.traceHi == b.traceHi && a.traceLo == b.traceLo);
  EXPECT_NE(obs::TraceContext::nextId(), 0U);
}

TEST_F(TraceTest, TraceScopeInstallsAndRestores) {
  EXPECT_FALSE(obs::currentTrace().valid());
  const obs::TraceContext outer = obs::TraceContext::make();
  {
    const obs::TraceScope scope(outer);
    EXPECT_EQ(obs::currentTrace().traceLo, outer.traceLo);
    {
      // installing an invalid context clears the slot (pool workers must
      // not leak the previous task's identity)
      const obs::TraceScope inner((obs::TraceContext()));
      EXPECT_FALSE(obs::currentTrace().valid());
    }
    EXPECT_EQ(obs::currentTrace().traceLo, outer.traceLo);
  }
  EXPECT_FALSE(obs::currentTrace().valid());
}

TEST_F(TraceTest, SpansAndCountersCarryCurrentTraceId) {
  auto sink = attachRecorder();
  const obs::TraceContext ctx = obs::TraceContext::make();
  {
    const obs::TraceScope scope(ctx);
    obs::ScopedSpan span("test", "traced");
    QDD_OBS_COUNTER("test/value", 7.);
  }
  {
    obs::ScopedSpan span("test", "untraced");
  }
  ASSERT_EQ(sink->spans.size(), 2U);
  EXPECT_EQ(sink->spans[0].traceHi, ctx.traceHi);
  EXPECT_EQ(sink->spans[0].traceLo, ctx.traceLo);
  EXPECT_EQ(sink->spans[1].traceHi, 0U);
  EXPECT_EQ(sink->spans[1].traceLo, 0U);
  ASSERT_EQ(sink->counters.size(), 1U);
  EXPECT_EQ(sink->counters[0].traceHi, ctx.traceHi);
  EXPECT_EQ(sink->counters[0].traceLo, ctx.traceLo);
}

TEST_F(TraceTest, FlightRecorderCapturesWithRegistryDisabled) {
  // The flight recorder must work even when the obs registry records
  // nothing — that is the whole point of tail-based capture.
  ASSERT_FALSE(obs::Registry::instance().enabled());
  obs::FlightRecorder::setArmed(true);
  const obs::TraceContext ctx = obs::TraceContext::make();
  {
    const obs::TraceScope scope(ctx);
    obs::ScopedSpan outer("test", "flight-outer");
    obs::ScopedSpan inner("test", "flight-inner");
  }
  const auto events =
      obs::FlightRecorder::instance().capture(ctx.traceHi, ctx.traceLo);
  ASSERT_EQ(events.size(), 2U);
  // sorted by start time, enclosing span first
  EXPECT_STREQ(events[0].name, "flight-outer");
  EXPECT_STREQ(events[1].name, "flight-inner");
  EXPECT_LE(events[0].startUs, events[1].startUs);
  EXPECT_EQ(events[0].depth, 0);
  EXPECT_EQ(events[1].depth, 1);
  for (const auto& ev : events) {
    EXPECT_EQ(ev.traceHi, ctx.traceHi);
    EXPECT_EQ(ev.traceLo, ctx.traceLo);
  }
}

TEST_F(TraceTest, FlightRecorderFiltersByTraceId) {
  obs::FlightRecorder::setArmed(true);
  const obs::TraceContext a = obs::TraceContext::make();
  const obs::TraceContext b = obs::TraceContext::make();
  {
    const obs::TraceScope scope(a);
    obs::ScopedSpan span("test", "span-a");
  }
  {
    const obs::TraceScope scope(b);
    obs::ScopedSpan span("test", "span-b");
  }
  const auto onlyA =
      obs::FlightRecorder::instance().capture(a.traceHi, a.traceLo);
  ASSERT_EQ(onlyA.size(), 1U);
  EXPECT_STREQ(onlyA[0].name, "span-a");
}

TEST_F(TraceTest, FlightRecorderIsInertWithoutTraceOrArming) {
  // disarmed + traced: nothing recorded
  const obs::TraceContext ctx = obs::TraceContext::make();
  {
    const obs::TraceScope scope(ctx);
    obs::ScopedSpan span("test", "disarmed");
  }
  EXPECT_TRUE(obs::FlightRecorder::instance()
                  .capture(ctx.traceHi, ctx.traceLo)
                  .empty());
  // armed + untraced: nothing recorded
  obs::FlightRecorder::setArmed(true);
  const std::uint64_t before =
      obs::FlightRecorder::instance().totalRecorded();
  {
    obs::ScopedSpan span("test", "untraced");
  }
  EXPECT_EQ(obs::FlightRecorder::instance().totalRecorded(), before);
}

TEST_F(TraceTest, FlightRecorderRingWrapsAround) {
  obs::FlightRecorder::setArmed(true);
  const obs::TraceContext ctx = obs::TraceContext::make();
  const std::size_t n = obs::FlightRecorder::RING_CAPACITY + 100;
  {
    const obs::TraceScope scope(ctx);
    for (std::size_t k = 0; k < n; ++k) {
      obs::ScopedSpan span("test", "wrap");
    }
  }
  const auto events =
      obs::FlightRecorder::instance().capture(ctx.traceHi, ctx.traceLo);
  // the ring keeps only the newest RING_CAPACITY events, never more
  EXPECT_LE(events.size(), obs::FlightRecorder::RING_CAPACITY);
  EXPECT_GE(events.size(), obs::FlightRecorder::RING_CAPACITY - 1);
  for (std::size_t k = 1; k < events.size(); ++k) {
    EXPECT_LE(events[k - 1].startUs, events[k].startUs);
  }
}

TEST_F(TraceTest, ThreadPoolPropagatesTraceToTasksAndParallelFor) {
  obs::FlightRecorder::setArmed(true);
  const obs::TraceContext ctx = obs::TraceContext::make();
  exec::ThreadPool pool(4);
  std::atomic<int> matches{0};
  std::atomic<int> finished{0};
  {
    const obs::TraceScope scope(ctx);
    for (int k = 0; k < 8; ++k) {
      pool.submit([&matches, &finished, &ctx] {
        if (obs::currentTrace().traceHi == ctx.traceHi &&
            obs::currentTrace().traceLo == ctx.traceLo) {
          matches.fetch_add(1, std::memory_order_relaxed);
        }
        {
          obs::ScopedSpan span("test", "pool-task");
        }
        finished.fetch_add(1, std::memory_order_release);
      });
    }
    pool.parallelFor(8, [&matches, &ctx](std::size_t, std::size_t) {
      if (obs::currentTrace().traceHi == ctx.traceHi &&
          obs::currentTrace().traceLo == ctx.traceLo) {
        matches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // submit() is detached: wait for the tasks to drain
  while (finished.load(std::memory_order_acquire) < 8) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(matches.load(), 16);
  // the workers' flight events are tagged with the submitter's trace id
  const auto events =
      obs::FlightRecorder::instance().capture(ctx.traceHi, ctx.traceLo);
  EXPECT_EQ(events.size(), 8U);
  // ...and the workers' thread-locals were restored afterwards
  std::atomic<bool> leaked{false};
  pool.parallelFor(8, [&leaked](std::size_t, std::size_t) {
    if (obs::currentTrace().valid()) {
      leaked.store(true, std::memory_order_relaxed);
    }
  });
  EXPECT_FALSE(leaked.load());
}

TEST_F(TraceTest, ConcurrentRecordAndCaptureStaysConsistent) {
  // Hammer one trace id from several writers while a reader captures in a
  // loop; every captured event must be fully consistent (matching ids,
  // non-null names). Run under TSan, this also proves the ring is race-free.
  obs::FlightRecorder::setArmed(true);
  const obs::TraceContext ctx = obs::TraceContext::make();
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  writers.reserve(3);
  for (int w = 0; w < 3; ++w) {
    writers.emplace_back([&ctx, &stop] {
      const obs::TraceScope scope(ctx);
      while (!stop.load(std::memory_order_relaxed)) {
        obs::ScopedSpan span("test", "hammer");
      }
    });
  }
  for (int k = 0; k < 50; ++k) {
    const auto events =
        obs::FlightRecorder::instance().capture(ctx.traceHi, ctx.traceLo);
    for (const auto& ev : events) {
      ASSERT_NE(ev.name, nullptr);
      ASSERT_NE(ev.category, nullptr);
      EXPECT_EQ(ev.traceHi, ctx.traceHi);
      EXPECT_EQ(ev.traceLo, ctx.traceLo);
      EXPECT_GE(ev.durUs, 0.);
    }
  }
  stop.store(true);
  for (auto& t : writers) {
    t.join();
  }
}

TEST_F(TraceTest, IncidentValidatorChecksTraceIdConsistency) {
  const std::string good = R"({"traceEvents":[
    {"name":"request","cat":"service","ph":"X","pid":1,"tid":1,"ts":0,
     "dur":10,"args":{"trace_id":"0af7651916cd43dd8448eb211c80319c"}},
    {"name":"step","cat":"sim","ph":"X","pid":1,"tid":1,"ts":2,"dur":3,
     "args":{"trace_id":"0af7651916cd43dd8448eb211c80319c"}}
  ],"traceId":"0af7651916cd43dd8448eb211c80319c"})";
  EXPECT_TRUE(obs::validateIncidentTrace(good).valid);

  // span tagged with a different trace id
  const std::string mixed = R"({"traceEvents":[
    {"name":"request","cat":"service","ph":"X","pid":1,"tid":1,"ts":0,
     "dur":10,"args":{"trace_id":"ffffffffffffffffffffffffffffffff"}}
  ],"traceId":"0af7651916cd43dd8448eb211c80319c"})";
  EXPECT_FALSE(obs::validateIncidentTrace(mixed).valid);

  // missing top-level traceId
  const std::string untagged = R"({"traceEvents":[
    {"name":"request","cat":"service","ph":"X","pid":1,"tid":1,"ts":0,
     "dur":10,"args":{"trace_id":"0af7651916cd43dd8448eb211c80319c"}}
  ]})";
  EXPECT_FALSE(obs::validateIncidentTrace(untagged).valid);

  // all-zero trace id
  const std::string zeros = R"({"traceEvents":[
    {"name":"request","cat":"service","ph":"X","pid":1,"tid":1,"ts":0,
     "dur":10,"args":{"trace_id":"00000000000000000000000000000000"}}
  ],"traceId":"00000000000000000000000000000000"})";
  EXPECT_FALSE(obs::validateIncidentTrace(zeros).valid);

  // overlapping same-tid spans still fail via the chrome validation
  const std::string overlap = R"({"traceEvents":[
    {"name":"a","cat":"t","ph":"X","pid":1,"tid":1,"ts":0,"dur":5,
     "args":{"trace_id":"0af7651916cd43dd8448eb211c80319c"}},
    {"name":"b","cat":"t","ph":"X","pid":1,"tid":1,"ts":3,"dur":10,
     "args":{"trace_id":"0af7651916cd43dd8448eb211c80319c"}}
  ],"traceId":"0af7651916cd43dd8448eb211c80319c"})";
  EXPECT_FALSE(obs::validateIncidentTrace(overlap).valid);
}

} // namespace
} // namespace qdd
