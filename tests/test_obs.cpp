// Observability (locwm::obs): span nesting and ordering, Chrome-trace and
// stats JSON well-formedness, counter determinism under fixed keys, and
// the disabled-mode guarantees.  Also covers bench::pcString, whose
// scientific-notation fix rides on the same PR as the obs subsystem.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "json_checker.h"
#include "core/sched_wm.h"
#include "obs/events.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "obs/openmetrics.h"
#include "sched/list_scheduler.h"
#include "sched/timeframes.h"
#include "workloads/hyper.h"

namespace {

using namespace locwm;

using locwm::testing::JsonChecker;

/// Resets every obs singleton to a clean, enabled state.
void resetObs(bool enabled) {
  obs::MetricsRegistry::instance().reset();
  obs::TraceBuffer::instance().clear();
  obs::PassTimer::instance().clear();
  obs::setEnabled(enabled);
}

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override { resetObs(true); }
  void TearDown() override { resetObs(false); }
};

#if LOCWM_OBS_ENABLED

TEST_F(ObsTest, SpanNestingRecordsInnerFirstWithDepths) {
  {
    LOCWM_OBS_SPAN("outer");
    {
      LOCWM_OBS_SPAN("inner");
      volatile int sink = 0;
      for (int i = 0; i < 1000; ++i) {
        sink = sink + i;
      }
    }
  }
  const std::vector<obs::TraceEvent> events =
      obs::TraceBuffer::instance().events();
  ASSERT_EQ(events.size(), 2u);
  // Spans are recorded at destruction: inner completes first.
  EXPECT_STREQ(events[0].name, "inner");
  EXPECT_STREQ(events[1].name, "outer");
  EXPECT_EQ(events[0].depth, 1u);
  EXPECT_EQ(events[1].depth, 0u);
  // The outer span contains the inner one.
  EXPECT_LE(events[1].start_ns, events[0].start_ns);
  EXPECT_GE(events[1].dur_ns, events[0].dur_ns);
}

TEST_F(ObsTest, PassTimerAttributesSelfVersusChildTime) {
  {
    LOCWM_OBS_SPAN("parent");
    { LOCWM_OBS_SPAN("child"); }
    { LOCWM_OBS_SPAN("child"); }
  }
  const std::vector<obs::PassStat> stats =
      obs::PassTimer::instance().report();
  ASSERT_EQ(stats.size(), 2u);
  const obs::PassStat* parent = nullptr;
  const obs::PassStat* child = nullptr;
  for (const obs::PassStat& s : stats) {
    (s.name == "parent" ? parent : child) = &s;
  }
  ASSERT_NE(parent, nullptr);
  ASSERT_NE(child, nullptr);
  EXPECT_EQ(parent->calls, 1u);
  EXPECT_EQ(child->calls, 2u);
  EXPECT_LE(parent->self_ns, parent->total_ns);
  // Parent self time excludes the two child spans.
  EXPECT_LE(parent->self_ns + child->total_ns,
            parent->total_ns + 1);  // +1: integer truncation slack
}

TEST_F(ObsTest, ChromeTraceJsonParsesBack) {
  {
    LOCWM_OBS_SPAN("alpha");
    { LOCWM_OBS_SPAN("beta \"quoted\" \\ name"); }
  }
  const std::string json = obs::TraceBuffer::instance().chromeTraceJson();
  EXPECT_TRUE(JsonChecker(json).parse()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("beta \\\"quoted\\\" \\\\ name"), std::string::npos);
}

TEST_F(ObsTest, StatsJsonParsesBackAndCarriesAllSections) {
  LOCWM_OBS_COUNT("test.stats.events", 3);
  LOCWM_OBS_GAUGE_MAX("test.stats.level", 7);
  { LOCWM_OBS_SPAN("test.stats.pass"); }
  const std::string json = obs::statsJson();
  EXPECT_TRUE(JsonChecker(json).parse()) << json;
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"passes\""), std::string::npos);
  EXPECT_NE(json.find("\"test.stats.events\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"test.stats.level\": 7"), std::string::npos);
}

TEST_F(ObsTest, CountersAndGaugesAccumulate) {
  LOCWM_OBS_COUNT("test.acc.count", 2);
  LOCWM_OBS_COUNT("test.acc.count", 3);
  LOCWM_OBS_GAUGE_MAX("test.acc.peak", 5);
  LOCWM_OBS_GAUGE_MAX("test.acc.peak", 2);  // below peak: no effect
  auto& reg = obs::MetricsRegistry::instance();
  EXPECT_EQ(reg.counter("test.acc.count").value(), 5u);
  EXPECT_EQ(reg.gauge("test.acc.peak").value(), 5);
}

TEST_F(ObsTest, RingBufferOverwritesOldestButCountsAll) {
  auto& buf = obs::TraceBuffer::instance();
  for (std::size_t i = 0; i < obs::TraceBuffer::kCapacity + 10; ++i) {
    buf.record(obs::TraceEvent{"e", i, 1, 0, 0});
  }
  EXPECT_EQ(buf.totalRecorded(), obs::TraceBuffer::kCapacity + 10);
  const auto events = buf.events();
  ASSERT_EQ(events.size(), obs::TraceBuffer::kCapacity);
  // Oldest-first: the first surviving event is number 10.
  EXPECT_EQ(events.front().start_ns, 10u);
  EXPECT_EQ(events.back().start_ns, obs::TraceBuffer::kCapacity + 9);
}

// The flagship determinism property: instrumentation counts algorithmic
// work, never time, so two identical keyed runs must produce bit-identical
// counter snapshots.
TEST_F(ObsTest, CountersDeterministicAcrossIdenticalSeededRuns) {
  auto run = [] {
    obs::MetricsRegistry::instance().reset();
    const cdfg::Cdfg g = workloads::hyperSuite()[0].graph;
    wm::SchedulingWatermarker marker({"alice", "determinism"});
    wm::SchedWmParams params;
    params.locality.min_size = 4;
    params.min_eligible = 2;
    const sched::TimeFrames tf(g, params.latency);
    params.deadline = tf.criticalPathSteps() + 3;
    cdfg::Cdfg marked = g;
    (void)marker.embedMany(marked, 2, params);
    (void)sched::listSchedule(marked);
    return obs::MetricsRegistry::instance().snapshot(/*nonzero_only=*/true);
  };
  const auto first = run();
  const auto second = run();
  ASSERT_FALSE(first.empty());
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].name, second[i].name);
    EXPECT_EQ(first[i].value, second[i].value) << first[i].name;
  }
}

// Concurrent recording: the ring buffer and the metrics registry are the
// only obs structures shared across threads; hammer both from several
// writers while a reader snapshots, so a ThreadSanitizer build exercises
// every lock/atomic in the hot path.
TEST_F(ObsTest, ConcurrentSpansAndCountersAreRaceFreeAndLossless) {
  constexpr int kThreads = 4;
  constexpr int kIters = 2000;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([] {
      for (int i = 0; i < kIters; ++i) {
        LOCWM_OBS_SPAN("test.mt.span");
        LOCWM_OBS_COUNT("test.mt.events", 1);
      }
    });
  }
  // Concurrent readers must also be safe: snapshot while writers run.
  for (int i = 0; i < 8; ++i) {
    (void)obs::MetricsRegistry::instance().snapshot();
    (void)obs::TraceBuffer::instance().events();
  }
  for (std::thread& w : writers) {
    w.join();
  }
  EXPECT_EQ(obs::TraceBuffer::instance().totalRecorded(),
            static_cast<std::uint64_t>(kThreads) * kIters);
  std::int64_t counted = 0;
  for (const auto& s : obs::MetricsRegistry::instance().snapshot(true)) {
    if (s.name == "test.mt.events") {
      counted = s.value;
    }
  }
  EXPECT_EQ(counted, static_cast<std::int64_t>(kThreads) * kIters);
}

TEST_F(ObsTest, StatsJsonCarriesSchemaVersionAndSortedKeys) {
  LOCWM_OBS_COUNT("test.schema.hits", 1);
  const std::string json = obs::statsJson();
  EXPECT_TRUE(JsonChecker(json).parse()) << json;
  EXPECT_NE(json.find("\"schema_version\": " +
                      std::to_string(obs::kStatsSchemaVersion)),
            std::string::npos)
      << json;
  // Top-level keys render in sorted order so snapshots diff cleanly.
  const char* keys[] = {"\"counters\"", "\"gauges\"", "\"histograms\"",
                        "\"passes\"", "\"schema_version\"", "\"trace\""};
  std::size_t last = 0;
  for (const char* key : keys) {
    const std::size_t at = json.find(key);
    ASSERT_NE(at, std::string::npos) << key << " missing from " << json;
    EXPECT_GT(at, last) << key << " out of order in " << json;
    last = at;
  }
}

TEST_F(ObsTest, TraceBufferCountsDroppedEvents) {
  auto& buf = obs::TraceBuffer::instance();
  EXPECT_EQ(buf.dropped(), 0u);
  for (std::size_t i = 0; i < obs::TraceBuffer::kCapacity + 25; ++i) {
    buf.record(obs::TraceEvent{"e", i, 1, 0, 0});
  }
  EXPECT_EQ(buf.dropped(), 25u);
  EXPECT_GT(buf.bufferBytes(), 0u);
  const std::string json = obs::statsJson();
  EXPECT_NE(json.find("\"dropped\": 25"), std::string::npos) << json;
}

TEST_F(ObsTest, OpenMetricsRenderIsStructurallyValid) {
  LOCWM_OBS_COUNT("test.om.events", 3);
  LOCWM_OBS_GAUGE_SET("test.om.level", 7);
  LOCWM_OBS_HISTOGRAM("test.om.lat_ns", 1000);
  LOCWM_OBS_HISTOGRAM("test.om.lat_ns", 2000);
  const std::string text = obs::renderOpenMetrics();
  // Counters carry _total; gauges do not; histograms render as summaries
  // with the quantile ladder and a companion _max gauge.
  EXPECT_NE(text.find("# TYPE locwm_test_om_events counter\n"
                      "locwm_test_om_events_total 3\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE locwm_test_om_level gauge\n"
                      "locwm_test_om_level 7\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE locwm_test_om_lat_ns summary"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("locwm_test_om_lat_ns{quantile=\"0.99\"}"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("locwm_test_om_lat_ns_sum 3000"), std::string::npos);
  EXPECT_NE(text.find("locwm_test_om_lat_ns_count 2"), std::string::npos);
  EXPECT_NE(text.find("# TYPE locwm_test_om_lat_ns_max gauge"),
            std::string::npos);
  // Trace-ring health is always exposed; exposition terminates with # EOF.
  EXPECT_NE(text.find("locwm_obs_trace_recorded_total "),
            std::string::npos);
  EXPECT_EQ(text.substr(text.size() - 6), "# EOF\n");
}

TEST_F(ObsTest, OpenMetricsFoldsLaneMetricsIntoLabelledFamilies) {
  LOCWM_OBS_GAUGE_SET("rt.lane0.tasks", 5);
  LOCWM_OBS_GAUGE_SET("rt.lane12.tasks", 9);
  const std::string text = obs::renderOpenMetrics();
  EXPECT_NE(text.find("locwm_rt_lane_tasks{lane=\"0\"} 5"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("locwm_rt_lane_tasks{lane=\"12\"} 9"),
            std::string::npos)
      << text;
  // One family declaration covers both samples.
  const std::size_t first = text.find("# TYPE locwm_rt_lane_tasks gauge");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find("# TYPE locwm_rt_lane_tasks gauge", first + 1),
            std::string::npos);
}

TEST_F(ObsTest, EventLogStreamsNdjsonWithMonotonicSeq) {
  const std::string path = ::testing::TempDir() + "obs_events.ndjson";
  ASSERT_TRUE(obs::EventLog::instance().open(path));
  EXPECT_TRUE(obs::eventLogActive());
  {
    LOCWM_OBS_SPAN("test.events.outer");
    { LOCWM_OBS_SPAN("test.events.inner"); }
  }
  LOCWM_OBS_COUNT("test.events.hits", 4);
  LOCWM_OBS_HISTOGRAM("test.events.lat_ns", 500);
  obs::EventLog::instance().emitMetricsSnapshot();
  obs::EventLog::instance().emitMetricsSnapshot();  // deltas go to zero
  obs::EventLog::instance().close();
  EXPECT_FALSE(obs::eventLogActive());

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  std::uint64_t expected_seq = 0;
  bool saw_meta = false;
  bool saw_begin = false;
  bool saw_end = false;
  bool saw_delta4 = false;
  bool saw_delta0 = false;
  bool saw_histogram = false;
  while (std::getline(in, line)) {
    EXPECT_TRUE(JsonChecker(line).parse()) << line;
    // Sequence numbers are dense and monotonic from 0.
    const std::string want =
        "{\"seq\":" + std::to_string(expected_seq) + ",";
    EXPECT_EQ(line.substr(0, want.size()), want) << line;
    EXPECT_NE(line.find("\"schema_version\":" +
                        std::to_string(obs::kStatsSchemaVersion)),
              std::string::npos)
        << line;
    ++expected_seq;
    saw_meta |= line.find("\"type\":\"meta\"") != std::string::npos;
    saw_begin |=
        line.find("\"type\":\"span_begin\",\"name\":\"test.events.inner\"") !=
        std::string::npos;
    saw_end |=
        line.find("\"type\":\"span_end\",\"name\":\"test.events.outer\"") !=
        std::string::npos;
    if (line.find("\"name\":\"test.events.hits\"") != std::string::npos) {
      saw_delta4 |= line.find("\"delta\":4") != std::string::npos;
      saw_delta0 |= line.find("\"delta\":0") != std::string::npos;
    }
    saw_histogram |=
        line.find("\"type\":\"histogram\",\"name\":\"test.events.lat_ns\"") !=
        std::string::npos;
  }
  EXPECT_GE(expected_seq, 8u);
  EXPECT_TRUE(saw_meta);
  EXPECT_TRUE(saw_begin);
  EXPECT_TRUE(saw_end);
  EXPECT_TRUE(saw_delta4);
  EXPECT_TRUE(saw_delta0);
  EXPECT_TRUE(saw_histogram);
  std::remove(path.c_str());
}

#endif  // LOCWM_OBS_ENABLED

// Holds compiled-in-but-runtime-disabled AND compiled-out alike.
TEST_F(ObsTest, DisabledModeRecordsNothing) {
  obs::setEnabled(false);
  const std::uint64_t before = obs::TraceBuffer::instance().totalRecorded();
  {
    LOCWM_OBS_SPAN("ghost");
    LOCWM_OBS_COUNT("test.ghost.count", 42);
    LOCWM_OBS_GAUGE_MAX("test.ghost.peak", 42);
  }
  EXPECT_EQ(obs::TraceBuffer::instance().totalRecorded(), before);
  EXPECT_TRUE(obs::PassTimer::instance().report().empty());
  // The disabled macros never registered the metrics at all.
  for (const auto& s :
       obs::MetricsRegistry::instance().snapshot(/*nonzero_only=*/false)) {
    EXPECT_NE(s.name, "test.ghost.count");
    EXPECT_NE(s.name, "test.ghost.peak");
  }
}

// ---------------------------------------------------------------------------
// bench::pcString: well-formed scientific notation (mantissa.digit e int),
// never the old malformed "1e-5.3" shape.
TEST(PcString, EmitsMantissaAndIntegerExponent) {
  EXPECT_EQ(bench::pcString(-5.3), "5.0e-6");
  EXPECT_EQ(bench::pcString(-6.0), "1.0e-6");
  EXPECT_EQ(bench::pcString(0.0), "1.0e0");
  EXPECT_EQ(bench::pcString(3.0), "1.0e3");
  EXPECT_EQ(bench::pcString(-0.04), "9.1e-1");
}

TEST(PcString, RoundingCarryPromotesTheExponent) {
  // 10^-0.001 = 0.9977... -> mantissa would round to 10.0 at one decimal.
  EXPECT_EQ(bench::pcString(-5.001), "1.0e-5");
}

TEST(PcString, NonFiniteInputs) {
  EXPECT_EQ(bench::pcString(-std::numeric_limits<double>::infinity()), "0");
  EXPECT_EQ(bench::pcString(std::numeric_limits<double>::infinity()), "inf");
  EXPECT_EQ(bench::pcString(std::numeric_limits<double>::quiet_NaN()), "nan");
}

TEST(PcString, NeverContainsAFractionalExponent) {
  for (const double v : {-27.45, -13.37, -1.05, -0.5, 2.79}) {
    const std::string s = bench::pcString(v);
    const std::size_t e = s.find('e');
    ASSERT_NE(e, std::string::npos) << s;
    EXPECT_EQ(s.find('.', e), std::string::npos)
        << "fractional exponent in " << s;
  }
}

// ---------------------------------------------------------------------------
// obs::JsonReader reads untrusted files (lint baselines, cache entries,
// `delta` edit streams): a number past 2^64 - 1 is an error, never a
// silently wrapped value.
TEST(JsonReader, NumberRejectsOverflow) {
  obs::JsonReader max("18446744073709551615");
  EXPECT_EQ(max.number(), std::numeric_limits<std::uint64_t>::max());
  for (const char* text : {"18446744073709551616", "18446744073709551617",
                           "100000000000000000000"}) {
    obs::JsonReader in(text);
    try {
      static_cast<void>(in.number());
      ADD_FAILURE() << text << " did not throw";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "number out of range") << text;
    }
  }
}

}  // namespace
