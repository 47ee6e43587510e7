// Observability layer tests: registry semantics (find-or-create handles,
// sorted snapshots), histogram bucket math, the runtime enable gate, exact
// merge-on-snapshot under concurrent sharded writers (run under TSan in
// CI), and the core contract that telemetry never changes encoded bytes.
//
// The registry is process-global, so every test uses its own metric names
// ("test.<suite>.*") and restores the enabled flag it found.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "alp/alp.h"
#include "obs/export.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/perf_counters.h"
#include "obs/sink.h"
#include "obs/trace.h"
#include "test_fixtures.h"
#include "util/thread_pool.h"

namespace alp::obs {
namespace {

// Turns recording on for the duration of a test and restores the previous
// state afterwards, so suites (and the golden tests in the same ctest run)
// never see each other's toggle.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = Enabled();
    SetEnabled(true);
  }
  void TearDown() override { SetEnabled(was_enabled_); }

 private:
  bool was_enabled_ = false;
};

TEST_F(ObsTest, CounterAddsAndResets) {
  Counter& c = MetricRegistry::Global().GetCounter("test.counter.basic");
  const uint64_t before = c.Total();
  c.Add(5);
  c.Increment();
  EXPECT_EQ(c.Total(), before + 6);
  c.Reset();
  EXPECT_EQ(c.Total(), 0u);
}

TEST_F(ObsTest, RegistryReturnsSameHandleForSameName) {
  MetricRegistry& reg = MetricRegistry::Global();
  EXPECT_EQ(&reg.GetCounter("test.handle.counter"),
            &reg.GetCounter("test.handle.counter"));
  EXPECT_EQ(&reg.GetGauge("test.handle.gauge"), &reg.GetGauge("test.handle.gauge"));
  EXPECT_EQ(&reg.GetHistogram("test.handle.histogram", {1, 2}, "u"),
            &reg.GetHistogram("test.handle.histogram", {9, 99}, "ignored"));
  EXPECT_EQ(&reg.GetStage("test.handle.stage"), &reg.GetStage("test.handle.stage"));
  // Distinct names are distinct objects.
  EXPECT_NE(&reg.GetCounter("test.handle.counter"),
            &reg.GetCounter("test.handle.counter2"));
}

TEST_F(ObsTest, DisabledRecordingIsANoOp) {
  MetricRegistry& reg = MetricRegistry::Global();
  Counter& c = reg.GetCounter("test.disabled.counter");
  Gauge& g = reg.GetGauge("test.disabled.gauge");
  Histogram& h = reg.GetHistogram("test.disabled.histogram", {10}, "u");
  c.Reset();
  g.Reset();
  h.Reset();

  SetEnabled(false);
  c.Add(100);
  g.Set(42);
  g.UpdateMax(42);
  h.Record(3);
  EXPECT_EQ(c.Total(), 0u);
  EXPECT_EQ(g.Value(), 0);
  EXPECT_EQ(h.TotalCount(), 0u);

  SetEnabled(true);
  c.Add(1);
  g.Set(7);
  h.Record(3);
  EXPECT_EQ(c.Total(), 1u);
  EXPECT_EQ(g.Value(), 7);
  EXPECT_EQ(h.TotalCount(), 1u);
}

TEST_F(ObsTest, GaugeSetAndUpdateMax) {
  Gauge& g = MetricRegistry::Global().GetGauge("test.gauge.maxima");
  g.Reset();
  g.Set(10);
  EXPECT_EQ(g.Value(), 10);
  g.UpdateMax(5);  // Smaller: no change.
  EXPECT_EQ(g.Value(), 10);
  g.UpdateMax(25);
  EXPECT_EQ(g.Value(), 25);
  g.Set(3);  // Set always overwrites.
  EXPECT_EQ(g.Value(), 3);
}

TEST_F(ObsTest, HistogramBucketBoundaries) {
  // Bucket i counts values <= bounds[i]; above the last bound -> overflow.
  Histogram& h =
      MetricRegistry::Global().GetHistogram("test.histogram.bounds", {10, 20}, "u");
  h.Reset();
  h.Record(0);    // bucket 0
  h.Record(10);   // bucket 0 (inclusive upper bound)
  h.Record(11);   // bucket 1
  h.Record(20);   // bucket 1
  h.Record(21);   // overflow
  h.Record(1000); // overflow

  const std::vector<uint64_t> counts = h.BucketCounts();
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 2u);
  EXPECT_EQ(h.TotalCount(), 6u);
  EXPECT_EQ(h.TotalSum(), 0u + 10 + 11 + 20 + 21 + 1000);

  h.Reset();
  EXPECT_EQ(h.TotalCount(), 0u);
  EXPECT_EQ(h.TotalSum(), 0u);
  for (uint64_t c : h.BucketCounts()) EXPECT_EQ(c, 0u);
}

TEST_F(ObsTest, ScopedTimerFeedsStageStats) {
  StageStats& stage = MetricRegistry::Global().GetStage("test.stage.timer");
  stage.Reset();
  {
    ScopedTimer t(stage, "test.stage.timer", 128);
  }
  {
    ScopedTimer t(stage, "test.stage.timer", 0);
    t.SetItems(512);
  }
  EXPECT_EQ(stage.Calls(), 2u);
  EXPECT_EQ(stage.Items(), 640u);
  EXPECT_GT(stage.Cycles(), 0u);
}

TEST_F(ObsTest, ScopedTimerArmedAtConstructionOnly) {
  // A timer built while recording is disabled must not record, even if
  // recording is enabled before it is destroyed.
  StageStats& stage = MetricRegistry::Global().GetStage("test.stage.arming");
  stage.Reset();
  SetEnabled(false);
  {
    ScopedTimer t(stage, "test.stage.arming", 7);
    SetEnabled(true);
  }
  EXPECT_EQ(stage.Calls(), 0u);
}

TEST_F(ObsTest, SnapshotContainsSortedNames) {
  MetricRegistry& reg = MetricRegistry::Global();
  reg.GetCounter("test.snapshot.zz").Add(2);
  reg.GetCounter("test.snapshot.aa").Add(1);
  reg.GetHistogram("test.snapshot.h", {4}, "things").Record(3);
  reg.GetStage("test.snapshot.stage").Record(100, 10);

  const MetricsSnapshot snap = reg.Snapshot();
  EXPECT_TRUE(snap.enabled);

  // Globally sorted by name.
  for (size_t i = 1; i < snap.counters.size(); ++i) {
    EXPECT_LT(snap.counters[i - 1].name, snap.counters[i].name);
  }

  int64_t aa = -1, zz = -1;
  for (const auto& c : snap.counters) {
    if (c.name == "test.snapshot.aa") aa = static_cast<int64_t>(c.value);
    if (c.name == "test.snapshot.zz") zz = static_cast<int64_t>(c.value);
  }
  EXPECT_EQ(aa, 1);
  EXPECT_EQ(zz, 2);

  bool found_histogram = false;
  for (const auto& h : snap.histograms) {
    if (h.name != "test.snapshot.h") continue;
    found_histogram = true;
    EXPECT_EQ(h.unit, "things");
    ASSERT_EQ(h.bounds.size(), 1u);
    ASSERT_EQ(h.counts.size(), 2u);
    EXPECT_EQ(h.count, 1u);
    EXPECT_EQ(h.sum, 3u);
    EXPECT_DOUBLE_EQ(h.Mean(), 3.0);
  }
  EXPECT_TRUE(found_histogram);

  bool found_stage = false;
  for (const auto& s : snap.stages) {
    if (s.name != "test.snapshot.stage") continue;
    found_stage = true;
    EXPECT_EQ(s.calls, 1u);
    EXPECT_DOUBLE_EQ(s.CyclesPerCall(), 100.0);
    EXPECT_DOUBLE_EQ(s.CyclesPerItem(), 10.0);
  }
  EXPECT_TRUE(found_stage);
}

// The MergeFrom-style exactness contract: sharded relaxed writers merged on
// snapshot lose nothing. 8 writers hammer one counter and one histogram;
// totals must be exact. This is the test TSan watches in CI.
TEST_F(ObsTest, MergeOnSnapshotIsExactUnderConcurrentWriters) {
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 50'000;

  MetricRegistry& reg = MetricRegistry::Global();
  Counter& c = reg.GetCounter("test.concurrent.counter");
  Histogram& h = reg.GetHistogram("test.concurrent.histogram", {2, 5, 8}, "u");
  c.Reset();
  h.Reset();

  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&c, &h, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        c.Add(1);
        h.Record((static_cast<uint64_t>(t) + i) % 10);
      }
    });
  }
  // Snapshots taken mid-flight must be readable (not torn / crashing);
  // values are monotonically growing but otherwise unasserted here.
  for (int i = 0; i < 8; ++i) {
    const MetricsSnapshot mid = reg.Snapshot();
    EXPECT_LE(mid.counters.size(), reg.Snapshot().counters.size());
  }
  for (auto& w : writers) w.join();

  constexpr uint64_t kTotal = kThreads * kPerThread;
  EXPECT_EQ(c.Total(), kTotal);
  EXPECT_EQ(h.TotalCount(), kTotal);
  // Each thread records (t + i) % 10 for i in [0, kPerThread); kPerThread is
  // a multiple of 10, so every residue appears exactly kPerThread / 10 times
  // regardless of t: sum = kTotal / 10 * (0 + 1 + ... + 9).
  EXPECT_EQ(h.TotalSum(), kTotal / 10 * 45);
  const std::vector<uint64_t> counts = h.BucketCounts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], kTotal / 10 * 3);  // 0,1,2
  EXPECT_EQ(counts[1], kTotal / 10 * 3);  // 3,4,5
  EXPECT_EQ(counts[2], kTotal / 10 * 3);  // 6,7,8
  EXPECT_EQ(counts[3], kTotal / 10 * 1);  // 9
}

TEST_F(ObsTest, ResetZeroesEverythingButKeepsRegistrations) {
  MetricRegistry& reg = MetricRegistry::Global();
  Counter& c = reg.GetCounter("test.reset.counter");
  c.Add(9);
  reg.Reset();
  EXPECT_EQ(c.Total(), 0u);
  EXPECT_EQ(&c, &reg.GetCounter("test.reset.counter"));
}

TEST_F(ObsTest, SinkEmitsParsableShapes) {
  MetricRegistry& reg = MetricRegistry::Global();
  reg.GetCounter("test.sink.counter\"quoted\"").Add(3);
  reg.GetHistogram("test.sink.histogram", {1, 2}, "bits").Record(2);
  const MetricsSnapshot snap = reg.Snapshot();

  const std::string json = TraceSink::ToJson(snap);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("test.sink.counter\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"stages\""), std::string::npos);
  // Balanced braces is a cheap well-formedness proxy without a JSON parser.
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    const char ch = json[i];
    if (in_string) {
      if (ch == '\\') ++i;
      else if (ch == '"') in_string = false;
    } else if (ch == '"') {
      in_string = true;
    } else if (ch == '{') {
      ++depth;
    } else if (ch == '}') {
      --depth;
      EXPECT_GE(depth, 0);
    }
  }
  EXPECT_EQ(depth, 0);

  const std::string text = TraceSink::ToText(snap);
  EXPECT_NE(text.find("test.sink.histogram"), std::string::npos);
}

TEST_F(ObsTest, SinkTextRendersEverySection) {
  MetricRegistry& reg = MetricRegistry::Global();
  reg.GetCounter("test.text.counter").Add(41);
  reg.GetGauge("test.text.gauge").Set(17);
  Histogram& h = reg.GetHistogram("test.text.histogram", {4, 8}, "bits");
  h.Record(3);
  h.Record(100);  // Overflow bucket: exercises the "> bound" row.
  StageStats& stage = reg.GetStage("test.text.stage");
  stage.Record(/*cycles=*/1000, /*items=*/250);
  const MetricsSnapshot snap = reg.Snapshot();

  const std::string text = TraceSink::ToText(snap);
  EXPECT_NE(text.find("== metrics (enabled) =="), std::string::npos);
  EXPECT_NE(text.find("counters:"), std::string::npos);
  EXPECT_NE(text.find("test.text.counter"), std::string::npos);
  EXPECT_NE(text.find("41"), std::string::npos);
  EXPECT_NE(text.find("gauges:"), std::string::npos);
  EXPECT_NE(text.find("test.text.gauge"), std::string::npos);
  EXPECT_NE(text.find("histogram test.text.histogram (bits)"), std::string::npos);
  EXPECT_NE(text.find("count=2"), std::string::npos);
  EXPECT_NE(text.find("<= 4"), std::string::npos) << "bucket row missing";
  EXPECT_NE(text.find("> 8"), std::string::npos) << "overflow row missing";
  EXPECT_NE(text.find("(50"), std::string::npos) << "bucket percentage missing";
  EXPECT_NE(text.find("stages:"), std::string::npos);
  EXPECT_NE(text.find("test.text.stage"), std::string::npos);

  // A disabled snapshot renders as such (rendering stays a pure function
  // of the snapshot, not of the live gate).
  MetricsSnapshot disabled = snap;
  disabled.enabled = false;
  EXPECT_NE(TraceSink::ToText(disabled).find("== metrics (disabled) =="),
            std::string::npos);
}

TEST_F(ObsTest, EmitMatchesTheDirectRenderers) {
  MetricRegistry& reg = MetricRegistry::Global();
  reg.GetCounter("test.emit.counter").Add(5);
  const MetricsSnapshot snap = reg.Snapshot();

  std::ostringstream as_json;
  TraceSink::Emit(snap, /*json=*/true, as_json);
  EXPECT_EQ(as_json.str(), TraceSink::ToJson(snap) + "\n");

  std::ostringstream as_text;
  TraceSink::Emit(snap, /*json=*/false, as_text);
  EXPECT_EQ(as_text.str(), TraceSink::ToText(snap));
  EXPECT_NE(as_json.str(), as_text.str());
}

// JSON numbers must parse back to the exact double that was measured:
// bench_diff compares report values bit-for-bit against baselines, so a
// 6-significant-digit rendering would make equal measurements "regress".
TEST(JsonDoubleTest, RoundTripsBitExactWhereSixDigitsLoseBits) {
  // 0.1 + 0.2 needs all 17 significant digits: a %.6g rendering ("0.3")
  // parses back to a *different* binary64. This is the regression the
  // %.17g path in JsonDouble exists to prevent.
  const double awkward = 0.1 + 0.2;  // 0.30000000000000004
  char six[64];
  std::snprintf(six, sizeof(six), "%.6g", awkward);
  ASSERT_NE(std::strtod(six, nullptr), awkward);

  const double cases[] = {awkward,
                          1.0 / 3.0,
                          2.0 / 3.0,
                          7.23,
                          -0.0,
                          0.0,
                          1e-300,
                          123456789.123456789,
                          std::numeric_limits<double>::max(),
                          std::numeric_limits<double>::denorm_min()};
  for (double v : cases) {
    const std::string text = JsonDouble(v);
    const double back = std::strtod(text.c_str(), nullptr);
    EXPECT_EQ(std::memcmp(&back, &v, sizeof v), 0)
        << text << " reparsed to a different bit pattern";
  }
  // Non-finite values are not valid JSON number tokens; they render as 0.
  EXPECT_EQ(JsonDouble(std::numeric_limits<double>::infinity()), "0");
  EXPECT_EQ(JsonDouble(std::nan("")), "0");
}

// ---------------------------------------------------------------------------
// Prometheus text exposition.

TEST(PrometheusExportTest, RendersCountersGaugesAndLabeledFamilies) {
  MetricsSnapshot snap;
  snap.counters.push_back({"io.cache.hit", 42});
  snap.counters.push_back({"io.cache.hit{column=\"temps\"}", 7});
  snap.gauges.push_back({"server.queue_depth{class=\"scan\"}", 13});
  const std::string text = PrometheusText(snap);

  EXPECT_NE(text.find("# TYPE alp_io_cache_hit_total counter\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("\nalp_io_cache_hit_total 42\n"), std::string::npos)
      << text;
  // The labeled variant joins the same family — no second TYPE line.
  EXPECT_NE(text.find("alp_io_cache_hit_total{column=\"temps\"} 7\n"),
            std::string::npos)
      << text;
  EXPECT_EQ(text.find("# TYPE alp_io_cache_hit_total counter",
                      text.find("# TYPE alp_io_cache_hit_total counter") + 1),
            std::string::npos)
      << "duplicate TYPE line:\n" << text;
  EXPECT_NE(text.find("# TYPE alp_server_queue_depth gauge\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("alp_server_queue_depth{class=\"scan\"} 13\n"),
            std::string::npos)
      << text;
  EXPECT_EQ(text.back(), '\n');
}

TEST(PrometheusExportTest, HistogramBucketsAreCumulativeWithInfEqualCount) {
  MetricsSnapshot snap;
  MetricsSnapshot::HistogramSample h;
  h.name = "server.latency_us{class=\"lookup\",tenant=\"t0\"}";
  h.unit = "us";
  h.bounds = {10, 100, 1000};
  h.counts = {3, 2, 1, 4};  // Per-bucket, overflow last.
  h.count = 10;
  h.sum = 12345;
  snap.histograms.push_back(std::move(h));
  const std::string text = PrometheusText(snap);

  const std::string labels = "class=\"lookup\",tenant=\"t0\"";
  EXPECT_NE(text.find("# TYPE alp_server_latency_us histogram\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("alp_server_latency_us_bucket{" + labels +
                      ",le=\"10\"} 3\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("alp_server_latency_us_bucket{" + labels +
                      ",le=\"100\"} 5\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("alp_server_latency_us_bucket{" + labels +
                      ",le=\"1000\"} 6\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("alp_server_latency_us_bucket{" + labels +
                      ",le=\"+Inf\"} 10\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("alp_server_latency_us_sum{" + labels + "} 12345\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("alp_server_latency_us_count{" + labels + "} 10\n"),
            std::string::npos)
      << text;
}

TEST_F(ObsTest, PrometheusTextRoundTripsThroughGlobalRegistry) {
  MetricRegistry& registry = MetricRegistry::Global();
  registry.GetCounter("test.prom.events").Add(5);
  registry
      .GetCounter(LabeledName("test.prom.events", {{"tenant", "acme"}}))
      .Add(2);
  const std::string text = PrometheusText(registry.Snapshot());
  EXPECT_NE(text.find("alp_test_prom_events_total"), std::string::npos);
  EXPECT_NE(text.find("alp_test_prom_events_total{tenant=\"acme\"}"),
            std::string::npos);
  // Registry names always sanitize into the Prometheus charset: every line
  // is `name{labels} value` or a comment, nothing else.
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    if (line[0] == '#') continue;
    const char c = line[0];
    EXPECT_TRUE((c >= 'a' && c <= 'z') || c == '_') << line;
    EXPECT_NE(line.find(' '), std::string::npos) << line;
  }
}

TEST(JsonEscapeTest, EscapesQuotesBackslashesAndControlChars) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("line\nbreak\ttab\rret"), "line\\nbreak\\ttab\\rret");
  EXPECT_EQ(JsonEscape(std::string_view("\x01\x1f", 2)), "\\u0001\\u001f");
  EXPECT_EQ(JsonQuote("say \"hi\""), "\"say \\\"hi\\\"\"");
  // UTF-8 multibyte sequences pass through untouched.
  EXPECT_EQ(JsonEscape("µs"), "µs");
}

// The core observability contract: recording telemetry never changes the
// encoded bytes, serial or parallel, at any worker count. (The disabled
// ALP_OBS=OFF build is additionally pinned against the golden files by
// test_golden in the obs-off CI job.)
TEST_F(ObsTest, TelemetryNeverChangesEncodedBytes) {
  const std::vector<double>& values = testutil::TwoRowgroups().values;

  SetEnabled(false);
  const std::vector<uint8_t> quiet =
      CompressColumn(values.data(), values.size());

  SetEnabled(true);
  MetricRegistry::Global().Reset();
  const std::vector<uint8_t> measured =
      CompressColumn(values.data(), values.size());
  EXPECT_EQ(quiet, measured);

  ThreadPool pool(4);
  const std::vector<uint8_t> measured_parallel =
      CompressColumnParallel(values.data(), values.size(), {}, nullptr, &pool);
  EXPECT_EQ(quiet, measured_parallel);

#if ALP_OBS
  // The instrumented build must actually have recorded pipeline activity.
  const MetricsSnapshot snap = MetricRegistry::Global().Snapshot();
  bool saw_rowgroup_stage = false;
  for (const auto& s : snap.stages) {
    if (s.name == "compress.rowgroup") saw_rowgroup_stage = s.calls > 0;
  }
  EXPECT_TRUE(saw_rowgroup_stage);
#endif
}

// Compiled-out builds must still satisfy the API (no-op) so callers need no
// conditionals; this also keeps the OFF configuration compiling the test.
TEST_F(ObsTest, SpanMacroCompilesInBothConfigurations) {
  StageStats& stage = MetricRegistry::Global().GetStage("test.macro.stage");
  stage.Reset();
  {
    ALP_OBS_SPAN(span, "test.macro.span", 16);
    ALP_OBS_ONLY(MetricRegistry::Global().GetCounter("test.macro.counter").Add(1));
  }
#if ALP_OBS
  bool found = false;
  for (const auto& s : MetricRegistry::Global().Snapshot().stages) {
    if (s.name == "test.macro.span" && s.calls == 1 && s.items == 16) found = true;
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(MetricRegistry::Global().GetCounter("test.macro.counter").Total(), 1u);
#else
  // Nothing recorded, nothing registered: the macros expand to nothing.
  for (const auto& s : MetricRegistry::Global().Snapshot().stages) {
    EXPECT_NE(s.name, "test.macro.span");
  }
#endif
}

// ---------------------------------------------------------------------------
// Hardware counters (obs/perf_counters.h). Nothing here requires a working
// PMU: the subsystem's core contract is that unavailability is data, not an
// error, so every assertion holds on bare metal, in counterless VMs, under a
// hardened perf_event_paranoid, and in ALP_OBS=OFF builds alike.

TEST(PerfCountersTest, ProbeIsStableCachedAndNeverFatal) {
  const PerfProbeResult& probe = PerfProbe();
  // One probe per process: every call returns the same cached verdict.
  EXPECT_EQ(&probe, &PerfProbe());

  const std::string token = PerfAvailabilityName(probe.availability);
  const char* const kTokens[] = {"available", "compiled-out",
                                 "unsupported-platform", "forbidden",
                                 "no-hardware"};
  bool known = false;
  for (const char* t : kTokens) known = known || token == t;
  EXPECT_TRUE(known) << "unknown availability token: " << token;
  EXPECT_FALSE(probe.detail.empty());
  EXPECT_EQ(probe.available(),
            probe.availability == PerfAvailability::kAvailable);
  EXPECT_EQ(PerfAvailable(), probe.available());
#if !ALP_OBS
  EXPECT_EQ(probe.availability, PerfAvailability::kCompiledOut);
#endif
}

TEST(PerfCountersTest, ReadCurrentMatchesProbeVerdict) {
  PerfSample sample;
  const bool ok = PerfReadCurrent(&sample);
  // Reads succeed exactly when the probe said counters are usable, and a
  // failed read leaves the sample invalid so callers cannot consume garbage.
  EXPECT_EQ(ok, PerfAvailable());
  EXPECT_EQ(sample.valid, ok);
  if (ok) {
    PerfSample later;
    ASSERT_TRUE(PerfReadCurrent(&later));
    // Cumulative readings of one thread's group never run backwards.
    EXPECT_GE(later.time_enabled, sample.time_enabled);
    EXPECT_GE(later.cycles, sample.cycles);
  }
}

TEST(PerfCountersTest, DeltaAppliesMultiplexScaling) {
  PerfSample begin;
  begin.valid = true;
  begin.time_enabled = 1000;
  begin.time_running = 1000;
  begin.cycles = 100;
  begin.instructions = 200;
  begin.cache_references = 50;
  begin.cache_misses = 10;
  begin.branch_misses = 4;
  PerfSample end = begin;
  end.time_enabled = 1200;  // Enabled for 200 ns...
  end.time_running = 1100;  // ...on the PMU for 100: counts ran at half
  end.cycles = 600;         // coverage, so raw deltas are doubled.
  end.instructions = 1200;
  end.cache_references = 80;
  end.cache_misses = 25;
  end.branch_misses = 9;

  const PerfSample delta = PerfDelta(begin, end);
  ASSERT_TRUE(delta.valid);
  EXPECT_EQ(delta.time_enabled, 200u);
  EXPECT_EQ(delta.time_running, 100u);
  EXPECT_DOUBLE_EQ(delta.Scale(), 2.0);
  EXPECT_EQ(delta.cycles, 1000u);        // (600 - 100) * 2
  EXPECT_EQ(delta.instructions, 2000u);  // (1200 - 200) * 2
  EXPECT_EQ(delta.cache_references, 60u);
  EXPECT_EQ(delta.cache_misses, 30u);
  EXPECT_EQ(delta.branch_misses, 10u);
  EXPECT_DOUBLE_EQ(delta.Ipc(), 2.0);
  EXPECT_DOUBLE_EQ(delta.CacheMissRate(), 0.5);
}

TEST(PerfCountersTest, DeltaRejectsInvalidAndBackwardsEndpoints) {
  PerfSample valid;
  valid.valid = true;
  valid.time_enabled = 100;
  valid.time_running = 100;
  valid.cycles = 10;
  PerfSample invalid;  // Default-constructed: valid == false.

  EXPECT_FALSE(PerfDelta(invalid, valid).valid);
  EXPECT_FALSE(PerfDelta(valid, invalid).valid);

  // Reversed epochs (a reopened group restarts its clocks): invalid.
  PerfSample earlier = valid;
  earlier.time_enabled = 50;
  EXPECT_FALSE(PerfDelta(valid, earlier).valid);

  // An interval during which the group never owned the PMU has nothing to
  // scale from: invalid, and the caller keeps its rdtsc numbers.
  EXPECT_FALSE(PerfDelta(valid, valid).valid);
}

TEST(PerfCountersTest, ScopedTimerHonorsTheSpanGate) {
  // The per-span gate lives on ScopedTimer: with it closed a span never
  // reads counters; with it open a span folds one delta into its stage
  // exactly when counters exist.
  const bool was_enabled = Enabled();
  const bool was_perf = PerfSpansEnabled();
  SetEnabled(true);
  StageStats& stage = MetricRegistry::Global().GetStage("test.perf.gate");
  stage.Reset();
  volatile uint64_t sink = 0;
  const auto span = [&] {
    ScopedTimer timer(stage, "test.perf.gate", 1);
    for (uint64_t i = 0; i < 100000; ++i) sink = sink + i;
  };

  SetPerfSpansEnabled(false);
  span();
  EXPECT_EQ(stage.Calls(), 1u);
  EXPECT_EQ(stage.PerfCalls(), 0u);

  SetPerfSpansEnabled(true);
  span();
  EXPECT_EQ(stage.Calls(), 2u);
  EXPECT_EQ(stage.PerfCalls(), PerfAvailable() ? 1u : 0u);

  // PerfScope itself has no gate: it arms exactly when counters exist,
  // whatever the span gate says, and Finish never fabricates a delta.
  SetPerfSpansEnabled(false);
  PerfScope scope;
  scope.Arm();
  EXPECT_EQ(scope.armed(), PerfAvailable());
  const PerfSample delta = scope.Finish();
  EXPECT_FALSE(scope.armed());  // Single-shot.
  if (!PerfAvailable()) {
    EXPECT_FALSE(delta.valid);
  }

  SetPerfSpansEnabled(was_perf);
  SetEnabled(was_enabled);
}

TEST_F(ObsTest, StageRecordPerfFlowsToSnapshotAndSink) {
  StageStats& stage = MetricRegistry::Global().GetStage("test.perf.stage");
  stage.Reset();
  stage.Record(/*cycles=*/4000, /*items=*/1024);
  stage.RecordPerf(/*cycles=*/1000, /*instructions=*/2000,
                   /*cache_references=*/300, /*cache_misses=*/30,
                   /*branch_misses=*/10, /*items=*/1024);

  bool found = false;
  for (const auto& s : MetricRegistry::Global().Snapshot().stages) {
    if (s.name != "test.perf.stage") continue;
    found = true;
    EXPECT_EQ(s.perf_calls, 1u);
    EXPECT_EQ(s.perf_cycles, 1000u);
    EXPECT_EQ(s.perf_items, 1024u);
    EXPECT_DOUBLE_EQ(s.Ipc(), 2.0);
    EXPECT_DOUBLE_EQ(s.CacheMissesPerItem(), 30.0 / 1024.0);
    EXPECT_DOUBLE_EQ(s.BranchMissesPerItem(), 10.0 / 1024.0);
    EXPECT_DOUBLE_EQ(s.CacheMissRate(), 0.1);

    MetricsSnapshot one;
    one.enabled = true;
    one.stages.push_back(s);
    const std::string json = TraceSink::ToJson(one);
    EXPECT_NE(json.find("\"perf\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"ipc\":"), std::string::npos) << json;
    const std::string text = TraceSink::ToText(one);
    EXPECT_NE(text.find("ipc="), std::string::npos) << text;
    EXPECT_NE(text.find("cmiss/item="), std::string::npos) << text;
  }
  EXPECT_TRUE(found);

  // A stage no perf-armed span ever hit renders without the perf block, so
  // rdtsc-only hosts see exactly the pre-counter output.
  StageStats& plain = MetricRegistry::Global().GetStage("test.perf.plain");
  plain.Reset();
  plain.Record(100, 10);
  for (const auto& s : MetricRegistry::Global().Snapshot().stages) {
    if (s.name != "test.perf.plain") continue;
    MetricsSnapshot one;
    one.enabled = true;
    one.stages.push_back(s);
    EXPECT_EQ(TraceSink::ToJson(one).find("\"ipc\":"), std::string::npos);
    EXPECT_EQ(TraceSink::ToText(one).find("ipc="), std::string::npos);
  }
}

TEST_F(ObsTest, ObsHealthCountersBypassTheRuntimeGate) {
  RegisterObsHealthMetrics();
  MetricRegistry& reg = MetricRegistry::Global();
  Counter& trace_dropped = reg.GetCounter("obs.trace.dropped");
  Counter& recorder_dropped = reg.GetCounter("obs.recorder.dropped");
  const uint64_t t0 = trace_dropped.Total();
  const uint64_t r0 = recorder_dropped.Total();

  // Loss accounting must survive a closed gate: a process that toggles
  // recording still needs to know telemetry was dropped while it was off.
  SetEnabled(false);
  trace_dropped.AddAlways(2);
  recorder_dropped.AddAlways(1);
  SetEnabled(true);
  EXPECT_EQ(trace_dropped.Total(), t0 + 2);
  EXPECT_EQ(recorder_dropped.Total(), r0 + 1);

  // Registration makes both visible to `alp stats` even at zero.
  bool saw_trace = false, saw_recorder = false;
  for (const auto& c : reg.Snapshot().counters) {
    if (c.name == "obs.trace.dropped") saw_trace = true;
    if (c.name == "obs.recorder.dropped") saw_recorder = true;
  }
  EXPECT_TRUE(saw_trace);
  EXPECT_TRUE(saw_recorder);
}

TEST(FlightRecorderPerfTest, DumpCarriesAggregatedRates) {
  FlightRecorder recorder;
  recorder.Reset(/*trace_id=*/0x1234, "lookup", "t0");

  PerfSample delta;
  delta.valid = true;
  delta.time_enabled = 100;
  delta.time_running = 100;
  delta.cycles = 1000;
  delta.instructions = 2500;
  delta.cache_references = 100;
  delta.cache_misses = 25;
  delta.branch_misses = 7;
  recorder.AddPerf(delta);

  PerfSample ignored;  // Invalid deltas must not count as samples.
  recorder.AddPerf(ignored);
  EXPECT_EQ(recorder.PerfSamples(), 1u);

  recorder.SetOutcome(Status::Ok(), /*queue_ns=*/1000, /*exec_ns=*/2000);
  const std::string json = recorder.ToJson();
  EXPECT_NE(json.find("\"perf\":{\"samples\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"ipc\":2.5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"cache_miss_rate\":0.25"), std::string::npos) << json;

  // A request that never saw a valid delta dumps no perf object at all.
  recorder.Reset(0x5678, "lookup", "t0");
  EXPECT_EQ(recorder.PerfSamples(), 0u);
  EXPECT_EQ(recorder.ToJson().find("\"perf\""), std::string::npos);
}

TEST(PrometheusExportTest, StagePerfFamiliesAppearOnlyWhenMeasured) {
  MetricsSnapshot snap;
  MetricsSnapshot::StageSample covered;
  covered.name = "decode.vector{tier=\"avx2\"}";
  covered.calls = 4;
  covered.cycles = 400;
  covered.items = 4096;
  covered.perf_calls = 2;
  covered.perf_cycles = 200;
  covered.perf_instructions = 500;
  covered.perf_cache_references = 64;
  covered.perf_cache_misses = 8;
  covered.perf_branch_misses = 3;
  covered.perf_items = 2048;
  MetricsSnapshot::StageSample plain;
  plain.name = "decode.vector{tier=\"scalar\"}";
  plain.calls = 1;
  plain.cycles = 100;
  plain.items = 1024;
  snap.stages.push_back(covered);
  snap.stages.push_back(plain);

  const std::string text = PrometheusText(snap);
  EXPECT_NE(
      text.find("alp_decode_vector_instructions_total{tier=\"avx2\"} 500\n"),
      std::string::npos)
      << text;
  EXPECT_NE(
      text.find("alp_decode_vector_cache_misses_total{tier=\"avx2\"} 8\n"),
      std::string::npos)
      << text;
  EXPECT_NE(
      text.find("alp_decode_vector_perf_items_total{tier=\"avx2\"} 2048\n"),
      std::string::npos)
      << text;
  // The uncovered tier contributes no counter families...
  EXPECT_EQ(text.find("_instructions_total{tier=\"scalar\"}"),
            std::string::npos)
      << text;
  // ...but keeps its rdtsc families untouched.
  EXPECT_NE(text.find("alp_decode_vector_cycles_total{tier=\"scalar\"} 100\n"),
            std::string::npos)
      << text;
}

// ---------------------------------------------------------------------------
// Exporter label-value escaping: names registered directly (bypassing
// LabeledName) may carry raw `\`, `"` or newline characters; the exposition
// must escape them so one hostile value cannot break a sample line or
// smuggle a second one.

TEST(PrometheusExportTest, EscapesHostileRawLabelValues) {
  MetricsSnapshot snap;
  snap.counters.push_back(
      {"evil.raw{path=\"C:\\temp\",note=\"say \"hi\"\nbye\"}", 1});
  const std::string text = PrometheusText(snap);
  EXPECT_NE(text.find("alp_evil_raw_total{path=\"C:\\\\temp\","
                      "note=\"say \\\"hi\\\"\\nbye\"} 1\n"),
            std::string::npos)
      << text;
  // No raw newline survives inside any sample line.
  EXPECT_EQ(text.find("\nbye"), std::string::npos) << text;
}

TEST(PrometheusExportTest, LabeledNameEscapesSurviveExportUnchanged) {
  // LabeledName escapes at registration time; the exporter must recognize
  // already-escaped values and not double-escape them.
  const std::string name =
      LabeledName("io.file", {{"path", "C:\\temp\nx"}, {"q", "say \"hi\""}});
  MetricsSnapshot snap;
  snap.counters.push_back({name, 3});
  const std::string text = PrometheusText(snap);
  EXPECT_NE(text.find("path=\"C:\\\\temp\\nx\""), std::string::npos) << text;
  EXPECT_NE(text.find("q=\"say \\\"hi\\\"\""), std::string::npos) << text;
}

#ifdef ALP_TOOLS_DIR

bool HavePython3() {
  return std::system("python3 -c pass >/dev/null 2>&1") == 0;
}

/// Writes \p text to a temp file and runs tools/validate_prometheus.py on
/// it. Returns the linter's exit status (0 = clean), or -1 on setup failure.
int RunPromLinter(const std::string& text, const std::string& tag) {
  const std::string path = ::testing::TempDir() + "test_obs_" + tag + ".prom";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return -1;
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  const std::string cmd = std::string("python3 \"") + ALP_TOOLS_DIR +
                          "/validate_prometheus.py\" \"" + path +
                          "\" >/dev/null 2>&1";
  const int rc = std::system(cmd.c_str());
  std::remove(path.c_str());
  return rc;
}

// The real gate for the escaping rules: exporter output with hostile label
// values, already-escaped LabeledName values, and labeled/unlabeled variants
// of one family must all pass the repo's own Prometheus linter — and the
// linter must reject the raw-backslash shape the exporter promises never to
// emit (so the test would catch a regression on either side).
TEST(PrometheusExportTest, ExporterOutputRoundTripsThroughTheLinter) {
  if (!HavePython3()) GTEST_SKIP() << "python3 not on PATH";

  MetricsSnapshot snap;
  snap.counters.push_back({"evil.lint", 4});  // Unlabeled + labeled family.
  snap.counters.push_back({"evil.lint{v=\"a\\b \"quote\" \nnl\"}", 1});
  snap.counters.push_back(
      {LabeledName("evil.lint", {{"v", "pre \\ \" \n post"}}), 2});
  snap.gauges.push_back({"evil.gauge{v=\"trailing\\\"}", 7});
  EXPECT_EQ(RunPromLinter(PrometheusText(snap), "hostile"), 0);

  // A raw backslash (an escape the format does not define) must fail.
  EXPECT_NE(RunPromLinter("# TYPE alp_bad_total counter\n"
                          "alp_bad_total{k=\"a\\d\"} 1\n",
                          "rawescape"),
            0);

  // An empty registry exports an empty exposition; that lints clean too.
  EXPECT_TRUE(PrometheusText(MetricsSnapshot{}).empty());
  EXPECT_EQ(RunPromLinter(PrometheusText(MetricsSnapshot{}), "empty"), 0);
}

#endif  // ALP_TOOLS_DIR

}  // namespace
}  // namespace alp::obs
