// Request-scoped observability suite: the flight recorder's bounded ring
// and aggregation tables, trace-ID generation and ambient attribution, and
// the end-to-end acceptance path — a request that trips a slow threshold,
// an injected error, or a stall-only fault produces a dump naming its trace
// ID, queue wait, per-stage spans, cache traffic, chunk fetches and kernel
// tier, both in Response::flight_json and in the slow-query log file.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "alp/alp.h"
#include "alp/kernel_dispatch.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/perf_counters.h"
#include "obs/trace_buffer.h"
#include "server/server.h"
#include "util/fault_injection.h"
#include "util/status.h"

namespace alp {
namespace {

using obs::FlightRecorder;
using server::QueryClass;
using server::Request;
using server::Response;
using server::Server;
using server::ServerConfig;

/// RAII: every test that arms faults must leave the global registry clean.
struct FaultGuard {
  FaultGuard() { fault::DisarmAll(); }
  ~FaultGuard() {
    fault::DisarmAll();
    fault::SetEnabled(false);
  }
};

/// Clean decimal data so every vector compresses via ALP.
std::vector<double> ServingData(size_t n) {
  std::vector<double> data(n);
  for (size_t i = 0; i < n; ++i) {
    data[i] = static_cast<double>((i * 37) % 100000) / 100.0 - 250.0;
  }
  return data;
}

/// Completion accounting (slow_queries, flight_dumps) lands *after* a
/// request's future resolves — the worker relocks to update stats — so
/// post-completion counter assertions poll briefly instead of racing it.
template <typename Predicate>
void AwaitStats(const Predicate& predicate) {
  for (int i = 0; i < 5000; ++i) {
    if (predicate()) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  FAIL() << "stats predicate not satisfied within 5s";
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

// ---------------------------------------------------------------------------
// FlightRecorder unit behaviour.

TEST(FlightRecorder, AggregatesCountersAndSpans) {
  FlightRecorder recorder;
  recorder.Reset(0x1234, "scan", "acme");
  recorder.Count("io.cache.hit", 3);
  recorder.Count("io.cache.hit", 2);
  recorder.Count("io.cache.miss");
  recorder.Span({"server.request", 1000, 5000, 1024});
  recorder.Span({"server.request", 5000, 6000, 1024});
  EXPECT_EQ(recorder.trace_id(), 0x1234u);
  EXPECT_EQ(recorder.CounterValue("io.cache.hit"), 5u);
  EXPECT_EQ(recorder.CounterValue("io.cache.miss"), 1u);
  EXPECT_EQ(recorder.CounterValue("never.recorded"), 0u);
  EXPECT_EQ(recorder.SpanCalls("server.request"), 2u);
  EXPECT_EQ(recorder.FaultFires(), 0u);
}

TEST(FlightRecorder, ResetClearsEverything) {
  FlightRecorder recorder;
  recorder.Reset(1, "scan", "a");
  recorder.Count("k", 7);
  recorder.RecordFault("site", /*failed=*/true, /*stall_us=*/10);
  recorder.Reset(2, "aggregate", "b");
  EXPECT_EQ(recorder.trace_id(), 2u);
  EXPECT_EQ(recorder.CounterValue("k"), 0u);
  EXPECT_EQ(recorder.FaultFires(), 0u);
  EXPECT_EQ(recorder.EventCount(), 0u);
  EXPECT_EQ(recorder.DroppedEvents(), 0u);
}

TEST(FlightRecorder, RingDropsOldestAndCountsDrops) {
  FlightRecorder recorder;
  recorder.Reset(9, "scan", "t");
  const size_t pushed = FlightRecorder::kEventCapacity + 10;
  for (size_t i = 0; i < pushed; ++i) recorder.Count("io.cache.hit");
  EXPECT_EQ(recorder.EventCount(), FlightRecorder::kEventCapacity);
  EXPECT_EQ(recorder.DroppedEvents(), 10u);
  // Aggregation is lossless even though ring events dropped.
  EXPECT_EQ(recorder.CounterValue("io.cache.hit"), pushed);
  const std::string json = recorder.ToJson();
  EXPECT_TRUE(Contains(json, "\"events_dropped\":10")) << json;
}

TEST(FlightRecorder, ToJsonCarriesIdentityOutcomeAndFaults) {
  FlightRecorder recorder;
  recorder.Reset(0xdeadbeef, "point_lookup", "tenant-7");
  recorder.Annotate("admit.queue_depth", 3);
  recorder.RecordFault("io.chunk_read", /*failed=*/false, /*stall_us=*/250);
  recorder.SetOutcome(Status::Ok(), /*queue_ns=*/4000, /*exec_ns=*/9000);
  recorder.Label("dump_reason", "fault");
  const std::string json = recorder.ToJson();
  EXPECT_TRUE(Contains(json, "\"trace_id\":\"00000000deadbeef\"")) << json;
  EXPECT_TRUE(Contains(json, "\"class\":\"point_lookup\"")) << json;
  EXPECT_TRUE(Contains(json, "\"tenant\":\"tenant-7\"")) << json;
  EXPECT_TRUE(Contains(json, "\"status\":\"OK\"")) << json;
  EXPECT_TRUE(Contains(json, "\"queue_us\":4")) << json;
  EXPECT_TRUE(Contains(json, "\"exec_us\":9")) << json;
  EXPECT_TRUE(Contains(json, "\"site\":\"io.chunk_read\"")) << json;
  EXPECT_TRUE(Contains(json, "\"stall_us\":250")) << json;
  EXPECT_TRUE(Contains(json, "\"dump_reason\":\"fault\"")) << json;
  // The dump is one JSON line: the slow-query log is JSON-lines format.
  EXPECT_EQ(json.find('\n'), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

// ---------------------------------------------------------------------------
// Trace IDs and ambient attribution.

TEST(TraceId, NewTraceIdsAreNonZeroAndDistinct) {
  std::set<uint64_t> seen;
  for (int i = 0; i < 4096; ++i) {
    const uint64_t id = obs::NewTraceId();
    EXPECT_NE(id, 0u);
    EXPECT_TRUE(seen.insert(id).second) << "duplicate trace id";
  }
}

TEST(TraceId, HexRenderingIsSixteenLowercaseDigits) {
  EXPECT_EQ(obs::TraceIdHex(0), "0000000000000000");
  EXPECT_EQ(obs::TraceIdHex(0xABCDEF), "0000000000abcdef");
  EXPECT_EQ(obs::TraceIdHex(~0ull), "ffffffffffffffff");
  const std::string hex = obs::TraceIdHex(obs::NewTraceId());
  EXPECT_EQ(hex.size(), 16u);
  for (char c : hex) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << hex;
  }
}

TEST(Attribution, ScopedInstallAndNestedRestore) {
  EXPECT_EQ(obs::CurrentFlightRecorder(), nullptr);
  EXPECT_EQ(obs::CurrentTraceId(), 0u);
  FlightRecorder outer_rec;
  FlightRecorder inner_rec;
  {
    obs::ScopedRequestAttribution outer(11, &outer_rec);
    EXPECT_EQ(obs::CurrentFlightRecorder(), &outer_rec);
    EXPECT_EQ(obs::CurrentTraceId(), 11u);
    {
      obs::ScopedRequestAttribution inner(22, &inner_rec);
      EXPECT_EQ(obs::CurrentFlightRecorder(), &inner_rec);
      EXPECT_EQ(obs::CurrentTraceId(), 22u);
    }
    EXPECT_EQ(obs::CurrentFlightRecorder(), &outer_rec);
    EXPECT_EQ(obs::CurrentTraceId(), 11u);
  }
  EXPECT_EQ(obs::CurrentFlightRecorder(), nullptr);
  EXPECT_EQ(obs::CurrentTraceId(), 0u);
}

// ---------------------------------------------------------------------------
// End-to-end through the server.

TEST(RequestObs, ServerAssignsTraceIdAndEchoesCallerProvidedOnes) {
  ServerConfig config;
  config.workers = 2;
  Server server(config);
  const auto data = ServingData(2 * kVectorSize);
  ASSERT_TRUE(server.AddColumn("col", data.data(), data.size()).ok());

  Request assigned;
  assigned.column = "col";
  assigned.query_class = QueryClass::kAggregate;
  const Response r1 = server.Execute(assigned);
  ASSERT_TRUE(r1.status.ok()) << r1.status.ToString();
  EXPECT_NE(r1.trace_id, 0u);

  Request provided = assigned;
  provided.trace_id = 0xfeedface;
  const Response r2 = server.Execute(provided);
  ASSERT_TRUE(r2.status.ok());
  EXPECT_EQ(r2.trace_id, 0xfeedfaceu);
}

TEST(RequestObs, FastSuccessDropsRecorderForFree) {
  FaultGuard guard;
  ServerConfig config;
  config.workers = 1;
  config.flight_recorder = true;  // Armed, but no dump condition will trip.
  Server server(config);
  const auto data = ServingData(kVectorSize);
  ASSERT_TRUE(server.AddColumn("col", data.data(), data.size()).ok());

  Request request;
  request.column = "col";
  request.query_class = QueryClass::kPointLookup;
  const Response r = server.Execute(request);
  ASSERT_TRUE(r.status.ok());
  EXPECT_TRUE(r.flight_json.empty());
  AwaitStats([&] { return server.stats().completed == 1; });
  EXPECT_EQ(server.stats().flight_dumps, 0u);
}

TEST(RequestObs, SlowRequestDumpsQueueExecSpansCacheAndKernelTier) {
  FaultGuard guard;
  ServerConfig config;
  config.workers = 1;
  config.slow_query_us = 1;  // Everything is "slow": deterministic dumps.
  config.cache_bytes = 4 << 20;
  Server server(config);
  const auto data = ServingData(3 * kVectorSize + 77);
  ASSERT_TRUE(server.AddColumn("col", data.data(), data.size()).ok());

  Request request;
  request.column = "col";
  request.query_class = QueryClass::kScan;
  request.tenant = "acme";
  const Response cold = server.Execute(request);
  ASSERT_TRUE(cold.status.ok()) << cold.status.ToString();
  ASSERT_FALSE(cold.flight_json.empty());
  const std::string& dump = cold.flight_json;

  // Identity, timing, reason and kernel tier — the acceptance-criteria
  // fields a tail-latency investigation starts from.
  EXPECT_TRUE(Contains(dump, "\"trace_id\":\"" + obs::TraceIdHex(cold.trace_id) +
                                 "\""))
      << dump;
  EXPECT_TRUE(Contains(dump, "\"class\":\"scan\"")) << dump;
  EXPECT_TRUE(Contains(dump, "\"tenant\":\"acme\"")) << dump;
  EXPECT_TRUE(Contains(dump, "\"queue_us\":")) << dump;
  EXPECT_TRUE(Contains(dump, "\"exec_us\":")) << dump;
  EXPECT_TRUE(Contains(dump, "\"dump_reason\":\"slow\"")) << dump;
  EXPECT_TRUE(Contains(dump, std::string("\"kernel_tier\":\"") +
                                 kernels::ActiveTierName() + "\""))
      << dump;
  // Admission annotations are recorded unconditionally once armed.
  EXPECT_TRUE(Contains(dump, "admit.queue_depth")) << dump;
#if ALP_OBS
  // Per-stage spans and per-vector IO counters ride the ALP_OBS sites.
  EXPECT_TRUE(Contains(dump, "\"server.request\"")) << dump;
  EXPECT_TRUE(Contains(dump, "\"io.cache.miss\"")) << dump;
  EXPECT_TRUE(Contains(dump, "\"io.chunk.reads\"")) << dump;
  EXPECT_TRUE(Contains(dump, "\"io.chunk.bytes\"")) << dump;
  EXPECT_TRUE(Contains(dump, "\"decode.exceptions\"")) << dump;

  // A second identical request decodes from the now-warm cache: its dump
  // attributes hits instead of chunk fetches.
  const Response warm = server.Execute(request);
  ASSERT_TRUE(warm.status.ok());
  ASSERT_FALSE(warm.flight_json.empty());
  EXPECT_TRUE(Contains(warm.flight_json, "\"io.cache.hit\""))
      << warm.flight_json;
#endif
  AwaitStats([&] { return server.stats().slow_queries >= 1; });
  AwaitStats([&] { return server.stats().flight_dumps >= 1; });
}

TEST(RequestObs, InjectedErrorDumpsWithFaultSiteAttribution) {
  FaultGuard guard;
  ServerConfig config;
  config.workers = 1;
  config.flight_recorder = true;
  Server server(config);
  const auto data = ServingData(kVectorSize);
  ASSERT_TRUE(server.AddColumn("col", data.data(), data.size()).ok());

  fault::FaultSpec spec;
  spec.code = StatusCode::kIo;
  spec.message = "injected request-io error";
  fault::Arm("server.request_io", spec);

  Request request;
  request.column = "col";
  request.query_class = QueryClass::kScan;
  const Response r = server.Execute(request);
  EXPECT_EQ(r.status.code(), StatusCode::kIo);
  ASSERT_FALSE(r.flight_json.empty());
  EXPECT_TRUE(Contains(r.flight_json, "\"dump_reason\":\"error\""))
      << r.flight_json;
  EXPECT_TRUE(Contains(r.flight_json, "\"status\":\"IO\"")) << r.flight_json;
  EXPECT_TRUE(Contains(r.flight_json, "\"site\":\"server.request_io\""))
      << r.flight_json;
  EXPECT_TRUE(Contains(r.flight_json, "\"failed\":true")) << r.flight_json;
}

TEST(RequestObs, StallOnlyFaultOnSuccessfulRequestStillDumps) {
  // The key acceptance case: a stall-only fault models a slow storage read.
  // The request SUCCEEDS, yet the dump must name the stalled site — that is
  // the whole point of attributing stalls to the flight recorder.
  FaultGuard guard;
  ServerConfig config;
  config.workers = 1;
  config.flight_recorder = true;
  Server server(config);
  const auto data = ServingData(kVectorSize);
  ASSERT_TRUE(server.AddColumn("col", data.data(), data.size()).ok());

  fault::FaultSpec stall;
  stall.stall_only = true;
  stall.stall_us = 500;
  fault::Arm("io.chunk_read", stall);

  Request request;
  request.column = "col";
  request.query_class = QueryClass::kScan;
  const Response r = server.Execute(request);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  ASSERT_FALSE(r.flight_json.empty());
  EXPECT_TRUE(Contains(r.flight_json, "\"dump_reason\":\"fault\""))
      << r.flight_json;
  EXPECT_TRUE(Contains(r.flight_json, "\"site\":\"io.chunk_read\""))
      << r.flight_json;
  EXPECT_TRUE(Contains(r.flight_json, "\"failed\":false")) << r.flight_json;
  EXPECT_TRUE(Contains(r.flight_json, "\"stall_us\":500")) << r.flight_json;
}

TEST(RequestObs, SlowLogCollectsOneJsonLinePerDump) {
  FaultGuard guard;
  const std::string log_path = TempPath("request_obs_slow.log");
  std::remove(log_path.c_str());

  uint64_t dumps = 0;
  {
    ServerConfig config;
    config.workers = 2;
    config.slow_query_us = 1;
    config.slow_log_path = log_path;
    Server server(config);
    const auto data = ServingData(2 * kVectorSize);
    ASSERT_TRUE(server.AddColumn("col", data.data(), data.size()).ok());

    for (int i = 0; i < 6; ++i) {
      Request request;
      request.column = "col";
      request.query_class =
          i % 2 == 0 ? QueryClass::kScan : QueryClass::kAggregate;
      request.tenant = i % 3 == 0 ? "alpha" : "beta";
      const Response r = server.Execute(request);
      ASSERT_TRUE(r.status.ok());
      EXPECT_FALSE(r.flight_json.empty());
    }
    AwaitStats([&] { return server.stats().flight_dumps == 6; });
    dumps = server.stats().flight_dumps;
    server.Shutdown();  // Flushes and closes the log.
  }
  EXPECT_EQ(dumps, 6u);

  std::ifstream log(log_path);
  ASSERT_TRUE(log.is_open()) << log_path;
  std::string line;
  size_t lines = 0;
  while (std::getline(log, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{') << line;
    EXPECT_EQ(line.back(), '}') << line;
    EXPECT_TRUE(Contains(line, "\"trace_id\":\"")) << line;
    EXPECT_TRUE(Contains(line, "\"dump_reason\":\"slow\"")) << line;
    ++lines;
  }
  EXPECT_EQ(lines, dumps);
  std::remove(log_path.c_str());
}

TEST(RequestObs, OneSpanTellsTheSameStoryToEveryObserver) {
  // ScopedTimer builds one record per span and hands it to the stage
  // registry, the trace ring and the flight recorder: one served request's
  // server.request span must read the same in all three.
  FaultGuard guard;
  const bool was_enabled = obs::Enabled();
  obs::SetEnabled(true);
  obs::StageStats& stage =
      obs::MetricRegistry::Global().GetStage("server.request");
  stage.Reset();
  obs::StartTracing();

  ServerConfig config;
  config.workers = 1;
  config.slow_query_us = 1;  // Every request dumps.
  Server server(config);
  const auto data = ServingData(2 * kVectorSize);
  ASSERT_TRUE(server.AddColumn("col", data.data(), data.size()).ok());
  Request request;
  request.column = "col";
  request.query_class = QueryClass::kScan;
  const Response r = server.Execute(request);

  obs::StopTracing();
  const std::vector<obs::TraceSpan> spans = obs::CollectTraceSpans();
  obs::ResetTrace();
  const obs::MetricsSnapshot snapshot = obs::MetricRegistry::Global().Snapshot();
  obs::SetEnabled(was_enabled);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  ASSERT_FALSE(r.flight_json.empty());

#if ALP_OBS
  // The stage snapshot: one call, one item.
  const obs::MetricsSnapshot::StageSample* sample = nullptr;
  for (const auto& s : snapshot.stages) {
    if (s.name == "server.request") sample = &s;
  }
  ASSERT_NE(sample, nullptr);
  EXPECT_EQ(sample->calls, 1u);
  EXPECT_EQ(sample->items, 1u);

  // The trace ring: the same span, stamped with the request's trace ID and
  // covering exactly the cycles the stage recorded.
  std::vector<const obs::TraceSpan*> traced;
  for (const obs::TraceSpan& s : spans) {
    if (s.name == "server.request") traced.push_back(&s);
  }
  ASSERT_EQ(traced.size(), 1u);
  EXPECT_EQ(traced[0]->trace_id, r.trace_id);
  EXPECT_EQ(traced[0]->items, sample->items);
  EXPECT_EQ(traced[0]->end_cycles - traced[0]->begin_cycles, sample->cycles);

  // The dump: the same stage entry.
  const std::string& dump = r.flight_json;
  const size_t at = dump.find("\"server.request\":{\"calls\":");
  ASSERT_NE(at, std::string::npos) << dump;
  const std::string entry = dump.substr(at, dump.find('}', at) - at);
  EXPECT_TRUE(Contains(entry, "\"calls\":1,")) << entry;
  EXPECT_TRUE(Contains(entry, "\"items\":1")) << entry;
#else
  EXPECT_TRUE(spans.empty());
#endif
}

TEST(RequestObs, PerfSpansLeaveTheDumpWithOneSample) {
  // Per-span perf makes every span read counters, but those deltas go to
  // the spans' stages only. The recorder gets the server's one interval
  // around the whole execute, so the dump counts the request's cycles once.
  FaultGuard guard;
  const bool was_enabled = obs::Enabled();
  const bool was_perf = obs::PerfSpansEnabled();
  obs::SetEnabled(true);
  obs::SetPerfSpansEnabled(true);

  ServerConfig config;
  config.workers = 1;
  config.slow_query_us = 1;  // Every request dumps.
  Server server(config);
  const auto data = ServingData(2 * kVectorSize);
  ASSERT_TRUE(server.AddColumn("col", data.data(), data.size()).ok());
  Request request;
  request.column = "col";
  request.query_class = QueryClass::kScan;
  const Response r = server.Execute(request);

  obs::SetPerfSpansEnabled(was_perf);
  obs::SetEnabled(was_enabled);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  ASSERT_FALSE(r.flight_json.empty());
  if (obs::PerfAvailable()) {
    EXPECT_TRUE(Contains(r.flight_json, "\"perf\":{\"samples\":1,"))
        << r.flight_json;
  } else {
    EXPECT_FALSE(Contains(r.flight_json, "\"perf\"")) << r.flight_json;
  }
}

}  // namespace
}  // namespace alp
