// Serving-layer suite: admission control, load shedding, deadlines and
// cooperative cancellation, fault injection, and the no-partial-results
// guarantee. The concurrency tests are written to be TSan-clean — every
// cross-thread observation goes through the server's own synchronization
// (futures, stats snapshots) or explicit atomics.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <future>
#include <random>
#include <thread>
#include <vector>

#include "alp/alp.h"
#include "alp/pushdown.h"
#include "engine/column_store.h"
#include "engine/operators.h"
#include "obs/metrics.h"
#include "server/server.h"
#include "util/bits.h"
#include "util/cancellation.h"
#include "util/fault_injection.h"
#include "util/status.h"

namespace alp {
namespace {

using server::QueryClass;
using server::Request;
using server::Response;
using server::Server;
using server::ServerConfig;
using server::ServerStats;

/// RAII: every test that arms faults must leave the global registry clean.
struct FaultGuard {
  FaultGuard() { fault::DisarmAll(); }
  ~FaultGuard() {
    fault::DisarmAll();
    fault::SetEnabled(false);
  }
};

/// Clean decimal data (no NaN/inf specials — aggregate tests compare sums,
/// and NaN != NaN would fail them spuriously). Values span [-5000, 5000]
/// with two decimal digits, so every vector compresses via ALP.
std::vector<double> ServingData(size_t n) {
  std::mt19937_64 rng(1234);
  std::vector<double> data(n);
  for (auto& v : data) {
    const int64_t d = static_cast<int64_t>(rng() % 1000000) - 500000;
    v = static_cast<double>(d) / 100.0;
  }
  return data;
}

/// SUM's definition (engine/operators.h): each vector's striped sum, added
/// in index order into its rowgroup's partial, the partials added in order.
/// The server's unfiltered aggregate must return exactly these bits.
double StripedSum(const std::vector<double>& values) {
  double total = 0.0;
  for (size_t rg = 0; rg < values.size(); rg += kRowgroupSize) {
    const size_t rg_end = std::min(values.size(), rg + kRowgroupSize);
    double partial = 0.0;
    for (size_t v = rg; v < rg_end; v += kVectorSize) {
      const size_t len = std::min<size_t>(kVectorSize, rg_end - v);
      partial += pushdown::StripedSumAll(values.data() + v,
                                         static_cast<unsigned>(len));
    }
    total += partial;
  }
  return total;
}

/// Completion accounting lands *after* a request's future resolves (the
/// worker relocks to update stats), so tests that assert on post-completion
/// counters poll briefly instead of racing the worker.
template <typename Predicate>
void AwaitStats(const Predicate& predicate) {
  for (int i = 0; i < 5000; ++i) {
    if (predicate()) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  FAIL() << "stats predicate not satisfied within 5s";
}

// ---------------------------------------------------------------------------
// Cancellation / deadline primitives.

TEST(Cancellation, TokenStartsClearAndLatches) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  token.Cancel();
  EXPECT_TRUE(token.cancelled());
  token.Cancel();  // Idempotent.
  EXPECT_TRUE(token.cancelled());
}

TEST(Cancellation, InfiniteDeadlineNeverExpires) {
  Deadline d;
  EXPECT_TRUE(d.infinite());
  EXPECT_FALSE(d.expired());
  EXPECT_FALSE(Deadline::Infinite().expired());
}

TEST(Cancellation, PastDeadlineExpires) {
  const Deadline d = Deadline::After(std::chrono::nanoseconds(0));
  EXPECT_FALSE(d.infinite());
  EXPECT_TRUE(d.expired());
  EXPECT_EQ(d.remaining().count(), 0);
}

TEST(Cancellation, OpContextPrefersCancellationOverDeadline) {
  CancelToken token;
  token.Cancel();
  OpContext ctx;
  ctx.cancel = &token;
  ctx.deadline = Deadline::After(std::chrono::nanoseconds(0));
  // Both conditions hold; cancellation wins so the Status is deterministic.
  EXPECT_EQ(ctx.Check().code(), StatusCode::kCancelled);
}

TEST(Cancellation, DefaultOpContextIsOk) {
  OpContext ctx;
  EXPECT_TRUE(ctx.Check().ok());
}

// ---------------------------------------------------------------------------
// Fault-injection harness.

TEST(FaultInjection, DisabledByDefaultAndZeroCostCheck) {
  FaultGuard guard;
  EXPECT_FALSE(fault::Enabled());
  EXPECT_TRUE(fault::Check("never.armed").ok());
}

TEST(FaultInjection, ArmedSiteFiresWithConfiguredStatus) {
  FaultGuard guard;
  fault::FaultSpec spec;
  spec.code = StatusCode::kChecksumMismatch;
  spec.message = "injected checksum fault";
  fault::Arm("test.site", spec);
  EXPECT_TRUE(fault::Enabled());  // Arm enables the global gate.
  const Status s = fault::Check("test.site");
  EXPECT_EQ(s.code(), StatusCode::kChecksumMismatch);
  EXPECT_EQ(fault::InjectedCount("test.site"), 1u);
  EXPECT_TRUE(fault::Check("other.site").ok());
  fault::Disarm("test.site");
  EXPECT_TRUE(fault::Check("test.site").ok());
}

TEST(FaultInjection, EveryNthFiresDeterministically) {
  FaultGuard guard;
  fault::FaultSpec spec;
  spec.code = StatusCode::kIo;
  spec.every_nth = 3;
  fault::Arm("test.nth", spec);
  int fired = 0;
  for (int i = 0; i < 9; ++i) {
    if (!fault::Check("test.nth").ok()) ++fired;
  }
  EXPECT_EQ(fired, 3);  // Arrivals 3, 6, 9.
}

TEST(FaultInjection, ProbabilityIsReproduciblePerSeed) {
  FaultGuard guard;
  const auto run = [](uint64_t seed) {
    fault::DisarmAll();
    fault::SetSeed(seed);
    fault::FaultSpec spec;
    spec.probability = 0.5;
    fault::Arm("test.prob", spec);
    std::vector<bool> outcomes;
    for (int i = 0; i < 64; ++i) {
      outcomes.push_back(!fault::Check("test.prob").ok());
    }
    return outcomes;
  };
  const auto a = run(7);
  const auto b = run(7);
  const auto c = run(8);
  EXPECT_EQ(a, b);  // Same seed: identical firing pattern.
  EXPECT_NE(a, c);  // Different seed: (overwhelmingly) different pattern.
}

TEST(FaultInjection, StallOnlyDelaysWithoutFailing) {
  FaultGuard guard;
  fault::FaultSpec spec;
  spec.stall_us = 1000;
  spec.stall_only = true;
  fault::Arm("test.stall", spec);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_TRUE(fault::Check("test.stall").ok());
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_GE(std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count(),
            1000);
}

// ---------------------------------------------------------------------------
// Cancellation through the decode / validate / operator layers.

TEST(CancellationThreading, TryDecodeAllStopsWhenCancelled) {
  const auto values = ServingData(8 * kVectorSize);
  const auto buffer = CompressColumn(values.data(), values.size());
  auto reader = ColumnReader<double>::Open(buffer.data(), buffer.size());
  ASSERT_TRUE(reader.ok());

  CancelToken token;
  token.Cancel();
  OpContext ctx;
  ctx.cancel = &token;
  std::vector<double> out(values.size(), -1.0);
  const Status s = reader->TryDecodeAll(out.data(), &ctx);
  EXPECT_EQ(s.code(), StatusCode::kCancelled);
}

TEST(CancellationThreading, ExpiredDeadlineStopsDecodeAndValidate) {
  const auto values = ServingData(4 * kVectorSize);
  const auto buffer = CompressColumn(values.data(), values.size());
  auto reader = ColumnReader<double>::Open(buffer.data(), buffer.size());
  ASSERT_TRUE(reader.ok());

  OpContext ctx;
  ctx.deadline = Deadline::After(std::chrono::nanoseconds(0));
  std::vector<double> out(values.size());
  EXPECT_EQ(reader->TryDecodeAll(out.data(), &ctx).code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(reader->TryDecodeVector(0, out.data(), &ctx).code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(ValidateColumnEx<double>(buffer.data(), buffer.size(), &ctx).code(),
            StatusCode::kDeadlineExceeded);
  for (unsigned threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(reader->TryDecodeAll(out.data(), &ctx, &pool).code(),
              StatusCode::kDeadlineExceeded)
        << threads << " threads";
    EXPECT_EQ(ValidateColumnEx<double>(buffer.data(), buffer.size(), &ctx,
                                       &pool)
                  .code(),
              StatusCode::kDeadlineExceeded)
        << threads << " threads";
  }
}

TEST(CancellationThreading, EngineOperatorsReportCancellation) {
  const auto values = ServingData(3 * kRowgroupSize);
  engine::StoredColumn alp =
      engine::StoredColumn::MakeAlp(values.data(), values.size());
  engine::StoredColumn seekable =
      engine::StoredColumn::MakeAlp(values.data(), values.size());
  ASSERT_TRUE(seekable.EnableSeekable(nullptr).ok());
  engine::StoredColumn codec = engine::StoredColumn::MakeCodec(
      codecs::MakeGorilla(), values.data(), values.size());

  CancelToken token;
  token.Cancel();
  OpContext ctx;
  ctx.cancel = &token;
  for (const engine::StoredColumn* column : {&alp, &seekable, &codec}) {
    SCOPED_TRACE(column->scheme() + (column->Seekable() ? " (seekable)" : ""));
    for (unsigned threads : {1u, 3u}) {
      ThreadPool pool(threads);
      EXPECT_EQ(engine::RunScan(*column, pool, &ctx).status.code(),
                StatusCode::kCancelled);
      EXPECT_EQ(engine::RunSum(*column, pool, &ctx).status.code(),
                StatusCode::kCancelled);
      EXPECT_EQ(
          engine::RunFilterSum(*column, 0.0, 1.0, pool, &ctx).status.code(),
          StatusCode::kCancelled);
      double lo = 0.0;
      double hi = 0.0;
      EXPECT_EQ(
          engine::RunMinMax(*column, pool, &lo, &hi, &ctx).status.code(),
          StatusCode::kCancelled);
    }
  }
}

TEST(CancellationThreading, NullContextStillDecodesEverything) {
  const auto values = ServingData(2 * kVectorSize);
  const auto buffer = CompressColumn(values.data(), values.size());
  auto reader = ColumnReader<double>::Open(buffer.data(), buffer.size());
  ASSERT_TRUE(reader.ok());
  std::vector<double> out(values.size());
  ASSERT_TRUE(reader->TryDecodeAll(out.data()).ok());
  EXPECT_EQ(std::memcmp(out.data(), values.data(), values.size() * sizeof(double)),
            0);
}

// Status parity under fault injection: the engine's morsel loop must report
// the same (lowest-rowgroup) Status at every worker count when a
// deterministic fault is armed.
TEST(CancellationThreading, EngineFaultStatusParityAcrossWorkerCounts) {
  FaultGuard guard;
  const auto values = ServingData(4 * kRowgroupSize);
  engine::StoredColumn column =
      engine::StoredColumn::MakeAlp(values.data(), values.size());

  fault::FaultSpec spec;
  spec.code = StatusCode::kIo;
  spec.message = "injected rowgroup fault";
  fault::Arm("engine.rowgroup", spec);  // every_nth=1: fires on every morsel.

  Status first;
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    const engine::QueryResult result = engine::RunSum(column, pool);
    ASSERT_FALSE(result.status.ok());
    if (threads == 1) {
      first = result.status;
    } else {
      EXPECT_EQ(result.status.code(), first.code()) << threads << " threads";
      EXPECT_EQ(result.status.ToString(), first.ToString())
          << threads << " threads";
    }
  }
}

// ---------------------------------------------------------------------------
// Server: catalog, execution correctness, byte identity.

TEST(Server, UnknownColumnIsNotFound) {
  Server server({.workers = 2});
  Request request;
  request.column = "nope";
  const Response r = server.Execute(std::move(request));
  EXPECT_EQ(r.status.code(), StatusCode::kNotFound);
  EXPECT_EQ(server.stats().not_found, 1u);
}

TEST(Server, NonAlpColumnsAreRejectedAtRegistration) {
  const auto values = ServingData(kVectorSize);
  Server server({.workers = 1});
  EXPECT_EQ(
      server.AddColumn("raw", engine::StoredColumn::MakeUncompressed(values))
          .code(),
      StatusCode::kCorrupt);
}

TEST(Server, SnapshotWriteFailuresAreCounted) {
  // The snapshot thread has no caller to hand a failed write to, so it
  // counts it. A path below a regular file fails every write, the final one
  // at shutdown included.
  const std::string blocker = testing::TempDir() + "snapshot_blocker";
  std::ofstream(blocker) << "not a directory";
  const bool was_enabled = obs::Enabled();
  obs::SetEnabled(true);
  obs::Counter& failed =
      obs::MetricRegistry::Global().GetCounter("server.snapshot_write_failed");
  const uint64_t before = failed.Total();
  {
    Server server({.workers = 1,
                   .snapshot_period_ms = 1,
                   .snapshot_path = blocker + "/metrics.prom"});
  }
  obs::SetEnabled(was_enabled);
#if ALP_OBS
  EXPECT_GE(failed.Total(), before + 1);
#else
  EXPECT_EQ(failed.Total(), before);
#endif
}

TEST(Server, ScanReturnsByteIdenticalValues) {
  const auto values = ServingData(kRowgroupSize + 3 * kVectorSize + 17);
  // The scan checksum: each vector's first value, added in vector order.
  double first_value_sum = 0.0;
  for (size_t i = 0; i < values.size(); i += kVectorSize) {
    first_value_sum += values[i];
  }
  for (unsigned workers : {1u, 2u, 4u}) {
    Server server({.workers = workers});
    ASSERT_TRUE(server.AddColumn("col", values.data(), values.size()).ok());
    Request request;
    request.column = "col";
    request.query_class = QueryClass::kScan;
    request.return_values = true;
    const Response r = server.Execute(std::move(request));
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    ASSERT_EQ(r.values.size(), values.size());
    EXPECT_EQ(std::memcmp(r.values.data(), values.data(),
                          values.size() * sizeof(double)),
              0)
        << workers << " workers";
    EXPECT_EQ(r.tuples, values.size());
    EXPECT_EQ(BitsOf(r.sum), BitsOf(first_value_sum));

    // Without return_values: the same checksum and count, no values.
    Request sum_only;
    sum_only.column = "col";
    sum_only.query_class = QueryClass::kScan;
    const Response s = server.Execute(std::move(sum_only));
    ASSERT_TRUE(s.status.ok()) << s.status.ToString();
    EXPECT_EQ(BitsOf(s.sum), BitsOf(r.sum));
    EXPECT_EQ(s.tuples, r.tuples);
    EXPECT_TRUE(s.values.empty());
  }
}

TEST(Server, PointLookupReturnsTheExactVector) {
  const auto values = ServingData(5 * kVectorSize);
  Server server({.workers = 2});
  ASSERT_TRUE(server.AddColumn("col", values.data(), values.size()).ok());

  Request request;
  request.column = "col";
  request.query_class = QueryClass::kPointLookup;
  request.vector_index = 3;
  const Response r = server.Execute(std::move(request));
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  ASSERT_EQ(r.values.size(), kVectorSize);
  EXPECT_EQ(std::memcmp(r.values.data(), values.data() + 3 * kVectorSize,
                        kVectorSize * sizeof(double)),
            0);
  EXPECT_EQ(BitsOf(r.sum),
            BitsOf(pushdown::StripedSumAll(values.data() + 3 * kVectorSize,
                                           kVectorSize)));

  Request out_of_range;
  out_of_range.column = "col";
  out_of_range.query_class = QueryClass::kPointLookup;
  out_of_range.vector_index = 1000;
  EXPECT_EQ(server.Execute(std::move(out_of_range)).status.code(),
            StatusCode::kNotFound);
}

TEST(Server, AggregateMatchesStripedSumAndUsesZoneMaps) {
  const auto values = ServingData(2 * kRowgroupSize + 2 * kVectorSize);
  Server server({.workers = 2});
  ASSERT_TRUE(server.AddColumn("col", values.data(), values.size()).ok());

  // Bit-exact against SUM's definition and against the engine's SUM on
  // one worker, which folds in the same order.
  const double expected = StripedSum(values);
  ThreadPool pool(1);
  const engine::StoredColumn column =
      engine::StoredColumn::MakeAlp(values.data(), values.size());
  EXPECT_EQ(BitsOf(engine::RunSum(column, pool).sum), BitsOf(expected));
  Request request;
  request.column = "col";
  request.query_class = QueryClass::kAggregate;
  const Response r = server.Execute(std::move(request));
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(BitsOf(r.sum), BitsOf(expected))
      << "sum=" << r.sum << " expected=" << expected;
  EXPECT_EQ(r.tuples, values.size());

  // A filter that excludes every value must skip every vector via the zone
  // maps and sum to zero.
  Request filtered;
  filtered.column = "col";
  filtered.query_class = QueryClass::kAggregate;
  filtered.has_filter = true;
  filtered.filter_lo = 1e300;
  filtered.filter_hi = 1e301;
  const Response f = server.Execute(std::move(filtered));
  ASSERT_TRUE(f.status.ok());
  EXPECT_EQ(f.sum, 0.0);
  EXPECT_EQ(f.vectors_skipped, values.size() / kVectorSize);

  // A band that cuts vectors in two rowgroups, over a noisy ramp whose zone
  // maps discriminate. The filtered aggregate adds every vector's survivor
  // sum into one running sum, in index order (no rowgroup partials).
  std::vector<double> ramp(2 * kRowgroupSize + 2 * kVectorSize);
  std::mt19937_64 rng(99);
  for (size_t i = 0; i < ramp.size(); ++i) {
    ramp[i] = static_cast<double>(i + rng() % 100) / 100.0;
  }
  ASSERT_TRUE(server.AddColumn("ramp", ramp.data(), ramp.size()).ok());
  const double lo = 500.0;
  const double hi = 1234.0;
  double flat = 0.0;
  size_t tuples = 0;
  for (size_t v = 0; v < ramp.size(); v += kVectorSize) {
    const size_t end = std::min(ramp.size(), v + kVectorSize);
    pushdown::SurvivorSum ss;
    for (size_t i = v; i < end; ++i) {
      ss.AddPredicated(ramp[i], ramp[i] >= lo && ramp[i] <= hi);
    }
    flat += ss.Reduce();
    const auto [min, max] = std::minmax_element(ramp.begin() + v, ramp.begin() + end);
    if (*min <= hi && *max >= lo) tuples += end - v;
  }
  const engine::StoredColumn ramp_column =
      engine::StoredColumn::MakeAlp(ramp.data(), ramp.size());
  const engine::QueryResult engine_band =
      engine::RunFilterSum(ramp_column, lo, hi, pool);
  ASSERT_TRUE(engine_band.status.ok());
  ASSERT_GT(engine_band.vectors_skipped, 0u);
  ASSERT_GT(engine_band.vectors_packed_eval, 0u);
  // The band tells the two summation orders apart.
  EXPECT_NE(BitsOf(engine_band.sum), BitsOf(flat));
  Request band;
  band.column = "ramp";
  band.query_class = QueryClass::kAggregate;
  band.has_filter = true;
  band.filter_lo = lo;
  band.filter_hi = hi;
  const Response b = server.Execute(std::move(band));
  ASSERT_TRUE(b.status.ok()) << b.status.ToString();
  EXPECT_EQ(BitsOf(b.sum), BitsOf(flat)) << "sum=" << b.sum << " flat=" << flat;
  EXPECT_EQ(b.vectors_skipped, engine_band.vectors_skipped);
  EXPECT_EQ(b.vectors_packed_eval, engine_band.vectors_packed_eval);
  EXPECT_EQ(b.tuples, tuples);
}

TEST(Server, ByteIdenticalAcrossConcurrentLoadAtEveryWorkerCount) {
  const auto values = ServingData(kRowgroupSize + 11);
  for (unsigned workers : {1u, 2u, 4u}) {
    Server server({.workers = workers, .queue_capacity = 512});
    ASSERT_TRUE(server.AddColumn("col", values.data(), values.size()).ok());
    std::vector<std::future<Response>> futures;
    for (int i = 0; i < 64; ++i) {
      Request request;
      request.column = "col";
      request.query_class = QueryClass::kScan;
      request.return_values = true;
      futures.push_back(server.Submit(std::move(request)));
    }
    for (auto& future : futures) {
      const Response r = future.get();
      ASSERT_TRUE(r.status.ok()) << r.status.ToString();
      ASSERT_EQ(r.values.size(), values.size());
      ASSERT_EQ(std::memcmp(r.values.data(), values.data(),
                            values.size() * sizeof(double)),
                0)
          << workers << " workers";
    }
  }
}

// ---------------------------------------------------------------------------
// Server: deadlines, cancellation, no-partial-results.

TEST(Server, ExpiredDeadlineNeverProducesPartialResults) {
  const auto values = ServingData(2 * kRowgroupSize);
  Server server({.workers = 2});
  ASSERT_TRUE(server.AddColumn("col", values.data(), values.size()).ok());

  Request request;
  request.column = "col";
  request.query_class = QueryClass::kScan;
  request.return_values = true;
  request.deadline = Deadline::After(std::chrono::nanoseconds(0));
  const Response r = server.Execute(std::move(request));
  EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(r.values.empty());  // No partial output, ever.
  EXPECT_EQ(r.sum, 0.0);
  EXPECT_EQ(r.tuples, 0u);
  EXPECT_GE(server.stats().deadline_missed, 1u);
}

TEST(Server, CancelledMidFlightRequestsReturnkCancelledOnly) {
  const auto values = ServingData(4 * kRowgroupSize);
  Server server({.workers = 2, .queue_capacity = 256});
  ASSERT_TRUE(server.AddColumn("col", values.data(), values.size()).ok());

  CancelToken token;
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 32; ++i) {
    Request request;
    request.column = "col";
    request.query_class = QueryClass::kScan;
    request.return_values = true;
    request.cancel = &token;
    futures.push_back(server.Submit(std::move(request)));
  }
  token.Cancel();  // Races with execution on purpose.
  for (auto& future : futures) {
    const Response r = future.get();
    if (r.status.ok()) {
      // Completed before the cancel landed: must be full, correct output.
      ASSERT_EQ(r.values.size(), values.size());
      EXPECT_EQ(std::memcmp(r.values.data(), values.data(),
                            values.size() * sizeof(double)),
                0);
    } else {
      EXPECT_EQ(r.status.code(), StatusCode::kCancelled);
      EXPECT_TRUE(r.values.empty());  // Never partial.
      EXPECT_EQ(r.tuples, 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// Server: admission control, shedding, quotas, slow-start.

TEST(Server, QueueOverflowRejectsWithResourceExhausted) {
  // One worker parked on a stalled request + a tiny queue forces overflow.
  FaultGuard guard;
  fault::FaultSpec stall;
  stall.stall_us = 50000;
  stall.stall_only = true;
  fault::Arm("server.request_io", stall);

  const auto values = ServingData(kVectorSize);
  Server server({.workers = 1, .queue_capacity = 4, .slow_start_floor = 2});
  ASSERT_TRUE(server.AddColumn("col", values.data(), values.size()).ok());

  std::vector<std::future<Response>> futures;
  uint64_t rejected = 0;
  for (int i = 0; i < 64; ++i) {
    Request request;
    request.column = "col";
    request.query_class = QueryClass::kPointLookup;
    auto future = server.Submit(std::move(request));
    // Rejections resolve immediately; don't block on admitted ones yet.
    if (future.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
      const Response r = future.get();
      if (!r.status.ok()) {
        EXPECT_EQ(r.status.code(), StatusCode::kResourceExhausted);
        ++rejected;
      }
      continue;  // Ready-and-OK: an admitted request the worker outran.
    }
    futures.push_back(std::move(future));
  }
  for (auto& future : futures) {
    EXPECT_TRUE(future.get().status.ok());
  }
  const ServerStats stats = server.stats();
  EXPECT_GT(stats.shed_queue_full, 0u);
  EXPECT_EQ(stats.shed_queue_full + stats.admitted, stats.submitted);
  EXPECT_GT(rejected, 0u);
  // Bounded queue: depth never exceeded capacity.
  EXPECT_LE(stats.max_queue_depth, 4u);
}

TEST(Server, ScansShedBeforePointLookups) {
  // Park the worker, fill the queue to just above the scan class limit
  // (0.5 * 8 = 4): scans shed while point lookups still admit.
  FaultGuard guard;
  fault::FaultSpec stall;
  stall.stall_us = 50000;
  stall.stall_only = true;
  fault::Arm("server.request_io", stall);

  const auto values = ServingData(kVectorSize);
  Server server({.workers = 1, .queue_capacity = 8});
  ASSERT_TRUE(server.AddColumn("col", values.data(), values.size()).ok());

  std::vector<std::future<Response>> admitted;
  for (int i = 0; i < 5; ++i) {
    Request request;
    request.column = "col";
    request.query_class = QueryClass::kPointLookup;
    admitted.push_back(server.Submit(std::move(request)));
  }
  // Queue depth is now >= 4 (one request may already be running): a scan
  // must shed while a point lookup still admits.
  Request scan;
  scan.column = "col";
  scan.query_class = QueryClass::kScan;
  const Response shed = server.Execute(std::move(scan));
  EXPECT_EQ(shed.status.code(), StatusCode::kResourceExhausted);

  Request lookup;
  lookup.column = "col";
  lookup.query_class = QueryClass::kPointLookup;
  auto last = server.Submit(std::move(lookup));
  admitted.push_back(std::move(last));
  for (auto& future : admitted) {
    EXPECT_TRUE(future.get().status.ok());
  }
  EXPECT_GE(server.stats().shed_class, 1u);
}

TEST(Server, TenantQuotaCapsInFlightPerTenant) {
  FaultGuard guard;
  fault::FaultSpec stall;
  stall.stall_us = 50000;
  stall.stall_only = true;
  fault::Arm("server.request_io", stall);

  const auto values = ServingData(kVectorSize);
  Server server({.workers = 1, .queue_capacity = 64, .tenant_quota = 2});
  ASSERT_TRUE(server.AddColumn("col", values.data(), values.size()).ok());

  std::vector<std::future<Response>> futures;
  const auto submit = [&](const char* tenant) {
    Request request;
    request.column = "col";
    request.query_class = QueryClass::kPointLookup;
    request.tenant = tenant;
    return server.Submit(std::move(request));
  };
  futures.push_back(submit("a"));
  futures.push_back(submit("a"));
  const Response over = submit("a").get();  // 3rd in-flight for tenant a.
  EXPECT_EQ(over.status.code(), StatusCode::kResourceExhausted);
  futures.push_back(submit("b"));  // Other tenants are unaffected.
  for (auto& future : futures) {
    EXPECT_TRUE(future.get().status.ok());
  }
  EXPECT_EQ(server.stats().shed_tenant, 1u);
  // Quota is released in the worker's completion accounting, which lands
  // after the future resolves — wait for it before probing re-admission.
  AwaitStats([&] { return server.stats().completed >= 3; });
  EXPECT_TRUE(submit("a").get().status.ok());
}

TEST(Server, SlowStartCollapsesAndReopensAdmitLimit) {
  FaultGuard guard;
  fault::FaultSpec stall;
  stall.stall_us = 20000;
  stall.stall_only = true;
  fault::Arm("server.request_io", stall);

  const auto values = ServingData(kVectorSize);
  Server server({.workers = 1, .queue_capacity = 4, .slow_start_floor = 2});
  ASSERT_TRUE(server.AddColumn("col", values.data(), values.size()).ok());
  EXPECT_EQ(server.stats().admit_limit, 4u);

  std::vector<std::future<Response>> futures;
  bool overflowed = false;
  for (int i = 0; i < 16 && !overflowed; ++i) {
    Request request;
    request.column = "col";
    request.query_class = QueryClass::kPointLookup;
    auto future = server.Submit(std::move(request));
    if (future.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
      if (!future.get().status.ok()) {
        overflowed = true;
        break;
      }
      continue;  // Ready-and-OK futures are already consumed.
    }
    futures.push_back(std::move(future));
  }
  ASSERT_TRUE(overflowed);
  // Collapsed to the floor (a racing completion may have re-opened it by a
  // step already, hence <= floor + 1 rather than == floor).
  EXPECT_LE(server.stats().admit_limit, 3u);
  for (auto& future : futures) future.get();
  // Each completion re-opened the limit by one (clamped to capacity).
  AwaitStats([&] { return server.stats().admit_limit > 2; });
}

// ---------------------------------------------------------------------------
// Server: fault injection end-to-end + Status parity at every worker count.

TEST(Server, InjectedDecodeFaultFailsRequestWithoutPartialOutput) {
  FaultGuard guard;
  const auto values = ServingData(2 * kVectorSize);
  fault::FaultSpec spec;
  spec.code = StatusCode::kChecksumMismatch;
  spec.message = "injected decode fault";

  for (unsigned workers : {1u, 2u, 4u}) {
    fault::DisarmAll();
    Server server({.workers = workers});
    ASSERT_TRUE(server.AddColumn("col", values.data(), values.size()).ok());
    fault::Arm("column.decode_vector", spec);

    Request request;
    request.column = "col";
    request.query_class = QueryClass::kScan;
    request.return_values = true;
    const Response r = server.Execute(std::move(request));
    // Deterministic spec (every_nth=1): identical Status at every worker
    // count — the parity contract under faults.
    EXPECT_EQ(r.status.code(), StatusCode::kChecksumMismatch)
        << workers << " workers";
    EXPECT_EQ(r.status.ToString(),
              Status(StatusCode::kChecksumMismatch, "injected decode fault")
                  .ToString())
        << workers << " workers";
    EXPECT_TRUE(r.values.empty());
    EXPECT_EQ(r.tuples, 0u);
    fault::DisarmAll();

    // After disarming, the same request completes byte-identically.
    Request retry;
    retry.column = "col";
    retry.query_class = QueryClass::kScan;
    retry.return_values = true;
    const Response ok = server.Execute(std::move(retry));
    ASSERT_TRUE(ok.status.ok());
    EXPECT_EQ(std::memcmp(ok.values.data(), values.data(),
                          values.size() * sizeof(double)),
              0);
    AwaitStats([&] { return server.stats().failed >= 1; });
    EXPECT_EQ(server.stats().failed, 1u);
  }
}

// ---------------------------------------------------------------------------
// Server: shutdown semantics.

TEST(Server, ShutdownDrainsQueueWithTypedRejections) {
  FaultGuard guard;
  fault::FaultSpec stall;
  stall.stall_us = 20000;
  stall.stall_only = true;
  fault::Arm("server.request_io", stall);

  const auto values = ServingData(kVectorSize);
  auto server = std::make_unique<Server>(
      ServerConfig{.workers = 1, .queue_capacity = 32});
  ASSERT_TRUE(server->AddColumn("col", values.data(), values.size()).ok());

  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 16; ++i) {
    Request request;
    request.column = "col";
    request.query_class = QueryClass::kPointLookup;
    futures.push_back(server->Submit(std::move(request)));
  }
  server->Shutdown();
  size_t completed = 0;
  size_t rejected = 0;
  for (auto& future : futures) {
    const Response r = future.get();  // Every future resolves — none hang.
    if (r.status.ok()) {
      ++completed;
    } else {
      EXPECT_EQ(r.status.code(), StatusCode::kResourceExhausted);
      ++rejected;
    }
  }
  EXPECT_EQ(completed + rejected, 16u);

  // Post-shutdown submits reject immediately; Shutdown is idempotent.
  Request late;
  late.column = "col";
  EXPECT_EQ(server->Execute(std::move(late)).status.code(),
            StatusCode::kResourceExhausted);
  server->Shutdown();
  server.reset();  // Destructor after explicit Shutdown: no double-join.
}

TEST(Server, StressMixedClassesManySubmittersTSanClean) {
  // The TSan workhorse: many submitter threads, mixed classes, racing
  // cancellation — every future resolves with either a full result or a
  // typed error.
  const auto values = ServingData(kRowgroupSize);
  Server server({.workers = 4, .queue_capacity = 128, .tenant_quota = 64});
  ASSERT_TRUE(server.AddColumn("col", values.data(), values.size()).ok());

  const double expected_sum = StripedSum(values);

  constexpr int kSubmitters = 4;
  constexpr int kPerThread = 50;
  CancelToken token;
  std::atomic<int> bad{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        Request request;
        request.column = "col";
        request.tenant = t % 2 == 0 ? "even" : "odd";
        const int slot = i % 10;
        if (slot < 6) {
          request.query_class = QueryClass::kPointLookup;
          request.vector_index = static_cast<size_t>(i) % kRowgroupVectors;
        } else if (slot < 9) {
          request.query_class = QueryClass::kAggregate;
        } else {
          request.query_class = QueryClass::kScan;
        }
        if (i % 7 == 0) request.cancel = &token;
        const Response r = server.Execute(std::move(request));
        if (r.status.ok()) {
          if (r.query_class == QueryClass::kAggregate &&
              BitsOf(r.sum) != BitsOf(expected_sum)) {
            bad.fetch_add(1);
          }
        } else if (r.status.code() != StatusCode::kCancelled &&
                   r.status.code() != StatusCode::kResourceExhausted) {
          bad.fetch_add(1);
        }
        if (t == 0 && i == kPerThread / 2) token.Cancel();
      }
    });
  }
  for (auto& thread : submitters) thread.join();
  EXPECT_EQ(bad.load(), 0);
  server.Shutdown();  // Joins workers: completion accounting is final.
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted,
            static_cast<uint64_t>(kSubmitters) * kPerThread);
  EXPECT_EQ(stats.completed + stats.failed + stats.cancelled +
                stats.deadline_missed + stats.SheddedTotal() + stats.not_found,
            stats.submitted);
}

}  // namespace
}  // namespace alp
