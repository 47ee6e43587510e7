// Parallel rowgroup pipeline: determinism and thread-safety oracles.
//
// The contract under test (see src/alp/column.h "Parallelism"): encode is
// byte-identical at every worker count, decode is value-identical, and a
// corrupt input produces the *same* Status from the serial and parallel
// paths - the lowest-indexed failure wins, exactly what a serial scan hits
// first. The concurrency tests double as the ThreadSanitizer workload for
// the ALP_SANITIZE=thread CI job.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

#include "alp/alp.h"
#include "test_fixtures.h"
#include "util/thread_pool.h"

namespace alp {
namespace {

using testutil::AlpSmall;
using testutil::Corpus;
using testutil::DecimalData;
using testutil::RdSmall;
using testutil::StripToV2;
using testutil::TwoRowgroups;

// ---------------------------------------------------------------------------
// ThreadPool / TaskGroup / ParallelFor substrate.

TEST(ThreadPool, DefaultThreadCountHonoursEnv) {
  ASSERT_EQ(setenv("ALP_THREADS", "3", 1), 0);
  EXPECT_EQ(ThreadPool::DefaultThreadCount(), 3u);
  ASSERT_EQ(setenv("ALP_THREADS", "0", 1), 0);  // Non-positive: ignored.
  EXPECT_GE(ThreadPool::DefaultThreadCount(), 1u);
  ASSERT_EQ(setenv("ALP_THREADS", "garbage", 1), 0);
  EXPECT_GE(ThreadPool::DefaultThreadCount(), 1u);
  ASSERT_EQ(unsetenv("ALP_THREADS"), 0);
  EXPECT_GE(ThreadPool::DefaultThreadCount(), 1u);
}

TEST(ThreadPool, SizeMatchesRequest) {
  for (const unsigned threads : {1u, 2u, 5u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.size(), threads);
  }
  ThreadPool defaulted(0);
  EXPECT_GE(defaulted.size(), 1u);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  ParallelFor(&pool, kN, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForNullPoolRunsInline) {
  const auto self = std::this_thread::get_id();
  size_t count = 0;
  ParallelFor(nullptr, 64, [&](size_t) {
    EXPECT_EQ(std::this_thread::get_id(), self);
    ++count;  // Unsynchronized on purpose: inline means single-threaded.
  });
  EXPECT_EQ(count, 64u);
}

TEST(ThreadPool, TaskGroupsShareOnePoolIndependently) {
  ThreadPool pool(3);
  std::atomic<int> a{0};
  std::atomic<int> b{0};
  TaskGroup group_a(&pool);
  TaskGroup group_b(&pool);
  for (int i = 0; i < 50; ++i) {
    group_a.Submit([&] { a.fetch_add(1); });
    group_b.Submit([&] { b.fetch_add(1); });
  }
  group_a.Wait();
  EXPECT_EQ(a.load(), 50);  // b may still be in flight; a's batch is done.
  group_b.Wait();
  EXPECT_EQ(b.load(), 50);
}

TEST(ThreadPool, SubmittersOnManyThreadsDontInterfere) {
  ThreadPool pool(2);
  constexpr int kSubmitters = 4;
  constexpr int kTasks = 200;
  std::atomic<int> total{0};
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&] {
      TaskGroup group(&pool);
      for (int i = 0; i < kTasks; ++i) {
        group.Submit([&] { total.fetch_add(1); });
      }
      group.Wait();
    });
  }
  for (auto& t : submitters) t.join();
  EXPECT_EQ(total.load(), kSubmitters * kTasks);
}

// ---------------------------------------------------------------------------
// Shutdown semantics: tasks queued before Shutdown are drained, tasks
// submitted after run inline in the submitter (never dropped, never hung),
// and the first worker-task failure surfaces from Wait()/first_failure().

TEST(ThreadPool, ShutdownDrainsQueuedTasks) {
  // Every task enqueued before Shutdown must run exactly once even when the
  // queue is deep relative to the worker count.
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    TaskGroup group(&pool);
    for (int i = 0; i < 500; ++i) {
      group.Submit([&] { ran.fetch_add(1); });
    }
    group.Wait();
    pool.Shutdown();  // Idempotent with the destructor's call.
  }
  EXPECT_EQ(ran.load(), 500);
}

TEST(ThreadPool, SubmitAfterShutdownRunsInlineDeterministically) {
  ThreadPool pool(2);
  pool.Shutdown();
  const auto self = std::this_thread::get_id();
  std::atomic<int> ran{0};
  TaskGroup group(&pool);
  for (int i = 0; i < 8; ++i) {
    group.Submit([&] {
      EXPECT_EQ(std::this_thread::get_id(), self);  // Inline fallback.
      ran.fetch_add(1);
    });
  }
  group.Wait();  // Must not hang: inline tasks already decremented pending.
  EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPool, WorkerTaskFailureSurfacesOnWait) {
  ThreadPool pool(2);
  TaskGroup group(&pool);
  std::atomic<int> ran{0};
  for (int i = 0; i < 16; ++i) {
    group.Submit([&, i] {
      ran.fetch_add(1);
      if (i == 7) throw std::runtime_error("task 7 failed");
    });
  }
  EXPECT_THROW(group.Wait(), std::runtime_error);
  EXPECT_EQ(ran.load(), 16);  // A failure never halts sibling tasks.
  EXPECT_NE(pool.first_failure(), nullptr);
  // Wait() rethrows once and clears: the group is reusable afterwards.
  group.Submit([&] { ran.fetch_add(1); });
  group.Wait();
  EXPECT_EQ(ran.load(), 17);
}

TEST(ThreadPool, DestructorSafeWithFailedTasks) {
  // A TaskGroup destroyed without Wait() after a failure must not
  // std::terminate (WaitNoThrow path).
  ThreadPool pool(2);
  {
    TaskGroup group(&pool);
    group.Submit([] { throw std::runtime_error("unobserved"); });
  }
  EXPECT_NE(pool.first_failure(), nullptr);
}

// ---------------------------------------------------------------------------
// Encode determinism: byte-identical at every worker count.

void ExpectInfoEqual(const CompressionInfo& a, const CompressionInfo& b) {
  EXPECT_EQ(a.rowgroups, b.rowgroups);
  EXPECT_EQ(a.rowgroups_rd, b.rowgroups_rd);
  EXPECT_EQ(a.vectors, b.vectors);
  EXPECT_EQ(a.exceptions, b.exceptions);
  EXPECT_EQ(a.sampler.vectors, b.sampler.vectors);
  EXPECT_EQ(a.sampler.vectors_skipped, b.sampler.vectors_skipped);
  EXPECT_EQ(a.sampler.combinations_tried, b.sampler.combinations_tried);
  for (size_t t = 0; t < 8; ++t) {
    EXPECT_EQ(a.sampler.tried_histogram[t], b.sampler.tried_histogram[t]) << t;
  }
}

TEST(ParallelEncode, ByteIdenticalAcrossThreadCounts) {
  for (const Corpus* corpus : {&AlpSmall(), &RdSmall(), &TwoRowgroups()}) {
    SCOPED_TRACE(corpus->name);
    CompressionInfo serial_info;
    const std::vector<uint8_t> serial = CompressColumn(
        corpus->values.data(), corpus->values.size(), {}, &serial_info);

    // Null pool: the documented serial fallback.
    CompressionInfo inline_info;
    EXPECT_EQ(CompressColumnParallel(corpus->values.data(),
                                     corpus->values.size(), {}, &inline_info,
                                     nullptr),
              serial);
    ExpectInfoEqual(inline_info, serial_info);

    for (const unsigned threads : {1u, 2u, 8u}) {
      ThreadPool pool(threads);
      CompressionInfo info;
      const std::vector<uint8_t> parallel = CompressColumnParallel(
          corpus->values.data(), corpus->values.size(), {}, &info, &pool);
      EXPECT_EQ(parallel, serial) << threads << " threads";
      ExpectInfoEqual(info, serial_info);
    }
  }
}

TEST(ParallelEncode, ManyRowgroupsByteIdentical) {
  // Enough rowgroups that an 8-thread pool genuinely interleaves them.
  const std::vector<double> values = DecimalData(707, 5 * kRowgroupSize + 321);
  const std::vector<uint8_t> serial =
      CompressColumn(values.data(), values.size());
  ThreadPool pool(8);
  EXPECT_EQ(
      CompressColumnParallel(values.data(), values.size(), {}, nullptr, &pool),
      serial);
}

// ---------------------------------------------------------------------------
// Decode: value-identical, and safe under concurrent readers.

TEST(ParallelDecode, MatchesSerialAtEveryThreadCount) {
  for (const Corpus* corpus : {&AlpSmall(), &RdSmall(), &TwoRowgroups()}) {
    SCOPED_TRACE(corpus->name);
    const Corpus& c = *corpus;
    std::vector<double> serial(c.values.size());
    {
      StatusOr<ColumnReader<double>> reader =
          ColumnReader<double>::Open(c.buffer.data(), c.buffer.size());
      ASSERT_TRUE(reader.ok());
      ASSERT_TRUE(reader->TryDecodeAll(serial.data()).ok());
    }
    for (const unsigned threads : {1u, 2u, 8u}) {
      ThreadPool pool(threads);
      StatusOr<ColumnReader<double>> reader = ColumnReader<double>::OpenParallel(
          c.buffer.data(), c.buffer.size(), &pool);
      ASSERT_TRUE(reader.ok()) << reader.status().ToString();
      std::vector<double> out(c.values.size(), -1.0);
      const Status decode = reader->TryDecodeAllParallel(out.data(), &pool);
      ASSERT_TRUE(decode.ok()) << decode.ToString();
      EXPECT_EQ(std::memcmp(out.data(), c.values.data(),
                            out.size() * sizeof(double)),
                0)
          << threads << " threads";
      EXPECT_EQ(std::memcmp(out.data(), serial.data(),
                            out.size() * sizeof(double)),
                0);
    }
  }
}

TEST(ParallelDecode, ConcurrentReadersSeeIdenticalValues) {
  // One shared reader, one shared pool, several reader threads decoding at
  // once - the TSan job turns any data race here into a failure.
  const Corpus& c = TwoRowgroups();
  StatusOr<ColumnReader<double>> reader =
      ColumnReader<double>::Open(c.buffer.data(), c.buffer.size());
  ASSERT_TRUE(reader.ok());
  ThreadPool pool(4);

  constexpr int kReaders = 4;
  std::vector<std::vector<double>> outs(
      kReaders, std::vector<double>(c.values.size(), -1.0));
  std::vector<Status> statuses(kReaders);
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      // Half the readers fan out on the shared pool, half decode serially;
      // both classes run concurrently against the same reader.
      statuses[r] = (r % 2 == 0)
                        ? reader->TryDecodeAllParallel(outs[r].data(), &pool)
                        : reader->TryDecodeAll(outs[r].data());
    });
  }
  for (auto& t : threads) t.join();
  for (int r = 0; r < kReaders; ++r) {
    ASSERT_TRUE(statuses[r].ok()) << "reader " << r << ": "
                                  << statuses[r].ToString();
    EXPECT_EQ(std::memcmp(outs[r].data(), c.values.data(),
                          c.values.size() * sizeof(double)),
              0)
        << "reader " << r;
  }
}

// ---------------------------------------------------------------------------
// Status parity on corrupt input: the parallel paths must report exactly
// what the serial scan reports, regardless of which worker saw the damage.

/// Little-endian u64 at \p at (the v3 rowgroup offset table starts at 24).
uint64_t ReadU64(const std::vector<uint8_t>& buffer, size_t at) {
  uint64_t v = 0;
  std::memcpy(&v, buffer.data() + at, sizeof(v));
  return v;
}

TEST(ParallelStatusParity, CorruptRowgroupPayloadsReportIdentically) {
  const Corpus& c = TwoRowgroups();
  ThreadPool pool(4);
  uint32_t rowgroup_count = 0;
  std::memcpy(&rowgroup_count, c.buffer.data() + 16, sizeof(rowgroup_count));
  ASSERT_EQ(rowgroup_count, 2u);

  // Corrupt each rowgroup alone, then both: serial Open and parallel Open
  // must agree byte-for-byte on the Status text every time.
  for (const unsigned mask : {1u, 2u, 3u}) {
    SCOPED_TRACE("mask " + std::to_string(mask));
    std::vector<uint8_t> bad = c.buffer;
    for (uint32_t rg = 0; rg < rowgroup_count; ++rg) {
      if (mask & (1u << rg)) {
        bad[ReadU64(c.buffer, 24 + rg * 8) + 17] ^= 0x40;
      }
    }
    const StatusOr<ColumnReader<double>> serial =
        ColumnReader<double>::Open(bad.data(), bad.size());
    const StatusOr<ColumnReader<double>> parallel =
        ColumnReader<double>::OpenParallel(bad.data(), bad.size(), &pool);
    ASSERT_FALSE(serial.ok());
    ASSERT_FALSE(parallel.ok());
    EXPECT_EQ(parallel.status().ToString(), serial.status().ToString());
    EXPECT_EQ(parallel.status().code(), StatusCode::kChecksumMismatch);
  }
}

TEST(ParallelStatusParity, HeaderAndTruncationFailuresReportIdentically) {
  const Corpus& c = AlpSmall();
  ThreadPool pool(2);

  std::vector<std::vector<uint8_t>> cases;
  cases.push_back({});                                           // Empty.
  cases.push_back({1, 2, 3, 4, 5, 6, 7, 8});                     // Garbage.
  cases.emplace_back(c.buffer.begin(), c.buffer.end() - 9);      // Truncated.
  cases.push_back(c.buffer);
  cases.back()[0] ^= 0xFF;                                       // Bad magic.
  cases.push_back(c.buffer);
  cases.back()[testutil::kVersionByte] = 99;                     // Bad version.
  cases.push_back(c.buffer);
  cases.back()[8] ^= 0x10;                                       // value_count.

  for (size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE("case " + std::to_string(i));
    const auto& bad = cases[i];
    const StatusOr<ColumnReader<double>> serial =
        ColumnReader<double>::Open(bad.data(), bad.size());
    const StatusOr<ColumnReader<double>> parallel =
        ColumnReader<double>::OpenParallel(bad.data(), bad.size(), &pool);
    ASSERT_FALSE(serial.ok());
    ASSERT_FALSE(parallel.ok());
    EXPECT_EQ(parallel.status().ToString(), serial.status().ToString());
  }
}

TEST(ParallelStatusParity, V2DecodeFailuresReportIdentically) {
  // v2 has no checksums, so payload damage surfaces (if at all) during
  // decode. Whatever the serial walk reports - a Status, or success with
  // whatever values structural validation let through - the parallel decode
  // must reproduce exactly.
  const std::vector<uint8_t> v2 = StripToV2(TwoRowgroups().buffer);
  ThreadPool pool(4);
  std::mt19937_64 rng(909);
  int disagreements_possible = 0;
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<uint8_t> bad = v2;
    const size_t byte = 192 + rng() % (bad.size() - 192);  // Spare the header.
    bad[byte] ^= uint8_t{1} << (rng() % 8);

    const StatusOr<ColumnReader<double>> serial_reader =
        ColumnReader<double>::Open(bad.data(), bad.size());
    const StatusOr<ColumnReader<double>> parallel_reader =
        ColumnReader<double>::OpenParallel(bad.data(), bad.size(), &pool);
    ASSERT_EQ(parallel_reader.ok(), serial_reader.ok()) << "byte " << byte;
    if (!serial_reader.ok()) {
      EXPECT_EQ(parallel_reader.status().ToString(),
                serial_reader.status().ToString());
      continue;
    }
    ++disagreements_possible;
    std::vector<double> serial_out(serial_reader->value_count(), -1.0);
    std::vector<double> parallel_out(parallel_reader->value_count(), -2.0);
    const Status serial_status = serial_reader->TryDecodeAll(serial_out.data());
    const Status parallel_status =
        parallel_reader->TryDecodeAllParallel(parallel_out.data(), &pool);
    EXPECT_EQ(parallel_status.ToString(), serial_status.ToString())
        << "byte " << byte;
    if (serial_status.ok() && parallel_status.ok()) {
      EXPECT_EQ(std::memcmp(parallel_out.data(), serial_out.data(),
                            serial_out.size() * sizeof(double)),
                0)
          << "byte " << byte;
    }
  }
  // The loop must actually have exercised the decode-side comparison.
  EXPECT_GT(disagreements_possible, 0);
}

}  // namespace
}  // namespace alp
