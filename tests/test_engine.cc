// Tests for the Tectorwise-style engine: stored-column round trips under
// every storage scheme, SCAN/SUM correctness vs. uncompressed, morsel
// parallelism, and the compression query.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <initializer_list>
#include <random>
#include <utility>
#include <vector>

#include "data/datasets.h"
#include "engine/operators.h"
#include "util/bits.h"

namespace alp::engine {
namespace {

std::vector<double> TestData(size_t n) {
  std::mt19937_64 rng(1);
  std::vector<double> data(n);
  for (auto& v : data) {
    v = static_cast<double>(static_cast<int64_t>(rng() % 100000)) / 100.0;
  }
  return data;
}

double ExactSum(const std::vector<double>& data) {
  // The engine sums per rowgroup then across threads; summing per rowgroup
  // here keeps float association close, though not bit for bit (SUM
  // stripes each vector).
  double total = 0.0;
  for (size_t off = 0; off < data.size(); off += kRowgroupSize) {
    const size_t len = std::min<size_t>(kRowgroupSize, data.size() - off);
    double rg = 0.0;
    for (size_t i = 0; i < len; ++i) rg += data[off + i];
    total += rg;
  }
  return total;
}

TEST(StoredColumn, UncompressedBasics) {
  auto data = TestData(kRowgroupSize + 500);
  const auto column = StoredColumn::MakeUncompressed(data);
  EXPECT_EQ(column.scheme(), "Uncompressed");
  EXPECT_EQ(column.value_count(), data.size());
  EXPECT_EQ(column.rowgroup_count(), 2u);
  EXPECT_EQ(column.RowgroupLength(1), 500u);
  ASSERT_NE(column.RowgroupPointer(0), nullptr);

  std::vector<double> out(kRowgroupSize);
  ASSERT_TRUE(column.DecodeRowgroup(0, out.data()).ok());
  EXPECT_EQ(out[123], data[123]);
}

TEST(StoredColumn, AlpRoundTrip) {
  const auto data = TestData(kRowgroupSize * 2 + 777);
  const auto column = StoredColumn::MakeAlp(data.data(), data.size());
  EXPECT_EQ(column.scheme(), "ALP");
  EXPECT_LT(column.compressed_bytes(), data.size() * sizeof(double));
  EXPECT_EQ(column.RowgroupPointer(0), nullptr);

  std::vector<double> out(kRowgroupSize);
  for (size_t rg = 0; rg < column.rowgroup_count(); ++rg) {
    ASSERT_TRUE(column.DecodeRowgroup(rg, out.data()).ok());
    const size_t off = rg * kRowgroupSize;
    for (unsigned i = 0; i < column.RowgroupLength(rg); ++i) {
      ASSERT_EQ(out[i], data[off + i]) << rg << ":" << i;
    }
  }
}

TEST(StoredColumn, CodecRoundTrip) {
  const auto data = TestData(kRowgroupSize + 123);
  const auto column =
      StoredColumn::MakeCodec(codecs::MakePatas(), data.data(), data.size());
  EXPECT_EQ(column.scheme(), "Patas");
  std::vector<double> out(kRowgroupSize);
  ASSERT_TRUE(column.DecodeRowgroup(1, out.data()).ok());
  for (unsigned i = 0; i < column.RowgroupLength(1); ++i) {
    ASSERT_EQ(out[i], data[kRowgroupSize + i]);
  }
}

TEST(ThreadPool, RunsEveryWorker) {
  ThreadPool pool(4);
  ASSERT_EQ(pool.size(), 4u);
  std::vector<int> hits(4, 0);
  pool.Run([&](unsigned w) { hits[w] = 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
  // Re-usable across queries.
  pool.Run([&](unsigned w) { hits[w] = 2; });
  for (int h : hits) EXPECT_EQ(h, 2);
}

TEST(ThreadPool, StressManyRounds) {
  ThreadPool pool(4);
  std::atomic<uint64_t> counter{0};
  for (int round = 0; round < 500; ++round) {
    pool.Run([&](unsigned) { counter.fetch_add(1, std::memory_order_relaxed); });
  }
  EXPECT_EQ(counter.load(), 500u * 4u);
}

TEST(ThreadPool, SingleWorker) {
  ThreadPool pool(1);
  int hits = 0;
  pool.Run([&](unsigned w) {
    EXPECT_EQ(w, 0u);
    ++hits;
  });
  EXPECT_EQ(hits, 1);
}

TEST(Operators, SumMatchesUncompressed) {
  const auto data = TestData(kRowgroupSize * 3 + 999);
  const double expected = ExactSum(data);

  ThreadPool pool(2);
  const auto uncompressed = StoredColumn::MakeUncompressed(data);
  const auto alp_col = StoredColumn::MakeAlp(data.data(), data.size());
  const auto gorilla =
      StoredColumn::MakeCodec(codecs::MakeGorilla(), data.data(), data.size());

  for (const StoredColumn* column : {&uncompressed, &alp_col, &gorilla}) {
    const QueryResult result = RunSum(*column, pool);
    EXPECT_EQ(result.tuples, data.size()) << column->scheme();
    // ALP decoding is bit-exact so the sum differs from a serial sum by
    // rounding order only.
    EXPECT_NEAR(result.sum, expected, std::abs(expected) * 1e-12) << column->scheme();
  }

  // On one worker the summation order is fixed, and it is the same for
  // every storage kind: in place, vector-at-a-time, chunked or block codec.
  auto seekable = StoredColumn::MakeAlp(data.data(), data.size());
  ASSERT_TRUE(seekable.EnableSeekable(nullptr).ok());
  ASSERT_NE(seekable.Seekable(), nullptr);
  ThreadPool pool1(1);
  const uint64_t bits = BitsOf(RunSum(uncompressed, pool1).sum);
  for (const StoredColumn* column :
       std::initializer_list<const StoredColumn*>{&alp_col, &seekable,
                                                  &gorilla}) {
    EXPECT_EQ(BitsOf(RunSum(*column, pool1).sum), bits) << column->scheme();
  }
}

TEST(Operators, SumEqualsFilterSumOverFullRange) {
  // SUM and FILTER-SUM share one summation order: a range holding every
  // value selects every lane, so the striped survivor sums are SUM's.
  const auto temp = data::Generate(*data::FindDataset("City-Temp"),
                                   kRowgroupSize * 2 + 777);
  const auto lat = data::Generate(*data::FindDataset("POI-lat"),
                                  kRowgroupSize + 1500);
  const auto uncompressed = StoredColumn::MakeUncompressed(temp);
  const auto alp_col = StoredColumn::MakeAlp(temp.data(), temp.size());
  const auto rd_col = StoredColumn::MakeAlp(lat.data(), lat.size());
  auto seekable = StoredColumn::MakeAlp(temp.data(), temp.size());
  ASSERT_TRUE(seekable.EnableSeekable(nullptr).ok());
  ASSERT_EQ(rd_col.AlpReader()->VectorScheme(0), Scheme::kAlpRd);

  ThreadPool pool(1);
  const std::vector<std::pair<const StoredColumn*, const std::vector<double>*>>
      cases = {{&uncompressed, &temp},
               {&alp_col, &temp},
               {&rd_col, &lat},
               {&seekable, &temp}};
  for (const auto& [column, values] : cases) {
    double lo = (*values)[0];
    double hi = lo;
    for (double v : *values) {
      ASSERT_FALSE(std::isnan(v));
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    const QueryResult sum = RunSum(*column, pool);
    const QueryResult filtered =
        RunFilterSum(*column, Predicate::Between(lo, hi), pool);
    ASSERT_TRUE(sum.status.ok() && filtered.status.ok());
    EXPECT_EQ(BitsOf(sum.sum), BitsOf(filtered.sum))
        << column->scheme() << (column->Seekable() ? " (seekable)" : "")
        << ": sum=" << sum.sum << " filter-sum=" << filtered.sum;
  }
}

TEST(Operators, ScanTouchesEverything) {
  const auto data = TestData(kRowgroupSize * 2);
  ThreadPool pool(1);
  const auto column = StoredColumn::MakeAlp(data.data(), data.size());
  const QueryResult result = RunScan(column, pool);
  EXPECT_EQ(result.tuples, data.size());
  EXPECT_GT(result.cycles, 0u);
  // The checksum is the sum of one value per vector.
  double expected = 0.0;
  for (size_t v = 0; v < data.size(); v += kVectorSize) expected += data[v];
  EXPECT_NEAR(result.sum, expected, std::abs(expected) * 1e-12);
}

TEST(Operators, MultiThreadMatchesSingleThread) {
  const auto data = TestData(kRowgroupSize * 4);
  const auto column = StoredColumn::MakeAlp(data.data(), data.size());
  ThreadPool pool1(1);
  ThreadPool pool4(4);
  const QueryResult r1 = RunSum(column, pool1);
  const QueryResult r4 = RunSum(column, pool4);
  EXPECT_NEAR(r1.sum, r4.sum, std::abs(r1.sum) * 1e-12);
  EXPECT_EQ(r4.threads, 4u);
}

TEST(Operators, CompressionQueryReportsCycles) {
  const auto data = TestData(kRowgroupSize);
  const auto column = StoredColumn::MakeAlp(data.data(), data.size());
  const QueryResult result = RunCompression(column, data.data(), data.size());
  EXPECT_GT(result.cycles, 0u);
  EXPECT_GT(result.sum, 0.0);  // Compressed byte count.
  EXPECT_EQ(result.tuples, data.size());
}

TEST(Operators, MetricsArithmetic) {
  QueryResult r;
  r.tuples = 1000;
  r.cycles = 500;
  r.threads = 2;
  EXPECT_DOUBLE_EQ(r.TuplesPerCyclePerCore(), 1.0);
  EXPECT_DOUBLE_EQ(r.CyclesPerTuple(), 1.0);
}

TEST(Operators, FilterSumMatchesReference) {
  // Sorted data so zone-map skipping actually triggers.
  std::vector<double> data(kRowgroupSize * 2);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<double>(i) * 0.5;
  const double lo = 1000.0;
  const double hi = 5000.0;
  double expected = 0.0;
  for (double v : data) expected += (v >= lo && v <= hi) ? v : 0.0;

  ThreadPool pool(2);
  const auto uncompressed = StoredColumn::MakeUncompressed(data);
  const auto alp_col = StoredColumn::MakeAlp(data.data(), data.size());
  const auto zstd_col =
      StoredColumn::MakeCodec(codecs::MakeZstd(), data.data(), data.size());

  for (const StoredColumn* column : {&uncompressed, &alp_col, &zstd_col}) {
    const QueryResult r = RunFilterSum(*column, lo, hi, pool);
    EXPECT_NEAR(r.sum, expected, std::abs(expected) * 1e-12) << column->scheme();
  }
}

TEST(Operators, FilterPushdownSkipsVectors) {
  std::vector<double> data(kRowgroupSize * 2);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<double>(i) * 0.5;
  ThreadPool pool(1);
  const auto alp_col = StoredColumn::MakeAlp(data.data(), data.size());
  // A range covering ~2% of the data: the vast majority of vectors skip.
  const QueryResult r = RunFilterSum(alp_col, 100.0, 2000.0, pool);
  EXPECT_GT(r.vectors_skipped, 150u);

  // Block-based storage cannot skip.
  const auto zstd_col =
      StoredColumn::MakeCodec(codecs::MakeZstd(), data.data(), data.size());
  const QueryResult z = RunFilterSum(zstd_col, 100.0, 2000.0, pool);
  EXPECT_EQ(z.vectors_skipped, 0u);
}

TEST(Operators, FilterEmptyRangeSkipsEverything) {
  std::vector<double> data(kRowgroupSize);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<double>(i);
  ThreadPool pool(1);
  const auto alp_col = StoredColumn::MakeAlp(data.data(), data.size());
  const QueryResult r = RunFilterSum(alp_col, 1e9, 2e9, pool);
  EXPECT_EQ(r.sum, 0.0);
  EXPECT_EQ(r.vectors_skipped, kRowgroupVectors);
}

TEST(Operators, MinMaxFromZoneMapsIsExact) {
  const auto data = TestData(kRowgroupSize * 2 + 555);
  double expected_min = data[0];
  double expected_max = data[0];
  for (double v : data) {
    expected_min = std::min(expected_min, v);
    expected_max = std::max(expected_max, v);
  }

  ThreadPool pool(2);
  const auto alp_col = StoredColumn::MakeAlp(data.data(), data.size());
  double min = 0, max = 0;
  const QueryResult r = RunMinMax(alp_col, pool, &min, &max);
  EXPECT_EQ(min, expected_min);
  EXPECT_EQ(max, expected_max);
  // Answered entirely from zone maps: every vector was skipped.
  EXPECT_EQ(r.vectors_skipped, (data.size() + kVectorSize - 1) / kVectorSize);

  // And the scanning paths agree.
  const auto raw = StoredColumn::MakeUncompressed(data);
  const auto patas = StoredColumn::MakeCodec(codecs::MakePatas(), data.data(),
                                             data.size());
  for (const StoredColumn* column : {&raw, &patas}) {
    double m1 = 0, m2 = 0;
    RunMinMax(*column, pool, &m1, &m2);
    EXPECT_EQ(m1, expected_min) << column->scheme();
    EXPECT_EQ(m2, expected_max) << column->scheme();
  }
}

TEST(Operators, MinMaxIsMuchCheaperOnAlp) {
  const auto data = TestData(kRowgroupSize * 4);
  ThreadPool pool(1);
  const auto alp_col = StoredColumn::MakeAlp(data.data(), data.size());
  const auto raw = StoredColumn::MakeUncompressed(data);
  double a, b;
  const QueryResult fast = RunMinMax(alp_col, pool, &a, &b);
  const QueryResult slow = RunMinMax(raw, pool, &a, &b);
  EXPECT_LT(fast.cycles * 10, slow.cycles);  // Zone maps are ~free.
}

TEST(Operators, WorksOnSurrogateDataset) {
  const auto data = data::Generate(*data::FindDataset("City-Temp"), kRowgroupSize * 2);
  ThreadPool pool(2);
  const auto alp_col = StoredColumn::MakeAlp(data.data(), data.size());
  const auto raw = StoredColumn::MakeUncompressed(data);
  const QueryResult a = RunSum(alp_col, pool);
  const QueryResult b = RunSum(raw, pool);
  EXPECT_NEAR(a.sum, b.sum, std::abs(b.sum) * 1e-9);
}

}  // namespace
}  // namespace alp::engine
