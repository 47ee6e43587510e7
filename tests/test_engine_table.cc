// Tests for the multi-column Table and the two-column filtered aggregate:
// correctness against a scalar reference, zone-map pruning across columns,
// and mixed ALP/uncompressed storage.

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <vector>

#include "engine/table.h"

namespace alp::engine {
namespace {

struct TestTable {
  std::vector<double> time;   // Sorted (zone maps discriminate).
  std::vector<double> price;
  std::vector<double> qty;
};

TestTable MakeData(size_t n) {
  std::mt19937_64 rng(5);
  TestTable t;
  t.time.resize(n);
  t.price.resize(n);
  t.qty.resize(n);
  for (size_t i = 0; i < n; ++i) {
    t.time[i] = static_cast<double>(i) / 10.0;  // Monotone timestamps.
    t.price[i] = static_cast<double>(rng() % 100000) / 100.0;
    t.qty[i] = static_cast<double>(1 + rng() % 100);
  }
  return t;
}

double Reference(const TestTable& t, double lo, double hi) {
  double sum = 0.0;
  for (size_t i = 0; i < t.time.size(); ++i) {
    if (t.time[i] >= lo && t.time[i] <= hi) sum += t.price[i] * t.qty[i];
  }
  return sum;
}

TEST(Table, ColumnsByName) {
  const auto data = MakeData(kVectorSize);
  Table table;
  table.AddColumn("time", StoredColumn::MakeAlp(data.time.data(), data.time.size()));
  table.AddColumn("price", StoredColumn::MakeUncompressed(data.price));
  EXPECT_EQ(table.column_count(), 2u);
  EXPECT_EQ(table.row_count(), kVectorSize);
  EXPECT_NE(table.Column("time"), nullptr);
  EXPECT_EQ(table.Column("time")->scheme(), "ALP");
  EXPECT_EQ(table.Column("missing"), nullptr);
}

TEST(Table, FilteredDotSumMatchesReference) {
  const auto data = MakeData(kRowgroupSize * 2 + 777);
  Table table;
  table.AddColumn("time", StoredColumn::MakeAlp(data.time.data(), data.time.size()));
  table.AddColumn("price", StoredColumn::MakeAlp(data.price.data(), data.price.size()));
  table.AddColumn("qty", StoredColumn::MakeAlp(data.qty.data(), data.qty.size()));

  ThreadPool pool(2);
  const double lo = 1000.0;
  const double hi = 5000.0;
  const QueryResult r = RunFilteredDotSum(table, "time", lo, hi, "price", "qty", pool);
  const double expected = Reference(data, lo, hi);
  EXPECT_NEAR(r.sum, expected, std::abs(expected) * 1e-9);
}

TEST(Table, PushdownPrunesAllColumns) {
  const auto data = MakeData(kRowgroupSize * 2);
  Table table;
  table.AddColumn("time", StoredColumn::MakeAlp(data.time.data(), data.time.size()));
  table.AddColumn("price", StoredColumn::MakeAlp(data.price.data(), data.price.size()));
  table.AddColumn("qty", StoredColumn::MakeAlp(data.qty.data(), data.qty.size()));

  ThreadPool pool(1);
  // Narrow time window: ~2% of rows qualify -> most vectors pruned.
  const QueryResult r =
      RunFilteredDotSum(table, "time", 100.0, 500.0, "price", "qty", pool);
  const size_t vectors = (table.row_count() + kVectorSize - 1) / kVectorSize;
  EXPECT_GT(r.vectors_skipped, vectors * 9 / 10);
  EXPECT_NEAR(r.sum, Reference(data, 100.0, 500.0), std::abs(r.sum) * 1e-9 + 1e-9);
}

TEST(Table, EmptyRangeSumsToZero) {
  const auto data = MakeData(kVectorSize * 3);
  Table table;
  table.AddColumn("time", StoredColumn::MakeAlp(data.time.data(), data.time.size()));
  table.AddColumn("price", StoredColumn::MakeUncompressed(data.price));
  table.AddColumn("qty", StoredColumn::MakeUncompressed(data.qty));
  ThreadPool pool(2);
  const QueryResult r =
      RunFilteredDotSum(table, "time", 1e9, 2e9, "price", "qty", pool);
  EXPECT_EQ(r.sum, 0.0);
}

TEST(Table, MixedStorageAgrees) {
  const auto data = MakeData(kRowgroupSize + 123);
  ThreadPool pool(2);
  const double lo = 50.0;
  const double hi = 4000.0;

  Table alp_table;
  alp_table.AddColumn("t", StoredColumn::MakeAlp(data.time.data(), data.time.size()));
  alp_table.AddColumn("p", StoredColumn::MakeAlp(data.price.data(), data.price.size()));
  alp_table.AddColumn("q", StoredColumn::MakeAlp(data.qty.data(), data.qty.size()));

  Table raw_table;
  raw_table.AddColumn("t", StoredColumn::MakeUncompressed(data.time));
  raw_table.AddColumn("p", StoredColumn::MakeUncompressed(data.price));
  raw_table.AddColumn("q", StoredColumn::MakeUncompressed(data.qty));

  // Every storage kind serves: a block-codec filter column and a seekable
  // projected column.
  Table other_table;
  other_table.AddColumn("t", StoredColumn::MakeCodec(codecs::MakeGorilla(),
                                                     data.time.data(),
                                                     data.time.size()));
  auto seekable = StoredColumn::MakeAlp(data.price.data(), data.price.size());
  ASSERT_TRUE(seekable.EnableSeekable(nullptr).ok());
  other_table.AddColumn("p", std::move(seekable));
  other_table.AddColumn("q", StoredColumn::MakeUncompressed(data.qty));

  const QueryResult a = RunFilteredDotSum(alp_table, "t", lo, hi, "p", "q", pool);
  const QueryResult b = RunFilteredDotSum(raw_table, "t", lo, hi, "p", "q", pool);
  const QueryResult c = RunFilteredDotSum(other_table, "t", lo, hi, "p", "q", pool);
  ASSERT_TRUE(c.status.ok()) << c.status.ToString();
  EXPECT_NEAR(a.sum, b.sum, std::abs(b.sum) * 1e-9);
  EXPECT_NEAR(c.sum, b.sum, std::abs(b.sum) * 1e-9);
  // Uncompressed filter column has no zone maps: nothing skipped.
  EXPECT_EQ(b.vectors_skipped, 0u);
}

TEST(Table, RejectsUnknownAndShortColumns) {
  const auto data = MakeData(3 * kVectorSize);
  Table table;
  table.AddColumn("f", StoredColumn::MakeAlp(data.time.data(), data.time.size()));
  table.AddColumn("p", StoredColumn::MakeUncompressed(std::vector<double>(
                           data.price.begin(), data.price.begin() + kVectorSize)));
  table.AddColumn("q", StoredColumn::MakeUncompressed(data.qty));
  ThreadPool pool(1);
  EXPECT_EQ(RunFilteredDotSum(table, "f", 0.0, 1e9, "nope", "q", pool).status.code(),
            StatusCode::kNotFound);
  EXPECT_EQ(RunFilteredDotSum(table, "nope", 0.0, 1e9, "p", "q", pool).status.code(),
            StatusCode::kNotFound);
  EXPECT_EQ(RunFilteredDotSum(table, "f", 0.0, 1e9, "p", "q", pool).status.code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(RunFilteredDotSum(table, "f", 0.0, 1e9, "q", "p", pool).status.code(),
            StatusCode::kInvalidArgument);
  const QueryResult ok = RunFilteredDotSum(table, "f", 0.0, 1e9, "q", "q", pool);
  ASSERT_TRUE(ok.status.ok()) << ok.status.ToString();
  double expected = 0.0;
  for (double q : data.qty) expected += q * q;
  EXPECT_NEAR(ok.sum, expected, expected * 1e-12);
}

}  // namespace
}  // namespace alp::engine
