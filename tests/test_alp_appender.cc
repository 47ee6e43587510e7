// Tests for the streaming ColumnAppender: the incremental path must produce
// buffers indistinguishable from one-shot CompressColumn, across rowgroup
// boundaries, batch shapes and value types.

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "alp/appender.h"
#include "util/bits.h"

namespace alp {
namespace {

std::vector<double> Decimals(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<double> values(n);
  for (auto& v : values) {
    v = static_cast<double>(static_cast<int64_t>(rng() % 1000000)) / 100.0;
  }
  return values;
}

void ExpectBitExact(const std::vector<double>& a, const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(BitsOf(a[i]), BitsOf(b[i])) << i;
  }
}

TEST(Appender, MatchesOneShotCompression) {
  const auto data = Decimals(kRowgroupSize * 2 + 12345, 1);
  ColumnAppender<double> appender;
  for (double v : data) appender.Append(v);
  EXPECT_EQ(appender.value_count(), data.size());
  const auto streamed = appender.Finish();
  const auto one_shot = CompressColumn(data.data(), data.size());
  EXPECT_EQ(streamed, one_shot);  // Byte-identical buffers.
}

TEST(Appender, BatchAppendAcrossRowgroupBoundaries) {
  const auto data = Decimals(kRowgroupSize * 3 + 17, 2);
  ColumnAppender<double> appender;
  // Odd batch sizes that straddle rowgroup boundaries.
  size_t i = 0;
  const size_t batches[] = {1, 777, kRowgroupSize - 1, kRowgroupSize + 1, 50000};
  size_t b = 0;
  while (i < data.size()) {
    const size_t take = std::min(batches[b++ % 5], data.size() - i);
    appender.AppendBatch(data.data() + i, take);
    i += take;
  }
  const auto buffer = appender.Finish();
  std::vector<double> out(data.size());
  ASSERT_TRUE(DecompressColumn(buffer, out.data()).ok());
  ExpectBitExact(data, out);
}

TEST(Appender, EmptyColumn) {
  ColumnAppender<double> appender;
  const auto buffer = appender.Finish();
  ColumnReader<double> reader(buffer.data(), buffer.size());
  EXPECT_EQ(reader.value_count(), 0u);
}

TEST(Appender, SingleValue) {
  ColumnAppender<double> appender;
  appender.Append(-42.125);
  const auto buffer = appender.Finish();
  ColumnReader<double> reader(buffer.data(), buffer.size());
  ASSERT_EQ(reader.value_count(), 1u);
  double out = 0;
  reader.DecodeVector(0, &out);
  EXPECT_EQ(out, -42.125);
}

TEST(Appender, ExactlyOneRowgroup) {
  const auto data = Decimals(kRowgroupSize, 3);
  ColumnAppender<double> appender;
  appender.AppendBatch(data.data(), data.size());
  // The rowgroup flushed eagerly: compressed bytes are already visible.
  EXPECT_GT(appender.compressed_bytes(), 0u);
  const auto buffer = appender.Finish();
  EXPECT_EQ(buffer, CompressColumn(data.data(), data.size()));
}

TEST(Appender, ReusableAfterFinish) {
  ColumnAppender<double> appender;
  const auto first = Decimals(5000, 4);
  appender.AppendBatch(first.data(), first.size());
  const auto buffer1 = appender.Finish();
  EXPECT_EQ(appender.value_count(), 0u);

  const auto second = Decimals(3000, 5);
  appender.AppendBatch(second.data(), second.size());
  const auto buffer2 = appender.Finish();

  std::vector<double> out1(first.size());
  ASSERT_TRUE(DecompressColumn(buffer1, out1.data()).ok());
  ExpectBitExact(first, out1);
  std::vector<double> out2(second.size());
  ASSERT_TRUE(DecompressColumn(buffer2, out2.data()).ok());
  ExpectBitExact(second, out2);
}

TEST(Appender, InfoAccumulates) {
  const auto data = Decimals(kRowgroupSize * 2, 6);
  ColumnAppender<double> appender;
  appender.AppendBatch(data.data(), data.size());
  EXPECT_EQ(appender.info().rowgroups, 2u);
  EXPECT_EQ(appender.info().vectors, 2u * kRowgroupVectors);
}

TEST(Appender, FloatColumn) {
  std::mt19937_64 rng(7);
  std::vector<float> data(kRowgroupSize + 99);
  for (auto& v : data) {
    v = static_cast<float>(static_cast<int32_t>(rng() % 100000)) / 10.0f;
  }
  ColumnAppender<float> appender;
  appender.AppendBatch(data.data(), data.size());
  const auto buffer = appender.Finish();
  std::vector<float> out(data.size());
  ASSERT_TRUE(DecompressColumn(buffer, out.data()).ok());
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_EQ(BitsOf(out[i]), BitsOf(data[i]));
  }
}

TEST(Appender, ValidatesAgainstReader) {
  const auto data = Decimals(123456, 8);
  ColumnAppender<double> appender;
  appender.AppendBatch(data.data(), data.size());
  const auto buffer = appender.Finish();
  const Status s = ValidateColumnEx<double>(buffer.data(), buffer.size());
  EXPECT_TRUE(s.ok()) << s.ToString();
}

}  // namespace
}  // namespace alp
