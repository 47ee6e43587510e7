// Tests for the self-describing column container: full round-trips across
// rowgroup boundaries, random vector access (the skippability property the
// paper highlights vs. block-based Zstd), mixed ALP/ALP_rd rowgroups, and
// compression-ratio sanity.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>
#include <vector>

#include "alp/column.h"
#include "util/bits.h"

namespace alp {
namespace {

std::vector<double> Decimals(size_t n, int precision, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<double> values(n);
  const double f10 = AlpTraits<double>::kF10[precision];
  for (auto& v : values) {
    v = static_cast<double>(static_cast<int64_t>(rng() % 10000000)) / f10;
  }
  return values;
}

std::vector<double> RealDoubles(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<double> values(n);
  for (auto& v : values) v = static_cast<double>(rng() >> 11) * 0x1.0p-53;
  return values;
}

void ExpectBitExact(const std::vector<double>& a, const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(BitsOf(a[i]), BitsOf(b[i])) << "index " << i;
  }
}

TEST(Column, RoundTripSingleVector) {
  const auto data = Decimals(kVectorSize, 2, 1);
  const auto buffer = CompressColumn(data.data(), data.size());
  std::vector<double> out(data.size());
  ASSERT_TRUE(DecompressColumn(buffer, out.data()).ok());
  ExpectBitExact(data, out);
}

TEST(Column, RoundTripPartialVector) {
  const auto data = Decimals(777, 3, 2);
  const auto buffer = CompressColumn(data.data(), data.size());
  std::vector<double> out(data.size());
  ASSERT_TRUE(DecompressColumn(buffer, out.data()).ok());
  ExpectBitExact(data, out);
}

TEST(Column, RoundTripMultiRowgroup) {
  const auto data = Decimals(kRowgroupSize * 2 + 12345, 2, 3);
  CompressionInfo info;
  const auto buffer = CompressColumn(data.data(), data.size(), {}, &info);
  EXPECT_EQ(info.rowgroups, 3u);
  EXPECT_EQ(info.vectors, (data.size() + kVectorSize - 1) / kVectorSize);
  std::vector<double> out(data.size());
  ASSERT_TRUE(DecompressColumn(buffer, out.data()).ok());
  ExpectBitExact(data, out);
}

TEST(Column, EmptyColumn) {
  const auto buffer = CompressColumn<double>(nullptr, 0);
  ColumnReader<double> reader(buffer.data(), buffer.size());
  EXPECT_EQ(reader.value_count(), 0u);
  EXPECT_EQ(reader.vector_count(), 0u);
}

TEST(Column, SingleValue) {
  const double v = 1234.56;
  const auto buffer = CompressColumn(&v, 1);
  ColumnReader<double> reader(buffer.data(), buffer.size());
  ASSERT_EQ(reader.value_count(), 1u);
  double out = 0;
  ASSERT_TRUE(reader.TryDecodeVector(0, &out).ok());
  EXPECT_EQ(BitsOf(out), BitsOf(v));
}

TEST(Column, RandomVectorAccess) {
  const auto data = Decimals(kRowgroupSize + 5000, 2, 4);
  const auto buffer = CompressColumn(data.data(), data.size());
  ColumnReader<double> reader(buffer.data(), buffer.size());

  // Decode vectors out of order; results must match the right slices.
  const size_t indices[] = {7, 0, 42, reader.vector_count() - 1, 100, 3};
  for (size_t v : indices) {
    if (v >= reader.vector_count()) continue;
    std::vector<double> out(reader.VectorLength(v));
    ASSERT_TRUE(reader.TryDecodeVector(v, out.data()).ok());
    const std::vector<double> expected(data.begin() + v * kVectorSize,
                                       data.begin() + v * kVectorSize + out.size());
    ExpectBitExact(expected, out);
  }
}

TEST(Column, VectorLengthAndScheme) {
  const auto data = Decimals(kVectorSize * 2 + 100, 2, 5);
  const auto buffer = CompressColumn(data.data(), data.size());
  ColumnReader<double> reader(buffer.data(), buffer.size());
  ASSERT_EQ(reader.vector_count(), 3u);
  EXPECT_EQ(reader.VectorLength(0), kVectorSize);
  EXPECT_EQ(reader.VectorLength(2), 100u);
  EXPECT_EQ(reader.VectorScheme(0), Scheme::kAlp);
}

TEST(Column, RdRowgroupRoundTrip) {
  const auto data = RealDoubles(kRowgroupSize + 321, 6);
  CompressionInfo info;
  const auto buffer = CompressColumn(data.data(), data.size(), {}, &info);
  EXPECT_EQ(info.rowgroups_rd, info.rowgroups);  // All rowgroups fell back.
  std::vector<double> out(data.size());
  ASSERT_TRUE(DecompressColumn(buffer, out.data()).ok());
  ExpectBitExact(data, out);

  ColumnReader<double> reader(buffer.data(), buffer.size());
  EXPECT_EQ(reader.VectorScheme(0), Scheme::kAlpRd);
}

TEST(Column, MixedSchemesAcrossRowgroups) {
  auto data = Decimals(kRowgroupSize, 2, 7);
  const auto real = RealDoubles(kRowgroupSize, 8);
  data.insert(data.end(), real.begin(), real.end());
  const auto tail = Decimals(kRowgroupSize / 2, 1, 9);
  data.insert(data.end(), tail.begin(), tail.end());

  CompressionInfo info;
  const auto buffer = CompressColumn(data.data(), data.size(), {}, &info);
  EXPECT_EQ(info.rowgroups, 3u);
  EXPECT_EQ(info.rowgroups_rd, 1u);

  std::vector<double> out(data.size());
  ASSERT_TRUE(DecompressColumn(buffer, out.data()).ok());
  ExpectBitExact(data, out);

  ColumnReader<double> reader(buffer.data(), buffer.size());
  EXPECT_EQ(reader.VectorScheme(0), Scheme::kAlp);
  EXPECT_EQ(reader.VectorScheme(kRowgroupVectors), Scheme::kAlpRd);
  EXPECT_EQ(reader.VectorScheme(2 * kRowgroupVectors), Scheme::kAlp);
}

TEST(Column, SpecialValuesSurvive) {
  auto data = Decimals(kVectorSize * 3, 2, 10);
  data[0] = std::numeric_limits<double>::quiet_NaN();
  data[100] = std::numeric_limits<double>::infinity();
  data[2000] = -0.0;
  data[2500] = DoubleFromBits(0x7FF8000000001234ULL);
  data[3000] = std::numeric_limits<double>::denorm_min();
  const auto buffer = CompressColumn(data.data(), data.size());
  std::vector<double> out(data.size());
  ASSERT_TRUE(DecompressColumn(buffer, out.data()).ok());
  ExpectBitExact(data, out);
}

TEST(Column, CompressionRatioOnDecimalsBeatsRaw) {
  const auto data = Decimals(kRowgroupSize, 2, 11);
  const auto buffer = CompressColumn(data.data(), data.size());
  const double bpv = BitsPerValue<double>(buffer, data.size());
  // 7-digit decimals fit ~24 bits plus overhead; anything < 40 shows the
  // format compresses.
  EXPECT_LT(bpv, 40.0);
  EXPECT_GT(bpv, 1.0);
}

TEST(Column, ConstantColumnCompressesExtremely) {
  std::vector<double> data(kRowgroupSize, 42.5);
  const auto buffer = CompressColumn(data.data(), data.size());
  EXPECT_LT(BitsPerValue<double>(buffer, data.size()), 2.0);
}

TEST(Column, ZeroHeavyColumn) {
  std::vector<double> data(kRowgroupSize, 0.0);
  for (size_t i = 0; i < data.size(); i += 97) data[i] = 12.75;
  const auto buffer = CompressColumn(data.data(), data.size());
  std::vector<double> out(data.size());
  ASSERT_TRUE(DecompressColumn(buffer, out.data()).ok());
  ExpectBitExact(data, out);
  EXPECT_LT(BitsPerValue<double>(buffer, data.size()), 12.0);
}

TEST(Column, InfoExceptionCounters) {
  auto data = Decimals(kVectorSize, 2, 12);
  data[5] = std::numeric_limits<double>::quiet_NaN();
  data[6] = std::numeric_limits<double>::quiet_NaN();
  CompressionInfo info;
  CompressColumn(data.data(), data.size(), {}, &info);
  EXPECT_GE(info.exceptions, 2u);
  EXPECT_EQ(info.vectors, 1u);
}

TEST(Column, WrongTypeTagRejected) {
  const auto data = Decimals(kVectorSize, 2, 13);
  const auto buffer = CompressColumn(data.data(), data.size());
  ColumnReader<float> reader(buffer.data(), buffer.size());
  EXPECT_EQ(reader.value_count(), 0u);  // Type mismatch -> empty reader.
}

TEST(Column, DeltaIntegerEncodingOnSortedData) {
  // Sorted decimals: the encoded integers are monotone, so Delta packs far
  // narrower than FOR (the paper's "somewhat ordered data" extension).
  std::vector<double> data(kRowgroupSize);
  for (size_t i = 0; i < data.size(); ++i) {
    // Exact decimal grid: (100000 + i) cents.
    data[i] = static_cast<double>(100000 + i) / 100.0;
  }
  SamplerConfig plain;
  SamplerConfig with_delta;
  with_delta.try_delta_encoding = true;

  const auto ffor_buf = CompressColumn(data.data(), data.size(), plain);
  const auto delta_buf = CompressColumn(data.data(), data.size(), with_delta);
  EXPECT_LT(delta_buf.size(), ffor_buf.size() / 2);

  std::vector<double> out(data.size());
  ASSERT_TRUE(DecompressColumn(delta_buf, out.data()).ok());
  ExpectBitExact(data, out);
  const Status s =
      ValidateColumnEx<double>(delta_buf.data(), delta_buf.size());
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(Column, DeltaFallsBackToForOnUnsortedData) {
  // Unsorted data: Delta loses, so the flag must not change the output
  // beyond (at most) per-vector ties.
  const auto data = Decimals(kVectorSize * 4, 2, 21);
  SamplerConfig with_delta;
  with_delta.try_delta_encoding = true;
  const auto buffer = CompressColumn(data.data(), data.size(), with_delta);
  std::vector<double> out(data.size());
  ASSERT_TRUE(DecompressColumn(buffer, out.data()).ok());
  ExpectBitExact(data, out);
}

TEST(Column, DeltaModeRandomAccessStillWorks) {
  std::vector<double> data(kVectorSize * 6);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<double>(i) * 0.125;
  }
  SamplerConfig with_delta;
  with_delta.try_delta_encoding = true;
  const auto buffer = CompressColumn(data.data(), data.size(), with_delta);
  ColumnReader<double> reader(buffer.data(), buffer.size());
  std::vector<double> out(kVectorSize);
  ASSERT_TRUE(reader.TryDecodeVector(3, out.data()).ok());
  for (unsigned i = 0; i < kVectorSize; ++i) {
    ASSERT_EQ(BitsOf(out[i]), BitsOf(data[3 * kVectorSize + i]));
  }
}

TEST(Column, DecodeAllEqualsPerVectorDecode) {
  const auto data = Decimals(kVectorSize * 7 + 99, 3, 14);
  const auto buffer = CompressColumn(data.data(), data.size());
  ColumnReader<double> reader(buffer.data(), buffer.size());

  std::vector<double> all(data.size() + kVectorSize);  // Slack for full tail.
  ASSERT_TRUE(reader.TryDecodeAll(all.data()).ok());
  for (size_t v = 0; v < reader.vector_count(); ++v) {
    std::vector<double> one(reader.VectorLength(v));
    ASSERT_TRUE(reader.TryDecodeVector(v, one.data()).ok());
    for (size_t i = 0; i < one.size(); ++i) {
      ASSERT_EQ(BitsOf(one[i]), BitsOf(all[v * kVectorSize + i]));
    }
  }
}

}  // namespace
}  // namespace alp
