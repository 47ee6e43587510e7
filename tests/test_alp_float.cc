// Tests for the 32-bit float port of ALP (paper Section 4.4): encoder,
// sampler and column format instantiated for float, with float-specific
// precision limits.

#include <gtest/gtest.h>

#include <limits>
#include <random>
#include <vector>

#include "alp/column.h"
#include "alp/encoder.h"
#include "alp/sampler.h"
#include "util/bits.h"

namespace alp {
namespace {

std::vector<float> FloatDecimals(size_t n, int precision, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<float> values(n);
  const float f10 = AlpTraits<float>::kF10[precision];
  for (auto& v : values) {
    v = static_cast<float>(static_cast<int32_t>(rng() % 100000)) / f10;
  }
  return values;
}

void ExpectBitExact(const std::vector<float>& a, const std::vector<float>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(BitsOf(a[i]), BitsOf(b[i])) << "index " << i;
  }
}

TEST(FloatTraits, TablesAreExact) {
  // 10^10 is the largest power of ten exactly representable in float.
  EXPECT_EQ(AlpTraits<float>::kF10[10], 1e10f);
  EXPECT_EQ(AlpTraits<float>::kMaxExponent, 10);
}

TEST(FloatEncoder, TwoDecimalRoundTrip) {
  const auto in = FloatDecimals(kVectorSize, 2, 1);
  EncodedVector<float> enc;
  const Combination c{7, 5};
  EncodeVector(in.data(), kVectorSize, c, &enc);
  std::vector<float> out(kVectorSize);
  DecodeVector<float>(enc.encoded, c, out.data());
  PatchExceptions(out.data(), enc.exceptions, enc.exc_positions, enc.exc_count);
  ExpectBitExact(in, out);
}

TEST(FloatEncoder, SpecialValues) {
  auto in = FloatDecimals(kVectorSize, 1, 2);
  in[0] = std::numeric_limits<float>::quiet_NaN();
  in[1] = std::numeric_limits<float>::infinity();
  in[2] = -0.0f;
  in[3] = std::numeric_limits<float>::denorm_min();
  EncodedVector<float> enc;
  const Combination c{7, 6};
  EncodeVector(in.data(), kVectorSize, c, &enc);
  std::vector<float> out(kVectorSize);
  DecodeVector<float>(enc.encoded, c, out.data());
  PatchExceptions(out.data(), enc.exceptions, enc.exc_positions, enc.exc_count);
  ExpectBitExact(in, out);
}

TEST(FloatSampler, FindsWorkingCombination) {
  const auto data = FloatDecimals(kRowgroupSize, 2, 3);
  const RowgroupAnalysis analysis = AnalyzeRowgroup(data.data(), data.size());
  EXPECT_EQ(analysis.scheme, Scheme::kAlp);
  ASSERT_FALSE(analysis.combinations.empty());
  EXPECT_LE(analysis.combinations.front().e, AlpTraits<float>::kMaxExponent);
}

TEST(FloatColumn, RoundTripDecimals) {
  const auto data = FloatDecimals(kRowgroupSize + 777, 2, 4);
  const auto buffer = CompressColumn(data.data(), data.size());
  std::vector<float> out(data.size());
  ASSERT_TRUE(DecompressColumn(buffer, out.data()).ok());
  ExpectBitExact(data, out);
  EXPECT_LT(BitsPerValue<float>(buffer, data.size()), 26.0);
}

TEST(FloatColumn, MlWeightsFallBackToRd) {
  std::mt19937_64 rng(5);
  std::vector<float> data(kRowgroupSize);
  for (auto& v : data) {
    v = static_cast<float>((static_cast<double>(rng() >> 11) * 0x1.0p-53 - 0.5) * 0.1);
  }
  CompressionInfo info;
  const auto buffer = CompressColumn(data.data(), data.size(), {}, &info);
  EXPECT_EQ(info.rowgroups_rd, info.rowgroups);
  std::vector<float> out(data.size());
  ASSERT_TRUE(DecompressColumn(buffer, out.data()).ok());
  ExpectBitExact(data, out);
  EXPECT_LT(BitsPerValue<float>(buffer, data.size()), 32.0);
}

TEST(FloatColumn, HalvedRatioMirrorsDoubleRepresentation) {
  // Section 4.4: the same decimal data compressed as float yields the same
  // compressed size as the double version, i.e. half the ratio.
  const auto fdata = FloatDecimals(kRowgroupSize, 2, 6);
  std::vector<double> ddata(fdata.begin(), fdata.end());
  // Rebuild doubles as exact decimals (float->double of a decimal float is
  // not the decimal's nearest double, so regenerate).
  std::mt19937_64 rng(6);
  for (size_t i = 0; i < ddata.size(); ++i) {
    const int64_t d = static_cast<int64_t>(rng() % 100000);
    ddata[i] = static_cast<double>(d) / 100.0;
  }

  const auto dbuf = CompressColumn(ddata.data(), ddata.size());
  const double dbits = BitsPerValue<double>(dbuf, ddata.size());
  // Same integers at float precision.
  std::vector<float> fsame(ddata.size());
  for (size_t i = 0; i < ddata.size(); ++i) {
    fsame[i] = static_cast<float>(static_cast<int64_t>(ddata[i] * 100.0 + 0.5)) / 100.0f;
  }
  const auto fbuf = CompressColumn(fsame.data(), fsame.size());
  const double fbits = BitsPerValue<float>(fbuf, fsame.size());
  // Compressed bits per value should be in the same ballpark (the encoded
  // integers are identical; only per-vector metadata differs).
  EXPECT_NEAR(fbits, dbits, dbits * 0.5);
}

TEST(FloatColumn, RandomVectorAccess) {
  const auto data = FloatDecimals(kVectorSize * 5 + 321, 1, 7);
  const auto buffer = CompressColumn(data.data(), data.size());
  ColumnReader<float> reader(buffer.data(), buffer.size());
  std::vector<float> out(reader.VectorLength(3));
  reader.DecodeVector(3, out.data());
  const std::vector<float> expected(data.begin() + 3 * kVectorSize,
                                    data.begin() + 3 * kVectorSize + out.size());
  ExpectBitExact(expected, out);
}

}  // namespace
}  // namespace alp
