// Tests for the v2 format's per-vector zone maps, ValidateColumnEx, and the
// failure-injection behaviour on corrupted buffers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "alp/column.h"
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

TEST(ZoneMap, MinMaxMatchData) {
  const auto data = Decimals(kVectorSize * 5 + 100, 1);
  const auto buffer = CompressColumn(data.data(), data.size());
  ColumnReader<double> reader(buffer.data(), buffer.size());
  for (size_t v = 0; v < reader.vector_count(); ++v) {
    const VectorStats& stats = reader.Stats(v);
    double min = std::numeric_limits<double>::infinity();
    double max = -min;
    for (unsigned i = 0; i < reader.VectorLength(v); ++i) {
      min = std::min(min, data[v * kVectorSize + i]);
      max = std::max(max, data[v * kVectorSize + i]);
    }
    EXPECT_EQ(stats.min, min) << v;
    EXPECT_EQ(stats.max, max) << v;
  }
}

TEST(ZoneMap, SignedZerosMatchSerialFold) {
  // The zone map must equal the serial fold `min = x < min ? x : min` bit
  // for bit. +0.0 and -0.0 compare equal, so the serial fold keeps the
  // first zero in index order. Each case puts two zeros of opposite sign
  // at positions whose later one has the smaller index modulo every
  // power-of-two stripe count, so a striped fold that combines its stripes
  // in stripe order picks the wrong zero unless it fixes the sign up.
  const double zero_pairs[][2] = {{-0.0, 0.0}, {0.0, -0.0}};
  const std::pair<unsigned, unsigned> positions[] = {{7, 8}, {63, 64}, {5, 514}, {1, 1022}};
  for (const double sign : {1.0, -1.0}) {  // Zeros are the min, then the max.
    for (const auto& zeros : zero_pairs) {
      for (const auto& [first, second] : positions) {
        for (const size_t len : {size_t{kVectorSize}, size_t{kVectorSize} + 1023}) {
          std::vector<double> data(len);
          for (size_t i = 0; i < len; ++i) data[i] = sign * (1.0 + static_cast<double>(i % 50));
          // The second vector is a tail of 1023 values; it gets the zeros too.
          for (const size_t base : {size_t{0}, size_t{kVectorSize}}) {
            if (base + second >= len) continue;
            data[base + first] = zeros[0];
            data[base + second] = zeros[1];
          }
          const auto buffer = CompressColumn(data.data(), data.size());
          ColumnReader<double> reader(buffer.data(), buffer.size());
          for (size_t v = 0; v < reader.vector_count(); ++v) {
            double min = std::numeric_limits<double>::infinity();
            double max = -min;
            for (unsigned i = 0; i < reader.VectorLength(v); ++i) {
              const double x = data[v * kVectorSize + i];
              min = x < min ? x : min;
              max = x > max ? x : max;
            }
            SCOPED_TRACE(testing::Message() << "sign " << sign << " zeros at "
                                            << first << "," << second << " len "
                                            << len << " vector " << v);
            EXPECT_EQ(BitsOf(reader.Stats(v).min), BitsOf(min));
            EXPECT_EQ(BitsOf(reader.Stats(v).max), BitsOf(max));
          }
        }
      }
    }
  }
}

TEST(ZoneMap, MayContainSemantics) {
  VectorStats stats;
  stats.min = 10.0;
  stats.max = 20.0;
  EXPECT_TRUE(stats.MayContain(15.0, 16.0));
  EXPECT_TRUE(stats.MayContain(5.0, 10.0));    // Touches min.
  EXPECT_TRUE(stats.MayContain(20.0, 30.0));   // Touches max.
  EXPECT_TRUE(stats.MayContain(0.0, 100.0));   // Covers.
  EXPECT_FALSE(stats.MayContain(21.0, 30.0));
  EXPECT_FALSE(stats.MayContain(0.0, 9.0));
}

TEST(ZoneMap, NansAreExcluded) {
  std::vector<double> data(kVectorSize, std::numeric_limits<double>::quiet_NaN());
  data[10] = 5.0;
  data[20] = 7.0;
  const auto buffer = CompressColumn(data.data(), data.size());
  ColumnReader<double> reader(buffer.data(), buffer.size());
  EXPECT_EQ(reader.Stats(0).min, 5.0);
  EXPECT_EQ(reader.Stats(0).max, 7.0);
}

TEST(ZoneMap, AllNanVectorMatchesNothing) {
  std::vector<double> data(kVectorSize, std::numeric_limits<double>::quiet_NaN());
  const auto buffer = CompressColumn(data.data(), data.size());
  ColumnReader<double> reader(buffer.data(), buffer.size());
  EXPECT_FALSE(reader.VectorMayContain(0, -1e308, 1e308));
}

TEST(ZoneMap, SkippingIsSound) {
  // Sorted data: most vectors are disjoint from a narrow range; verify that
  // the vectors the zone map admits contain ALL matching values.
  std::vector<double> data(kVectorSize * 20);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<double>(i) * 0.25;
  const auto buffer = CompressColumn(data.data(), data.size());
  ColumnReader<double> reader(buffer.data(), buffer.size());

  const double lo = 1000.0;
  const double hi = 1100.0;
  size_t matches_in_admitted = 0;
  size_t admitted = 0;
  std::vector<double> out(kVectorSize);
  for (size_t v = 0; v < reader.vector_count(); ++v) {
    if (!reader.VectorMayContain(v, lo, hi)) continue;
    ++admitted;
    ASSERT_TRUE(reader.TryDecodeVector(v, out.data()).ok());
    for (unsigned i = 0; i < reader.VectorLength(v); ++i) {
      matches_in_admitted += out[i] >= lo && out[i] <= hi;
    }
  }
  size_t true_matches = 0;
  for (double v : data) true_matches += v >= lo && v <= hi;
  EXPECT_EQ(matches_in_admitted, true_matches);
  EXPECT_LT(admitted, reader.vector_count() / 4);  // Real skipping happened.
}

TEST(ZoneMap, RdRowgroupsHaveStatsToo) {
  std::mt19937_64 rng(3);
  std::vector<double> data(kVectorSize * 3);
  for (auto& v : data) v = 1.0 + static_cast<double>(rng() >> 11) * 0x1.0p-53;
  const auto buffer = CompressColumn(data.data(), data.size());
  ColumnReader<double> reader(buffer.data(), buffer.size());
  ASSERT_EQ(reader.VectorScheme(0), Scheme::kAlpRd);
  EXPECT_GE(reader.Stats(0).min, 1.0);
  EXPECT_LE(reader.Stats(0).max, 2.0);
}

// ---------------------------------------------------------------------------
// ValidateColumnEx.
// ---------------------------------------------------------------------------

TEST(Validate, AcceptsGoodBuffers) {
  for (size_t n : {size_t{0}, size_t{1}, size_t{1024}, size_t{300000}}) {
    const auto data = Decimals(n, n + 1);
    const auto buffer = CompressColumn(data.data(), n);
    const Status s = ValidateColumnEx<double>(buffer.data(), buffer.size());
    EXPECT_TRUE(s.ok()) << n << ": " << s.ToString();
  }
}

TEST(Validate, RejectsNullAndTiny) {
  EXPECT_FALSE(ValidateColumnEx<double>(nullptr, 0).ok());
  const uint8_t junk[4] = {1, 2, 3, 4};
  EXPECT_FALSE(ValidateColumnEx<double>(junk, sizeof(junk)).ok());
}

TEST(Validate, RejectsBadMagic) {
  const auto data = Decimals(1024, 1);
  auto buffer = CompressColumn(data.data(), data.size());
  buffer[0] ^= 0xFF;
  const Status s = ValidateColumnEx<double>(buffer.data(), buffer.size());
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.message(), "bad magic");
}

TEST(Validate, RejectsWrongVersion) {
  const auto data = Decimals(1024, 2);
  auto buffer = CompressColumn(data.data(), data.size());
  buffer[4] = 99;  // Version byte.
  EXPECT_FALSE(ValidateColumnEx<double>(buffer.data(), buffer.size()).ok());
}

TEST(Validate, RejectsTypeMismatch) {
  const auto data = Decimals(1024, 3);
  const auto buffer = CompressColumn(data.data(), data.size());
  EXPECT_TRUE(ValidateColumnEx<double>(buffer.data(), buffer.size()).ok());
  EXPECT_FALSE(ValidateColumnEx<float>(buffer.data(), buffer.size()).ok());
}

TEST(Validate, RejectsTruncation) {
  const auto data = Decimals(kRowgroupSize + 5, 4);
  const auto buffer = CompressColumn(data.data(), data.size());
  for (size_t cut : {buffer.size() / 2, buffer.size() - 9, size_t{30}}) {
    EXPECT_FALSE(ValidateColumnEx<double>(buffer.data(), cut).ok()) << cut;
  }
}

TEST(Validate, RejectsCorruptedRowgroupOffset) {
  const auto data = Decimals(4096, 5);
  auto buffer = CompressColumn(data.data(), data.size());
  // The first rowgroup offset lives right after the 24-byte header.
  uint64_t bogus = buffer.size() + 1024;
  std::memcpy(buffer.data() + 24, &bogus, sizeof(bogus));
  EXPECT_FALSE(ValidateColumnEx<double>(buffer.data(), buffer.size()).ok());
}

TEST(Validate, RejectsForeignBytes) {
  std::mt19937_64 rng(6);
  std::vector<uint8_t> junk(4096);
  for (auto& b : junk) b = static_cast<uint8_t>(rng());
  EXPECT_FALSE(ValidateColumnEx<double>(junk.data(), junk.size()).ok());
}

}  // namespace
}  // namespace alp
