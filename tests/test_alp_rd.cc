// Tests for ALP_rd (Section 3.4 / Algorithm 3): cut-position search, skewed
// dictionary construction, exception handling and bit-exact glue decoding
// on "real doubles".

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <random>
#include <vector>

#include "alp/rd.h"
#include "util/bits.h"

namespace alp {
namespace {

/// Full-mantissa-entropy doubles in a narrow range (POI-like).
std::vector<double> RealDoubles(size_t n, uint64_t seed, double lo = 0.0,
                                double hi = 1.2) {
  std::mt19937_64 rng(seed);
  std::vector<double> values(n);
  for (auto& v : values) {
    v = lo + (hi - lo) * (static_cast<double>(rng() >> 11) * 0x1.0p-53);
  }
  return values;
}

template <typename T>
std::vector<T> RoundTripRd(const std::vector<T>& in, const RdParams<T>& params) {
  RdEncodedVector<T> enc;
  RdEncodeVector(in.data(), static_cast<unsigned>(in.size()), params, &enc);
  std::vector<T> out(kVectorSize);
  RdDecodeVector(enc, params, out.data());
  out.resize(in.size());
  return out;
}

TEST(RdAnalyze, PicksLeftBitsWithinLimit) {
  const auto data = RealDoubles(kRowgroupSize, 1);
  const RdParams<double> params = RdAnalyzeRowgroup(data.data(), data.size());
  EXPECT_GE(params.right_bits, 64u - kRdMaxLeftBits);
  EXPECT_LT(params.right_bits, 64u);
  EXPECT_GE(params.dict_size, 1u);
  EXPECT_LE(params.dict_size, kRdMaxDictSize);
  EXPECT_LE(params.dict_width, kRdMaxDictWidth);
}

TEST(RdAnalyze, NarrowRangeNeedsTinyDictionary) {
  // All values in [1.0, 1.0000001): sign+exponent+top mantissa bits are
  // constant, so a 1-entry dictionary (0 code bits) should cover the left
  // parts.
  const auto data = RealDoubles(kRowgroupSize, 2, 1.0, 1.0000001);
  const RdParams<double> params = RdAnalyzeRowgroup(data.data(), data.size());
  EXPECT_LE(params.dict_width, 1u);
  const double bits = RdEstimateBitsPerValue(data.data(), 1024, params);
  EXPECT_LT(bits, 58.0);  // Beats raw 64 bits.
}

TEST(RdAnalyze, EstimateAccountsForExceptions) {
  const auto data = RealDoubles(kRowgroupSize, 3);
  RdParams<double> params = RdAnalyzeRowgroup(data.data(), data.size());
  // Break the dictionary on purpose: estimate must rise.
  RdParams<double> broken = params;
  for (unsigned i = 0; i < broken.dict_size; ++i) broken.dict[i] = 0xFFFF;
  EXPECT_GT(RdEstimateBitsPerValue(data.data(), 1024, broken),
            RdEstimateBitsPerValue(data.data(), 1024, params));
}

TEST(RdEncode, BitExactRoundTrip) {
  const auto all = RealDoubles(kRowgroupSize, 4);
  const RdParams<double> params = RdAnalyzeRowgroup(all.data(), all.size());
  const std::vector<double> in(all.begin(), all.begin() + kVectorSize);
  const auto out = RoundTripRd(in, params);
  for (unsigned i = 0; i < kVectorSize; ++i) {
    ASSERT_EQ(BitsOf(out[i]), BitsOf(in[i])) << i;
  }
}

TEST(RdEncode, ExceptionsAreRareOnCoherentData) {
  const auto all = RealDoubles(kRowgroupSize, 5);
  const RdParams<double> params = RdAnalyzeRowgroup(all.data(), all.size());
  RdEncodedVector<double> enc;
  RdEncodeVector(all.data(), kVectorSize, params, &enc);
  // The dictionary was chosen for <= 10% exceptions on the sample.
  EXPECT_LE(enc.exc_count, kVectorSize / 4);
}

TEST(RdEncode, ValuesOutsideDictionaryBecomeExceptions) {
  const auto all = RealDoubles(kRowgroupSize, 6, 1.0, 1.001);
  const RdParams<double> params = RdAnalyzeRowgroup(all.data(), all.size());
  std::vector<double> in(all.begin(), all.begin() + kVectorSize);
  in[17] = 1e300;   // Wildly different front bits.
  in[901] = -2.5;
  RdEncodedVector<double> enc;
  RdEncodeVector(in.data(), kVectorSize, params, &enc);
  EXPECT_GE(enc.exc_count, 2);
  const auto out = RoundTripRd(in, params);
  for (unsigned i = 0; i < kVectorSize; ++i) {
    ASSERT_EQ(BitsOf(out[i]), BitsOf(in[i])) << i;
  }
}

TEST(RdEncode, SpecialValuesRoundTrip) {
  auto in = RealDoubles(kVectorSize, 7);
  in[0] = std::numeric_limits<double>::quiet_NaN();
  in[1] = std::numeric_limits<double>::infinity();
  in[2] = -std::numeric_limits<double>::infinity();
  in[3] = 0.0;
  in[4] = -0.0;
  in[5] = std::numeric_limits<double>::denorm_min();
  const RdParams<double> params = RdAnalyzeRowgroup(in.data(), in.size());
  const auto out = RoundTripRd(in, params);
  for (unsigned i = 0; i < kVectorSize; ++i) {
    ASSERT_EQ(BitsOf(out[i]), BitsOf(in[i])) << i;
  }
}

TEST(RdEncode, PartialVector) {
  const auto all = RealDoubles(kRowgroupSize, 8);
  const RdParams<double> params = RdAnalyzeRowgroup(all.data(), all.size());
  const std::vector<double> in(all.begin(), all.begin() + 100);
  const auto out = RoundTripRd(in, params);
  for (unsigned i = 0; i < 100; ++i) {
    ASSERT_EQ(BitsOf(out[i]), BitsOf(in[i]));
  }
}

TEST(RdEncode, DictionaryProbeTakesFirstMatch) {
  RdParams<double> params;
  params.right_bits = 48;
  params.dict_size = 4;
  params.dict_width = 2;
  params.dict[0] = 0x3FF0;
  params.dict[1] = 0x3FF0;  // Duplicate entry: code 0 must win.
  params.dict[2] = 0x4000;
  params.dict[3] = 0x4010;
  std::vector<double> in(1, DoubleFromBits(uint64_t{0x3FF0} << 48 | 0x1234));
  RdEncodedVector<double> enc;
  RdEncodeVector(in.data(), 1, params, &enc);
  EXPECT_EQ(enc.left_codes[0], 0);
  EXPECT_EQ(enc.exc_count, 0);
}

/// The linear dictionary probe the code table replaced: for each value,
/// the lowest dictionary index whose entry equals its left part.
template <typename T>
void LinearProbeEncode(const T* in, unsigned n, const RdParams<T>& params,
                       RdEncodedVector<T>* out) {
  using Uint = typename AlpTraits<T>::Uint;
  const unsigned p = params.right_bits;
  const Uint right_mask = static_cast<Uint>((Uint{1} << p) - 1);
  unsigned exc_count = 0;
  for (unsigned i = 0; i < n; ++i) {
    const Uint bits = BitsOf(in[i]);
    const uint16_t left = static_cast<uint16_t>(bits >> p);
    out->right_parts[i] = bits & right_mask;
    uint16_t code = params.dict_size;
    for (unsigned d = 0; d < params.dict_size && code == params.dict_size; ++d) {
      if (params.dict[d] == left) code = static_cast<uint16_t>(d);
    }
    if (code == params.dict_size) {
      out->exceptions[exc_count] = left;
      out->exc_positions[exc_count] = static_cast<uint16_t>(i);
      ++exc_count;
      code = 0;
    }
    out->left_codes[i] = code;
  }
  out->exc_count = static_cast<uint16_t>(exc_count);
  for (unsigned i = n; i < kVectorSize; ++i) {
    out->left_codes[i] = 0;
    out->right_parts[i] = n > 0 ? out->right_parts[0] : Uint{0};
  }
}

/// Encodes \p in with the table body and with the linear probe into
/// buffers prefilled with the same garbage, and compares every field: the
/// codes and right parts including the tail padding, the whole exception
/// arrays (so neither writes past exc_count), and exc_count.
template <typename T>
void ExpectTableMatchesProbe(const std::vector<T>& in, const RdParams<T>& params) {
  auto table = std::make_unique<RdEncodedVector<T>>();
  auto probe = std::make_unique<RdEncodedVector<T>>();
  std::memset(static_cast<void*>(table.get()), 0xA5, sizeof(RdEncodedVector<T>));
  std::memset(static_cast<void*>(probe.get()), 0xA5, sizeof(RdEncodedVector<T>));
  const unsigned n = static_cast<unsigned>(in.size());
  RdEncodeVector(in.data(), n, params, RdCodeTable(params).data(), table.get());
  LinearProbeEncode(in.data(), n, params, probe.get());
  ASSERT_EQ(table->exc_count, probe->exc_count);
  for (unsigned i = 0; i < kVectorSize; ++i) {
    ASSERT_EQ(table->left_codes[i], probe->left_codes[i]) << i;
    ASSERT_EQ(table->right_parts[i], probe->right_parts[i]) << i;
    ASSERT_EQ(table->exceptions[i], probe->exceptions[i]) << i;
    ASSERT_EQ(table->exc_positions[i], probe->exc_positions[i]) << i;
  }
}

template <typename T>
void SweepCodeTableAgainstProbe() {
  using Uint = typename AlpTraits<T>::Uint;
  std::mt19937_64 rng(12);
  for (unsigned left_bits = 1; left_bits <= kRdMaxLeftBits; ++left_bits) {
    const unsigned p = AlpTraits<T>::kValueBits - left_bits;
    const uint32_t left_space = 1u << left_bits;
    for (unsigned dict_size = 0; dict_size <= kRdMaxDictSize; ++dict_size) {
      for (const bool duplicates : {false, true}) {
        RdParams<T> params;
        params.right_bits = static_cast<uint8_t>(p);
        params.dict_size = static_cast<uint8_t>(dict_size);
        for (unsigned d = 0; d < kRdMaxDictSize; ++d) {
          params.dict[d] = static_cast<uint16_t>(rng() % left_space);
        }
        // Entries may repeat: the lowest index must win.
        if (duplicates) {
          for (unsigned d = 1; d < dict_size; d += 2) params.dict[d] = params.dict[d / 2];
        }
        // Slots past dict_size hold left parts the input uses; they must
        // match nothing.
        std::vector<uint16_t> missing;
        for (uint32_t x = 0; x < left_space && missing.size() < 64; ++x) {
          if (std::find(params.dict, params.dict + dict_size, x) ==
              params.dict + dict_size) {
            missing.push_back(static_cast<uint16_t>(x));
          }
        }
        SCOPED_TRACE(::testing::Message() << "left_bits " << left_bits << " dict_size "
                                          << dict_size << " duplicates " << duplicates);
        for (const unsigned n : {1u, 13u, kVectorSize}) {
          // Miss rates: none, about one in ten, all.
          for (const unsigned miss_per_10 : {0u, 1u, 10u}) {
            const bool can_hit = dict_size > 0;
            const bool can_miss = !missing.empty();
            if ((miss_per_10 < 10 && !can_hit) || (miss_per_10 > 0 && !can_miss)) continue;
            std::vector<T> in(n);
            for (auto& v : in) {
              const bool miss = rng() % 10 < miss_per_10;
              const uint16_t left = miss ? missing[rng() % missing.size()]
                                         : params.dict[rng() % dict_size];
              const Uint right = static_cast<Uint>(rng()) & static_cast<Uint>((Uint{1} << p) - 1);
              v = std::bit_cast<T>(static_cast<Uint>(static_cast<Uint>(left) << p | right));
            }
            ExpectTableMatchesProbe(in, params);
          }
        }
      }
    }
  }
}

TEST(RdEncode, CodeTableMatchesLinearProbe) {
  SweepCodeTableAgainstProbe<double>();
  SweepCodeTableAgainstProbe<float>();
}

TEST(RdEncode, CodeTableIgnoresEntriesWiderThanTheCut) {
  RdParams<double> params;
  params.right_bits = 60;  // 4 left bits: a 16-entry table.
  params.dict_size = 2;
  params.dict[0] = 0xFFFF;  // Can never equal a 4-bit left part.
  params.dict[1] = 0x3;
  const std::vector<uint8_t> table = RdCodeTable(params);
  ASSERT_EQ(table.size(), 16u);
  for (unsigned x = 0; x < 16; ++x) EXPECT_EQ(table[x], x == 0x3 ? 1 : 2) << x;
  const std::vector<double> in = {DoubleFromBits(uint64_t{0x3} << 60 | 7),
                                  DoubleFromBits(uint64_t{0xF} << 60 | 9)};
  ExpectTableMatchesProbe(in, params);
}

TEST(RdFloat, BitExactRoundTrip) {
  std::mt19937_64 rng(9);
  std::vector<float> in(kVectorSize);
  for (auto& v : in) {
    v = 0.01f * static_cast<float>(static_cast<double>(rng() >> 11) * 0x1.0p-53 - 0.5);
  }
  const RdParams<float> params = RdAnalyzeRowgroup(in.data(), in.size());
  EXPECT_GE(params.right_bits, 32u - kRdMaxLeftBits);
  RdEncodedVector<float> enc;
  RdEncodeVector(in.data(), kVectorSize, params, &enc);
  std::vector<float> out(kVectorSize);
  RdDecodeVector(enc, params, out.data());
  for (unsigned i = 0; i < kVectorSize; ++i) {
    ASSERT_EQ(BitsOf(out[i]), BitsOf(in[i])) << i;
  }
}

TEST(RdFloat, MlWeightLikeDataCompresses) {
  // Gaussian-ish floats: ALP_rd should land under 32 bits/value estimate
  // (Table 7 reports ~28 bits).
  std::mt19937_64 rng(10);
  std::vector<float> in(kRowgroupSize);
  for (auto& v : in) {
    double u1 = std::max(static_cast<double>(rng() >> 11) * 0x1.0p-53, 1e-12);
    double u2 = static_cast<double>(rng() >> 11) * 0x1.0p-53;
    v = static_cast<float>(0.02 * std::sqrt(-2 * std::log(u1)) *
                           std::cos(6.283185307179586 * u2));
  }
  const RdParams<float> params = RdAnalyzeRowgroup(in.data(), in.size());
  const double bits = RdEstimateBitsPerValue(in.data(), 4096, params);
  EXPECT_LT(bits, 32.0);
}

}  // namespace
}  // namespace alp
