// Tests for the ALP per-vector encoder/decoder (Algorithms 1 and 2): the
// fast rounding trick, exception detection and patching, bit-exact
// round-trips on adversarial values, and the size estimator the sampler
// relies on.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "alp/column.h"
#include "alp/encoder.h"
#include "alp/kernel_dispatch.h"
#include "alp/sampler.h"
#include "util/bits.h"

namespace alp {
namespace {

std::vector<double> DecimalVector(int digits_before, int precision, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<double> values(kVectorSize);
  const double f10 = AlpTraits<double>::kF10[precision];
  int64_t scale = 1;
  for (int i = 0; i < digits_before; ++i) scale *= 10;
  for (auto& v : values) {
    const int64_t d = static_cast<int64_t>(rng() % (scale * static_cast<int64_t>(f10)));
    v = static_cast<double>(d) / f10;
  }
  return values;
}

/// Encode + FFOR-free decode + patch, returning the reconstruction.
std::vector<double> RoundTrip(const std::vector<double>& in, Combination c,
                              uint16_t* exc_count = nullptr) {
  EncodedVector<double> enc;
  EncodeVector(in.data(), static_cast<unsigned>(in.size()), c, &enc);
  std::vector<double> out(kVectorSize);
  DecodeVector<double>(enc.encoded, c, out.data());
  PatchExceptions(out.data(), enc.exceptions, enc.exc_positions, enc.exc_count);
  out.resize(in.size());
  if (exc_count != nullptr) *exc_count = enc.exc_count;
  return out;
}

bool BitEqual(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (BitsOf(a[i]) != BitsOf(b[i])) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Constants.
// ---------------------------------------------------------------------------

TEST(Constants, PowersOfTenAreExact) {
  // Every F10 entry must be the exact integer power of ten (10^e has an
  // exact double representation for e <= 22; we use e <= 18).
  int64_t expected = 1;
  for (int e = 0; e <= AlpTraits<double>::kMaxExponent; ++e) {
    EXPECT_EQ(AlpTraits<double>::kF10[e], static_cast<double>(expected)) << e;
    EXPECT_EQ(static_cast<int64_t>(AlpTraits<double>::kF10[e]), expected) << e;
    if (e < AlpTraits<double>::kMaxExponent) expected *= 10;
  }
  int64_t expected_f = 1;  // 10^10 exceeds int32.
  for (int e = 0; e <= AlpTraits<float>::kMaxExponent; ++e) {
    EXPECT_EQ(AlpTraits<float>::kF10[e], static_cast<float>(expected_f)) << e;
    if (e < AlpTraits<float>::kMaxExponent) expected_f = expected_f * 10;
  }
}

TEST(Constants, InversePowersAreNearestDoubles) {
  // iF10[e] must be the correctly-rounded double closest to 10^-e (what
  // the literal produces); spot-check against division by the exact power.
  for (int e = 0; e <= AlpTraits<double>::kMaxExponent; ++e) {
    EXPECT_EQ(BitsOf(AlpTraits<double>::kIF10[e]),
              BitsOf(1.0 / AlpTraits<double>::kF10[e]))
        << e;
  }
}

TEST(Constants, MagicNumbers) {
  EXPECT_EQ(AlpTraits<double>::kMagic, 6755399441055744.0);  // 2^52 + 2^51.
  EXPECT_EQ(AlpTraits<float>::kMagic, 12582912.0f);          // 2^23 + 2^22.
  EXPECT_EQ(AlpTraits<double>::kMagicBias, int64_t{1} << 51);
  EXPECT_EQ(AlpTraits<float>::kMagicBias, int32_t{1} << 22);
}

// ---------------------------------------------------------------------------
// FastRound.
// ---------------------------------------------------------------------------

TEST(FastRound, MatchesRoundHalfToEvenInRange) {
  EXPECT_EQ(FastRound(0.0), 0);
  EXPECT_EQ(FastRound(1.4), 1);
  EXPECT_EQ(FastRound(1.6), 2);
  EXPECT_EQ(FastRound(-1.4), -1);
  EXPECT_EQ(FastRound(-1.6), -2);
  // Ties round to even (the addition's rounding mode).
  EXPECT_EQ(FastRound(0.5), 0);
  EXPECT_EQ(FastRound(1.5), 2);
  EXPECT_EQ(FastRound(2.5), 2);
  EXPECT_EQ(FastRound(-0.5), 0);
  EXPECT_EQ(FastRound(-1.5), -2);
}

TEST(FastRound, LargeMagnitudesInsideRange) {
  const int64_t big = (int64_t{1} << 50) + 12345;
  EXPECT_EQ(FastRound(static_cast<double>(big)), big);
  EXPECT_EQ(FastRound(static_cast<double>(-big)), -big);
}

TEST(FastRound, RandomIntegersPlusFractions) {
  std::mt19937_64 rng(3);
  for (int i = 0; i < 10000; ++i) {
    const int64_t base =
        static_cast<int64_t>(rng() % (uint64_t{1} << 48)) - (int64_t{1} << 47);
    const double frac = 0.25 * static_cast<double>(rng() % 3);  // 0, .25, .5
    const double v = static_cast<double>(base) + frac;
    const int64_t expected = std::llrint(v);  // Round-half-even, like the trick.
    ASSERT_EQ(FastRound(v), expected) << v;
  }
}

TEST(FastRound, Float32Variant) {
  EXPECT_EQ(FastRound(0.0f), 0);
  EXPECT_EQ(FastRound(2.5f), 2);
  EXPECT_EQ(FastRound(3.5f), 4);
  EXPECT_EQ(FastRound(-1234.49f), -1234);
}

TEST(FastRound, OutOfRangeIsDeterministicNotUb) {
  // Values beyond 2^51 produce a wrong but defined result; the encoder's
  // verification turns these into exceptions.
  const double huge = 1e300;
  const int64_t r1 = FastRound(huge);
  const int64_t r2 = FastRound(huge);
  EXPECT_EQ(r1, r2);
}

// ---------------------------------------------------------------------------
// EncodeVector / DecodeVector.
// ---------------------------------------------------------------------------

TEST(Encoder, PaperExampleRoundTrips) {
  // The running example of Section 2.5/2.6: 8.0605 with e=14, f=10.
  std::vector<double> in(kVectorSize, 8.0605);
  uint16_t exc = 0;
  const auto out = RoundTrip(in, Combination{14, 10}, &exc);
  EXPECT_EQ(exc, 0);
  EXPECT_TRUE(BitEqual(in, out));

  // And the encoded integer is the paper's d = 80605.
  EncodedVector<double> enc;
  EncodeVector(in.data(), kVectorSize, Combination{14, 10}, &enc);
  EXPECT_EQ(enc.encoded[0], 80605);
}

TEST(Encoder, PaperExampleFailsWithNaiveExponent) {
  // Section 2.5 shows e=4 (the visible precision) cannot recover 8.0605.
  std::vector<double> in(kVectorSize, 8.0605);
  uint16_t exc = 0;
  const auto out = RoundTrip(in, Combination{4, 0}, &exc);
  EXPECT_EQ(exc, kVectorSize);  // All become exceptions...
  EXPECT_TRUE(BitEqual(in, out));  // ...but patching still restores them.
}

TEST(Encoder, TwoDecimalPrices) {
  auto in = DecimalVector(3, 2, 42);
  uint16_t exc = 0;
  const auto out = RoundTrip(in, Combination{14, 12}, &exc);
  EXPECT_TRUE(BitEqual(in, out));
  EXPECT_EQ(exc, 0);
}

TEST(Encoder, PartialVector) {
  auto in = DecimalVector(2, 3, 7);
  in.resize(100);
  const auto out = RoundTrip(in, Combination{14, 11});
  EXPECT_TRUE(BitEqual(in, out));
}

TEST(Encoder, SingleValueVector) {
  std::vector<double> in = {12.75};
  const auto out = RoundTrip(in, Combination{14, 12});
  EXPECT_TRUE(BitEqual(in, out));
}

TEST(Encoder, SpecialValuesBecomeExceptionsAndRoundTrip) {
  std::vector<double> in = DecimalVector(2, 2, 9);
  in[0] = std::numeric_limits<double>::quiet_NaN();
  in[1] = std::numeric_limits<double>::infinity();
  in[2] = -std::numeric_limits<double>::infinity();
  in[3] = -0.0;
  in[4] = std::numeric_limits<double>::denorm_min();
  in[5] = 1e300;
  in[6] = DoubleFromBits(0x7FF800000000BEEFULL);  // NaN payload.
  uint16_t exc = 0;
  const auto out = RoundTrip(in, Combination{14, 12}, &exc);
  EXPECT_GE(exc, 6);
  EXPECT_TRUE(BitEqual(in, out));
}

TEST(Encoder, AllExceptionsVector) {
  // Full-precision values: nothing encodes, everything patches.
  std::mt19937_64 rng(13);
  std::vector<double> in(kVectorSize);
  for (auto& v : in) v = DoubleFromBits((rng() % (uint64_t{1} << 62)) | 0x3FF0000000000000ULL);
  uint16_t exc = 0;
  const auto out = RoundTrip(in, Combination{14, 0}, &exc);
  EXPECT_TRUE(BitEqual(in, out));
  EXPECT_GT(exc, kVectorSize / 2);
}

TEST(Encoder, ExceptionSlotsUseFirstEncodedValue) {
  std::vector<double> in(kVectorSize, 1.25);
  in[0] = std::numeric_limits<double>::quiet_NaN();  // Exception at front.
  EncodedVector<double> enc;
  EncodeVector(in.data(), kVectorSize, Combination{14, 12}, &enc);
  ASSERT_EQ(enc.exc_count, 1);
  EXPECT_EQ(enc.exc_positions[0], 0);
  // The patched slot holds the first successfully encoded value (slot 1).
  EXPECT_EQ(enc.encoded[0], enc.encoded[1]);
}

TEST(Encoder, NegativeValues) {
  std::vector<double> in(kVectorSize);
  for (unsigned i = 0; i < kVectorSize; ++i) {
    in[i] = -static_cast<double>(i) - 0.5;
  }
  const auto out = RoundTrip(in, Combination{14, 13});
  EXPECT_TRUE(BitEqual(in, out));
}

TEST(Encoder, IntegersEncodeWithExponentZero) {
  std::vector<double> in(kVectorSize);
  for (unsigned i = 0; i < kVectorSize; ++i) in[i] = static_cast<double>(i * 3);
  uint16_t exc = 0;
  const auto out = RoundTrip(in, Combination{0, 0}, &exc);
  EXPECT_EQ(exc, 0);
  EXPECT_TRUE(BitEqual(in, out));
}

class EncoderCombinationTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(EncoderCombinationTest, RoundTripsOnMatchingPrecisionData) {
  const int e = std::get<0>(GetParam());
  const int f = std::get<1>(GetParam());
  if (f > e) GTEST_SKIP();
  const int precision = e - f;
  if (precision > 15) GTEST_SKIP();
  std::mt19937_64 rng(e * 100 + f);
  std::vector<double> in(kVectorSize);
  const double grid = AlpTraits<double>::kF10[precision];
  for (auto& v : in) {
    v = static_cast<double>(static_cast<int64_t>(rng() % 1000000)) / grid;
  }
  uint16_t exc = 0;
  const auto out = RoundTrip(in, Combination{static_cast<uint8_t>(e),
                                             static_cast<uint8_t>(f)},
                             &exc);
  EXPECT_TRUE(BitEqual(in, out));
}

INSTANTIATE_TEST_SUITE_P(Sweep, EncoderCombinationTest,
                         ::testing::Combine(::testing::Values(0, 4, 8, 12, 14, 16, 18),
                                            ::testing::Values(0, 2, 6, 10, 14, 18)));

// ---------------------------------------------------------------------------
// Fused decode path.
// ---------------------------------------------------------------------------

// The scalar dispatch tier's fused unFFOR + ALP_dec.
void FusedDecode(const uint64_t* packed, const fastlanes::FforParams& ffor,
                 Combination c, double* out) {
  kernels::TierKernels(kernels::Tier::kScalar)
      ->alp_fused64(packed, ffor.base, ffor.width, AlpTraits<double>::kF10[c.f],
                    AlpTraits<double>::kIF10[c.e], out);
}

TEST(FusedDecode, MatchesUnfusedPath) {
  auto in = DecimalVector(4, 2, 21);
  EncodedVector<double> enc;
  const Combination c{14, 12};
  EncodeVector(in.data(), kVectorSize, c, &enc);
  const auto ffor = fastlanes::FforAnalyze(enc.encoded, kVectorSize);
  std::vector<uint64_t> packed(kVectorSize);
  fastlanes::FforEncode(enc.encoded, packed.data(), ffor);

  std::vector<double> fused(kVectorSize);
  FusedDecode(packed.data(), ffor, c, fused.data());

  std::vector<double> unfused(kVectorSize);
  std::vector<int64_t> scratch(kVectorSize);
  DecodeVectorUnfused(packed.data(), ffor, c, scratch.data(), unfused.data());

  for (unsigned i = 0; i < kVectorSize; ++i) {
    EXPECT_EQ(BitsOf(fused[i]), BitsOf(unfused[i]));
  }
}

TEST(FusedDecode, FullPipelineBitExact) {
  auto in = DecimalVector(5, 3, 33);
  EncodedVector<double> enc;
  const Combination c{14, 11};
  EncodeVector(in.data(), kVectorSize, c, &enc);
  const auto ffor = fastlanes::FforAnalyze(enc.encoded, kVectorSize);
  std::vector<uint64_t> packed(kVectorSize);
  fastlanes::FforEncode(enc.encoded, packed.data(), ffor);

  std::vector<double> out(kVectorSize);
  FusedDecode(packed.data(), ffor, c, out.data());
  PatchExceptions(out.data(), enc.exceptions, enc.exc_positions, enc.exc_count);
  for (unsigned i = 0; i < kVectorSize; ++i) {
    ASSERT_EQ(BitsOf(out[i]), BitsOf(in[i])) << i;
  }
}

// ---------------------------------------------------------------------------
// EstimateCompressedBits.
// ---------------------------------------------------------------------------

TEST(Estimate, PrefersCorrectCombination) {
  auto in = DecimalVector(2, 2, 55);  // xx.yy prices.
  // (14,12) encodes exactly (precision 2); (14,14) would round away digits.
  const uint64_t good = EstimateCompressedBits(in.data(), 64, Combination{14, 12});
  const uint64_t bad = EstimateCompressedBits(in.data(), 64, Combination{14, 14});
  EXPECT_LT(good, bad);
}

TEST(Estimate, CountsExceptions) {
  std::vector<double> in(64, std::numeric_limits<double>::quiet_NaN());
  unsigned exc = 0;
  const uint64_t bits = EstimateCompressedBits(in.data(), 64, Combination{14, 12}, &exc);
  EXPECT_EQ(exc, 64u);
  EXPECT_EQ(bits, 64u * AlpTraits<double>::kExceptionBits);
}

TEST(Estimate, ConstantVectorIsTiny) {
  std::vector<double> in(64, 9.5);
  const uint64_t bits = EstimateCompressedBits(in.data(), 64, Combination{14, 13});
  EXPECT_EQ(bits, 0u);  // Width 0, no exceptions.
}

// ---------------------------------------------------------------------------
// Every kernel tier encodes identically.
// ---------------------------------------------------------------------------

/// Restores the global kernel selection when a test forces a tier.
struct TierGuard {
  ~TierGuard() { kernels::ResetForTesting(); }
};

/// A column that walks every encode path: decimal vectors sprinkled with
/// +-0.0, NaNs, +-inf, subnormals and values whose scaled form passes
/// +-2^51, a vector of full-precision bits (mostly exceptions), a vector of
/// NaN payloads (all exceptions) and a tail vector of 300 values.
template <typename T>
std::vector<T> EveryPathCorpus(uint64_t seed) {
  using Lim = std::numeric_limits<T>;
  using Uint = typename AlpTraits<T>::Uint;
  std::mt19937_64 rng(seed);
  const int64_t range = sizeof(T) == 8 ? 2000000 : 2000;
  std::vector<T> values(8 * kVectorSize + 300);
  for (auto& v : values) {
    v = static_cast<T>(
        static_cast<double>(static_cast<int64_t>(rng() % range) - range / 2) / 100.0);
  }
  const T specials[] = {
      T(0.0), T(-0.0), Lim::quiet_NaN(), -Lim::quiet_NaN(), Lim::infinity(),
      -Lim::infinity(), Lim::denorm_min(), -Lim::denorm_min(), Lim::min(),
      Lim::max(), -Lim::max(), T(2251799813685248.0), T(-2251799813685248.0),
      T(4503599627370497.0), T(-9007199254740993.0), T(123456789012.34),
      T(-98765432109.87), T(4194304.5), T(-8388607.25), T(0.1)};
  // Specials land in the first vector, in the tail and on stride 97.
  const size_t tail = 8 * kVectorSize;
  for (size_t i = 0; i < std::size(specials); ++i) {
    values[3 * i + 1] = specials[i];
    values[tail + 7 * i] = specials[i];
  }
  for (size_t i = 0; i < values.size(); i += 97) {
    values[i] = specials[(i / 97) % std::size(specials)];
  }
  constexpr unsigned kTop = sizeof(T) * 8 - 1;
  for (size_t i = 0; i < kVectorSize; ++i) {
    // Vector 5: positive values with random mantissas, |v| in [2^-(bias/2), 2).
    Uint bits = static_cast<Uint>(rng()) & ~(Uint{3} << (kTop - 1));
    bits |= Uint{1} << (kTop - 2);
    std::memcpy(&values[5 * kVectorSize + i], &bits, sizeof(T));
    // Vector 6: NaNs with distinct payloads.
    bits = BitsOf(Lim::quiet_NaN()) | static_cast<Uint>(i + 1);
    std::memcpy(&values[6 * kVectorSize + i], &bits, sizeof(T));
  }
  return values;
}

template <typename T>
void ExpectEveryTierEncodesLikeScalar() {
  TierGuard guard;
  const std::vector<T> data = EveryPathCorpus<T>(sizeof(T));
  const unsigned n_vectors = (data.size() + kVectorSize - 1) / kVectorSize;

  struct Run {
    std::vector<uint8_t> column;
    CompressionInfo info;
    std::vector<Combination> best;
    std::vector<uint64_t> bits;    // Estimate, then exception count, per case.
    std::vector<uint8_t> encoded;  // The EncodedVector fields the writer reads.
  };
  const auto run_on = [&](kernels::Tier tier) {
    EXPECT_TRUE(kernels::ForceTier(tier));
    Run run;
    run.column = CompressColumn(data.data(), data.size(), {}, &run.info);
    for (unsigned v = 0; v < n_vectors; ++v) {
      const T* vec = data.data() + size_t{v} * kVectorSize;
      const unsigned len = static_cast<unsigned>(
          std::min<size_t>(kVectorSize, data.size() - size_t{v} * kVectorSize));
      // The sampler's two entry points, on the full vector and on 32- and
      // 13-value prefixes, over every combination and three abort bounds.
      for (unsigned n : {len, std::min(len, 32u), std::min(len, 13u)}) {
        uint64_t best_bits = 0;
        run.best.push_back(FindBestCombination(vec, n, &best_bits));
        run.bits.push_back(best_bits);
        for (int e = AlpTraits<T>::kMaxExponent; e >= 0; --e) {
          for (int f = e; f >= 0; --f) {
            const Combination c{static_cast<uint8_t>(e), static_cast<uint8_t>(f)};
            for (uint64_t abort : {UINT64_MAX, uint64_t{4000}, uint64_t{0}}) {
              unsigned exc = 0;
              run.bits.push_back(EstimateCompressedBits(vec, n, c, &exc, abort));
              run.bits.push_back(exc);
            }
          }
        }
      }
      // EncodeVector with the vector's own best combination.
      EncodedVector<T> enc;
      EncodeVector(vec, len, FindBestCombination(vec, len), &enc);
      const auto append = [&](const void* p, size_t bytes) {
        const auto* b = static_cast<const uint8_t*>(p);
        run.encoded.insert(run.encoded.end(), b, b + bytes);
      };
      append(enc.encoded, sizeof(enc.encoded));
      append(enc.exceptions, enc.exc_count * sizeof(T));
      append(enc.exc_positions, enc.exc_count * sizeof(uint16_t));
      append(&enc.ffor.base, sizeof(enc.ffor.base));
      append(&enc.ffor.width, sizeof(enc.ffor.width));
    }
    return run;
  };

  const Run scalar = run_on(kernels::Tier::kScalar);
  // The corpus reaches every path: ALP rowgroups, an all-exception vector.
  EXPECT_EQ(scalar.info.rowgroups_rd, 0u);
  EXPECT_GE(scalar.info.exceptions, kVectorSize);
  EncodedVector<T> nans;
  EncodeVector(data.data() + 6 * kVectorSize, kVectorSize, Combination{0, 0}, &nans);
  EXPECT_EQ(nans.exc_count, kVectorSize);
  for (unsigned t = 0; t < kernels::kTierCount; ++t) {
    const auto tier = static_cast<kernels::Tier>(t);
    if (tier == kernels::Tier::kScalar || !kernels::TierAvailable(tier)) continue;
    SCOPED_TRACE(kernels::TierName(tier));
    const Run got = run_on(tier);
    EXPECT_TRUE(got.column == scalar.column) << "column bytes differ";
    EXPECT_EQ(got.info.exceptions, scalar.info.exceptions);
    EXPECT_TRUE(got.best == scalar.best) << "FindBestCombination differs";
    EXPECT_TRUE(got.bits == scalar.bits) << "EstimateCompressedBits differs";
    EXPECT_TRUE(got.encoded == scalar.encoded) << "EncodeVector differs";
  }
}

TEST(Encoder, EveryTierEncodesIdentically) {
  ExpectEveryTierEncodesLikeScalar<double>();
  ExpectEveryTierEncodesLikeScalar<float>();
}

}  // namespace
}  // namespace alp
