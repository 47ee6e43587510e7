// Kernel-dispatch equivalence suite: every compiled-in + CPU-supported
// decode tier (scalar / avx2 / avx512 / neon, see alp/kernel_dispatch.h)
// must produce bit-identical output to the scalar reference for
//
//   - the fused unFFOR + ALP_dec kernel at every FFOR width (0..64 for
//     doubles, 0..32 for floats) and across FOR bases, including bases
//     that push the signed integers past 2^52 and bases at and one step
//     past the edges of the exact convert's [-2^51, 2^51) range (doubles
//     are checked against the native-formula alp::scalar kernel),
//   - the ALP_rd fused unpack-left || unpack-right || OR kernel over the
//     full (right_bits x dict_width) grid,
//   - the exception patch kernel, including duplicate positions
//     (later-entry-wins, matching the scalar loop), and
//   - full column decodes of the committed golden files under every
//     forced tier.
//
// Plus Figure 4's flavour checks (the unvectorized alp::scalar build vs
// every tier) and dispatcher unit tests.

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "alp/alp.h"
#include "alp/decode_kernels.h"
#include "fastlanes/bitpack.h"
#include "util/bits.h"
#include "util/file_io.h"

#ifndef ALP_GOLDEN_DIR
#error "ALP_GOLDEN_DIR must point at tests/golden (set by tests/CMakeLists.txt)"
#endif

namespace alp {
namespace {

using kernels::DecodeKernels;
using kernels::Tier;

/// Restores the dispatcher's automatic selection when a test that forces
/// tiers exits (also on failure paths).
struct TierGuard {
  TierGuard() = default;
  TierGuard(const TierGuard&) = delete;
  TierGuard& operator=(const TierGuard&) = delete;
  ~TierGuard() { kernels::ResetForTesting(); }
};

std::vector<const DecodeKernels*> AvailableTiers() {
  std::vector<const DecodeKernels*> tiers;
  for (unsigned t = 0; t < kernels::kTierCount; ++t) {
    if (const DecodeKernels* k = kernels::TierKernels(static_cast<Tier>(t))) {
      tiers.push_back(k);
    }
  }
  return tiers;
}

const DecodeKernels& ScalarKernels() {
  const DecodeKernels* k = kernels::TierKernels(Tier::kScalar);
  EXPECT_NE(k, nullptr);
  return *k;
}

// ---------------------------------------------------------------------------
// Dispatcher unit tests.
// ---------------------------------------------------------------------------

TEST(KernelDispatch, TierNamesRoundTrip) {
  for (unsigned t = 0; t < kernels::kTierCount; ++t) {
    const Tier tier = static_cast<Tier>(t);
    Tier parsed;
    ASSERT_TRUE(kernels::ParseTier(kernels::TierName(tier), &parsed))
        << kernels::TierName(tier);
    EXPECT_EQ(parsed, tier);
  }
  Tier ignored;
  EXPECT_FALSE(kernels::ParseTier("auto", &ignored));  // Not a tier.
  EXPECT_FALSE(kernels::ParseTier("", &ignored));
  EXPECT_FALSE(kernels::ParseTier("AVX2", &ignored));  // Names are lower-case.
  EXPECT_FALSE(kernels::ParseTier("sse", &ignored));
}

TEST(KernelDispatch, ScalarTierAlwaysAvailable) {
  EXPECT_TRUE(kernels::TierCompiledIn(Tier::kScalar));
  EXPECT_TRUE(kernels::CpuSupportsTier(Tier::kScalar));
  EXPECT_TRUE(kernels::TierAvailable(Tier::kScalar));
  const DecodeKernels* k = kernels::TierKernels(Tier::kScalar);
  ASSERT_NE(k, nullptr);
  EXPECT_EQ(k->tier, Tier::kScalar);
  // Every tier object reports the tier it was asked for.
  for (const DecodeKernels* tk : AvailableTiers()) {
    EXPECT_EQ(kernels::TierKernels(tk->tier), tk);
  }
  // The dispatcher always lands on an available tier.
  EXPECT_TRUE(kernels::TierAvailable(kernels::BestTier()));
  EXPECT_TRUE(kernels::TierAvailable(kernels::ActiveTier()));
}

TEST(KernelDispatch, UnavailableTiersHaveNoKernels) {
  for (unsigned t = 0; t < kernels::kTierCount; ++t) {
    const Tier tier = static_cast<Tier>(t);
    if (!kernels::TierAvailable(tier)) {
      EXPECT_EQ(kernels::TierKernels(tier), nullptr) << kernels::TierName(tier);
    }
  }
}

TEST(KernelDispatch, ForceTierSemantics) {
  TierGuard guard;
  ASSERT_TRUE(kernels::ForceTier(Tier::kScalar));
  EXPECT_EQ(kernels::ActiveTier(), Tier::kScalar);
  EXPECT_STREQ(kernels::ActiveTierName(), "scalar");

  // Forcing an unavailable tier fails and leaves the selection untouched.
  for (unsigned t = 0; t < kernels::kTierCount; ++t) {
    const Tier tier = static_cast<Tier>(t);
    if (kernels::TierAvailable(tier)) continue;
    EXPECT_FALSE(kernels::ForceTier(tier)) << kernels::TierName(tier);
    EXPECT_EQ(kernels::ActiveTier(), Tier::kScalar);
  }

  // By-name forcing: every available tier works, unknown names fail.
  for (const DecodeKernels* k : AvailableTiers()) {
    EXPECT_TRUE(kernels::ForceTierByName(kernels::TierName(k->tier)));
    EXPECT_EQ(kernels::ActiveTier(), k->tier);
  }
  EXPECT_FALSE(kernels::ForceTierByName("warp9"));

  // "auto" re-probes and selects the best tier for this host.
  EXPECT_TRUE(kernels::ForceTierByName("auto"));
  EXPECT_EQ(kernels::ActiveTier(), kernels::BestTier());
}

// ---------------------------------------------------------------------------
// Fused ALP decode: every tier vs the scalar reference, all widths.
// ---------------------------------------------------------------------------

/// FOR bases swept per width: zero, a value-sized one, and one that drives
/// v + base past 2^52 (and into the sign bit) so the int64->double
/// conversion leaves the exactly-representable range.
constexpr uint64_t kBases64[] = {0, 0x1234, 0x7FF0'1234'5678'9ABCull,
                                 0xFFFF'FFFF'FFFF'0123ull};
constexpr uint32_t kBases32[] = {0, 0x1234, 0x7FF0'1234u, 0xFFFF'0123u};

/// kBases64 plus the edges of the exact convert's range at \p width: the
/// lowest and highest frames whose lanes all lie in [-2^51, 2^51), which
/// take the exact path, and one step past each, which must fall back to
/// the native convert. From width 52 up every frame falls back.
std::vector<uint64_t> BasesForWidth(unsigned width) {
  constexpr int64_t kLimit = int64_t{1} << 51;
  std::vector<uint64_t> bases(std::begin(kBases64), std::end(kBases64));
  bases.push_back(static_cast<uint64_t>(-kLimit));
  bases.push_back(static_cast<uint64_t>(-kLimit - 1));
  if (width <= 51) {
    const int64_t top = kLimit - (int64_t{1} << width);
    bases.push_back(static_cast<uint64_t>(top));
    bases.push_back(static_cast<uint64_t>(top + 1));
  }
  return bases;
}

class FusedWidthTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(FusedWidthTest, AllTiersMatchScalarDouble) {
  const unsigned width = GetParam();
  const auto tiers = AvailableTiers();
  std::mt19937_64 rng(width * 977 + 11);

  alignas(64) uint64_t deltas[kVectorSize];
  alignas(64) uint64_t packed[kVectorSize];
  for (auto& d : deltas) d = rng() & LowMask64(width);
  deltas[3] = 0;                                // Exercise the bottom lane.
  if (width > 0) deltas[7] = LowMask64(width);  // Exercise the top bit.
  fastlanes::Pack(deltas, packed, width);

  const Combination combos[] = {{14, 12}, {0, 0}, {10, 10}};
  for (const Combination c : combos) {
    const double f10_f = AlpTraits<double>::kF10[c.f];
    const double if10_e = AlpTraits<double>::kIF10[c.e];
    for (const uint64_t base : BasesForWidth(width)) {
      alignas(64) double ref[kVectorSize];
      scalar::DecodeAlpFused(packed, {base, width}, c, ref);
      for (const DecodeKernels* k : tiers) {
        alignas(64) double out[kVectorSize];
        k->alp_fused64(packed, base, width, f10_f, if10_e, out);
        for (unsigned i = 0; i < kVectorSize; ++i) {
          ASSERT_EQ(BitsOf(out[i]), BitsOf(ref[i]))
              << kernels::TierName(k->tier) << " width " << width << " base "
              << base << " i " << i;
        }
        // Unaligned destinations must decode identically too.
        alignas(64) double slack[kVectorSize + 2];
        k->alp_fused64(packed, base, width, f10_f, if10_e, slack + 1);
        for (unsigned i = 0; i < kVectorSize; ++i) {
          ASSERT_EQ(BitsOf(slack[i + 1]), BitsOf(ref[i]))
              << kernels::TierName(k->tier) << " unaligned width " << width;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllWidths, FusedWidthTest, ::testing::Range(0u, 65u));

class FusedWidthTest32 : public ::testing::TestWithParam<unsigned> {};

TEST_P(FusedWidthTest32, AllTiersMatchScalarFloat) {
  const unsigned width = GetParam();
  const auto tiers = AvailableTiers();
  std::mt19937_64 rng(width * 131 + 3);

  alignas(64) uint32_t deltas[kVectorSize];
  alignas(64) uint32_t packed[kVectorSize];
  for (auto& d : deltas) d = static_cast<uint32_t>(rng()) & LowMask32(width);
  if (width > 0) deltas[7] = LowMask32(width);
  fastlanes::Pack(deltas, packed, width);

  const Combination combos[] = {{9, 6}, {0, 0}};
  for (const Combination c : combos) {
    const double f10_f = AlpTraits<double>::kF10[c.f];
    const double if10_e = AlpTraits<double>::kIF10[c.e];
    for (const uint32_t base : kBases32) {
      alignas(64) float ref[kVectorSize];
      ScalarKernels().alp_fused32(packed, base, width, f10_f, if10_e, ref);
      for (const DecodeKernels* k : tiers) {
        alignas(64) float out[kVectorSize];
        k->alp_fused32(packed, base, width, f10_f, if10_e, out);
        for (unsigned i = 0; i < kVectorSize; ++i) {
          ASSERT_EQ(BitsOf(out[i]), BitsOf(ref[i]))
              << kernels::TierName(k->tier) << " width " << width << " base "
              << base << " i " << i;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllWidths, FusedWidthTest32,
                         ::testing::Range(0u, 33u));

// ---------------------------------------------------------------------------
// ALP_rd fused + glue kernels: every tier vs the scalar reference.
// ---------------------------------------------------------------------------

TEST(KernelTiers, RdFusedMatchesScalarDouble) {
  const auto tiers = AvailableTiers();
  std::mt19937_64 rng(42);
  for (unsigned right_bits = 48; right_bits < 64; ++right_bits) {
    for (unsigned dict_width = 0; dict_width <= kRdMaxDictWidth; ++dict_width) {
      const unsigned dict_size = 1u << dict_width;
      alignas(64) uint64_t dict_shifted[kRdMaxDictSize] = {};
      for (unsigned k = 0; k < dict_size; ++k) {
        dict_shifted[k] = (rng() & LowMask64(64 - right_bits)) << right_bits;
      }
      alignas(64) uint64_t right[kVectorSize], codes[kVectorSize];
      alignas(64) uint64_t packed_right[kVectorSize], packed_codes[kVectorSize];
      for (auto& r : right) r = rng() & LowMask64(right_bits);
      for (auto& cd : codes) cd = rng() % dict_size;
      fastlanes::Pack(right, packed_right, right_bits);
      fastlanes::Pack(codes, packed_codes, dict_width);

      alignas(64) double ref[kVectorSize];
      ScalarKernels().rd_fused64(packed_right, packed_codes, right_bits,
                                 dict_width, dict_shifted, ref);
      // The reference itself must be the glued bit patterns.
      for (unsigned i = 0; i < kVectorSize; ++i) {
        ASSERT_EQ(BitsOf(ref[i]), dict_shifted[codes[i]] | right[i]) << i;
      }
      for (const DecodeKernels* k : tiers) {
        alignas(64) double out[kVectorSize];
        k->rd_fused64(packed_right, packed_codes, right_bits, dict_width,
                      dict_shifted, out);
        for (unsigned i = 0; i < kVectorSize; ++i) {
          ASSERT_EQ(BitsOf(out[i]), BitsOf(ref[i]))
              << kernels::TierName(k->tier) << " rb " << right_bits << " dw "
              << dict_width << " i " << i;
        }
      }
    }
  }
}

TEST(KernelTiers, RdFusedMatchesScalarFloat) {
  const auto tiers = AvailableTiers();
  std::mt19937_64 rng(43);
  for (unsigned right_bits = 16; right_bits < 32; ++right_bits) {
    for (unsigned dict_width = 0; dict_width <= kRdMaxDictWidth; ++dict_width) {
      const unsigned dict_size = 1u << dict_width;
      alignas(64) uint32_t dict_shifted[kRdMaxDictSize] = {};
      for (unsigned k = 0; k < dict_size; ++k) {
        dict_shifted[k] = (static_cast<uint32_t>(rng()) &
                           LowMask32(32 - right_bits))
                          << right_bits;
      }
      alignas(64) uint32_t right[kVectorSize], codes[kVectorSize];
      alignas(64) uint32_t packed_right[kVectorSize], packed_codes[kVectorSize];
      for (auto& r : right) r = static_cast<uint32_t>(rng()) & LowMask32(right_bits);
      for (auto& cd : codes) cd = static_cast<uint32_t>(rng() % dict_size);
      fastlanes::Pack(right, packed_right, right_bits);
      fastlanes::Pack(codes, packed_codes, dict_width);

      alignas(64) float ref[kVectorSize];
      ScalarKernels().rd_fused32(packed_right, packed_codes, right_bits,
                                 dict_width, dict_shifted, ref);
      for (const DecodeKernels* k : tiers) {
        alignas(64) float out[kVectorSize];
        k->rd_fused32(packed_right, packed_codes, right_bits, dict_width,
                      dict_shifted, out);
        for (unsigned i = 0; i < kVectorSize; ++i) {
          ASSERT_EQ(BitsOf(out[i]), BitsOf(ref[i]))
              << kernels::TierName(k->tier) << " rb " << right_bits << " dw "
              << dict_width << " i " << i;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Exception patching: every tier, including duplicate positions.
// ---------------------------------------------------------------------------

TEST(KernelTiers, PatchMatchesScalarWithDuplicates) {
  const auto tiers = AvailableTiers();
  std::mt19937_64 rng(45);

  uint16_t positions[kVectorSize];
  alignas(64) uint64_t bits64[kVectorSize];
  alignas(64) uint32_t bits32[kVectorSize];
  const unsigned count = 300;
  for (unsigned i = 0; i < count; ++i) {
    positions[i] = static_cast<uint16_t>(rng() % kVectorSize);
    bits64[i] = rng();
    bits32[i] = static_cast<uint32_t>(rng());
  }
  // Guaranteed duplicates: the last write must win, like the scalar loop.
  positions[10] = positions[20] = positions[30] = 77;
  positions[count - 1] = 77;

  alignas(64) double base64[kVectorSize];
  alignas(64) float base32[kVectorSize];
  for (unsigned i = 0; i < kVectorSize; ++i) {
    base64[i] = static_cast<double>(i) * 0.5;
    base32[i] = static_cast<float>(i) * 0.5f;
  }

  alignas(64) double ref64[kVectorSize];
  std::memcpy(ref64, base64, sizeof(ref64));
  ScalarKernels().patch64(ref64, bits64, positions, count);
  ASSERT_EQ(BitsOf(ref64[77]), bits64[count - 1]);  // Later entry won.

  alignas(64) float ref32[kVectorSize];
  std::memcpy(ref32, base32, sizeof(ref32));
  ScalarKernels().patch32(ref32, bits32, positions, count);
  ASSERT_EQ(BitsOf(ref32[77]), bits32[count - 1]);

  for (const DecodeKernels* k : tiers) {
    alignas(64) double out64[kVectorSize];
    std::memcpy(out64, base64, sizeof(out64));
    k->patch64(out64, bits64, positions, count);
    for (unsigned i = 0; i < kVectorSize; ++i) {
      ASSERT_EQ(BitsOf(out64[i]), BitsOf(ref64[i]))
          << kernels::TierName(k->tier) << " i " << i;
    }
    alignas(64) float out32[kVectorSize];
    std::memcpy(out32, base32, sizeof(out32));
    k->patch32(out32, bits32, positions, count);
    for (unsigned i = 0; i < kVectorSize; ++i) {
      ASSERT_EQ(BitsOf(out32[i]), BitsOf(ref32[i]))
          << kernels::TierName(k->tier) << " i " << i;
    }
    // count == 0 must be a no-op.
    k->patch64(out64, bits64, positions, 0);
    k->patch32(out32, bits32, positions, 0);
    for (unsigned i = 0; i < kVectorSize; ++i) {
      ASSERT_EQ(BitsOf(out64[i]), BitsOf(ref64[i]));
      ASSERT_EQ(BitsOf(out32[i]), BitsOf(ref32[i]));
    }
  }
}

// ---------------------------------------------------------------------------
// Full column round-trips under every forced tier: IEEE specials flow
// through the exception path, ALP_rd columns through the glue path.
// ---------------------------------------------------------------------------

template <typename T>
std::vector<T> SpecialsCorpus() {
  std::vector<T> values;
  values.reserve(4 * kVectorSize);
  std::mt19937_64 rng(46);
  for (unsigned i = 0; i < 4 * kVectorSize; ++i) {
    values.push_back(static_cast<T>(static_cast<double>(i % 997) * 0.01));
  }
  const T specials[] = {std::numeric_limits<T>::quiet_NaN(),
                        std::numeric_limits<T>::infinity(),
                        -std::numeric_limits<T>::infinity(),
                        std::numeric_limits<T>::denorm_min(),
                        -std::numeric_limits<T>::denorm_min(),
                        T(-0.0),
                        std::numeric_limits<T>::max(),
                        std::numeric_limits<T>::lowest()};
  for (unsigned i = 0; i < 256; ++i) {
    values[rng() % values.size()] = specials[i % 8];
  }
  return values;
}

template <typename T>
void RoundTripEveryTier(const std::vector<T>& values) {
  TierGuard guard;
  const auto compressed = CompressColumn(values.data(), values.size());
  for (const DecodeKernels* k : AvailableTiers()) {
    SCOPED_TRACE(kernels::TierName(k->tier));
    ASSERT_TRUE(kernels::ForceTier(k->tier));
    auto reader = ColumnReader<T>::Open(compressed.data(), compressed.size());
    ASSERT_TRUE(reader.ok());
    std::vector<T> out(values.size());
    ASSERT_TRUE(reader->TryDecodeAll(out.data()).ok());
    for (size_t i = 0; i < values.size(); ++i) {
      ASSERT_EQ(BitsOf(out[i]), BitsOf(values[i])) << i;
    }
  }
}

TEST(KernelTiers, SpecialsRoundTripDouble) {
  RoundTripEveryTier(SpecialsCorpus<double>());
}

TEST(KernelTiers, SpecialsRoundTripFloat) {
  RoundTripEveryTier(SpecialsCorpus<float>());
}

TEST(KernelTiers, RdColumnRoundTripEveryTier) {
  // High-entropy mantissas force the ALP_rd scheme (paper Section 3.4).
  std::vector<double> values(4 * kVectorSize);
  std::mt19937_64 rng(47);
  for (auto& v : values) {
    v = std::bit_cast<double>((uint64_t{0x3FF} << 52) | (rng() & LowMask64(52)));
  }
  RoundTripEveryTier(values);
}

// ---------------------------------------------------------------------------
// Golden files: the committed bytes decode identically on every tier.
// ---------------------------------------------------------------------------

TEST(KernelTiers, GoldenFilesDecodeIdenticallyOnEveryTier) {
  TierGuard guard;
  const char* kFiles[] = {"alp_small", "rd_small"};
  for (const char* name : kFiles) {
    SCOPED_TRACE(name);
    const std::string dir = ALP_GOLDEN_DIR;
    const auto column = ReadFileBytes(dir + "/" + name + ".alp");
    ASSERT_TRUE(column.has_value());
    const auto values = ReadDoublesFileEx(dir + "/" + name + ".bin");
    ASSERT_TRUE(values.ok());

    for (const DecodeKernels* k : AvailableTiers()) {
      SCOPED_TRACE(kernels::TierName(k->tier));
      ASSERT_TRUE(kernels::ForceTier(k->tier));
      auto reader = ColumnReader<double>::Open(column->data(), column->size());
      ASSERT_TRUE(reader.ok());
      ASSERT_EQ(reader->value_count(), values->size());
      std::vector<double> out(values->size());
      ASSERT_TRUE(reader->TryDecodeAll(out.data()).ok());
      for (size_t i = 0; i < out.size(); ++i) {
        ASSERT_EQ(BitsOf(out[i]), BitsOf((*values)[i])) << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Figure 4's flavours: the unvectorized build (alp::scalar) agrees bit-exactly
// with every dispatch tier, the auto-vectorized scalar tier included.
// ---------------------------------------------------------------------------

/// Packs \p in's ALP encoding with combination \p c into \p packed.
fastlanes::FforParams EncodeAndPack(const std::vector<double>& in, Combination c,
                                    std::vector<uint64_t>* packed) {
  EncodedVector<double> enc;
  EncodeVector(in.data(), kVectorSize, c, &enc);
  const auto ffor = fastlanes::FforAnalyze(enc.encoded, kVectorSize);
  packed->assign(kVectorSize, 0);
  fastlanes::FforEncode(enc.encoded, packed->data(), ffor);
  return ffor;
}

/// \p tier's fused decode of one packed vector.
std::vector<double> TierDecode(const DecodeKernels& tier,
                               const std::vector<uint64_t>& packed,
                               const fastlanes::FforParams& ffor, Combination c) {
  std::vector<double> out(kVectorSize);
  tier.alp_fused64(packed.data(), ffor.base, ffor.width,
                   AlpTraits<double>::kF10[c.f], AlpTraits<double>::kIF10[c.e],
                   out.data());
  return out;
}

class KernelEquivalenceTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(KernelEquivalenceTest, AllFlavoursAgree) {
  const unsigned precision = GetParam() % 8;
  std::mt19937_64 rng(GetParam() * 31 + 1);
  std::vector<double> in(kVectorSize);
  const double f10 = AlpTraits<double>::kF10[precision];
  for (auto& v : in) {
    v = static_cast<double>(static_cast<int64_t>(rng() % (1ull << (GetParam() + 8)))) / f10;
  }

  const Combination c{static_cast<uint8_t>(14),
                      static_cast<uint8_t>(14 - precision)};
  std::vector<uint64_t> packed;
  const auto ffor = EncodeAndPack(in, c, &packed);

  std::vector<double> scalar_out(kVectorSize);
  scalar::DecodeAlpFused(packed.data(), ffor, c, scalar_out.data());
  for (const DecodeKernels* k : AvailableTiers()) {
    const auto out = TierDecode(*k, packed, ffor, c);
    for (unsigned i = 0; i < kVectorSize; ++i) {
      ASSERT_EQ(BitsOf(out[i]), BitsOf(scalar_out[i]))
          << kernels::TierName(k->tier) << " i " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(WidthSweep, KernelEquivalenceTest, ::testing::Range(0u, 40u, 3u));

TEST(Kernels, NegativeBaseHandled) {
  std::vector<double> in(kVectorSize);
  for (unsigned i = 0; i < kVectorSize; ++i) {
    in[i] = -500.0 + static_cast<double>(i) * 0.25;
  }
  const Combination c{14, 12};
  std::vector<uint64_t> packed;
  const auto ffor = EncodeAndPack(in, c, &packed);

  std::vector<double> scalar_out(kVectorSize);
  scalar::DecodeAlpFused(packed.data(), ffor, c, scalar_out.data());
  for (unsigned i = 0; i < kVectorSize; ++i) {
    ASSERT_EQ(BitsOf(scalar_out[i]), BitsOf(in[i])) << i;
  }
  for (const DecodeKernels* k : AvailableTiers()) {
    const auto out = TierDecode(*k, packed, ffor, c);
    for (unsigned i = 0; i < kVectorSize; ++i) {
      ASSERT_EQ(BitsOf(out[i]), BitsOf(in[i]))
          << kernels::TierName(k->tier) << " i " << i;
    }
  }
}

}  // namespace
}  // namespace alp
