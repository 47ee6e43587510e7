// Deterministic mini-fuzzer: randomized value-class mixtures (decimals of
// every precision, full-precision reals, denormals, huge magnitudes,
// special values, duplicates, sign flips) pushed through the ALP column
// format and every codec, across many seeds. Any bit difference fails.
// This is the repository's broadest invariant: *losslessness is
// unconditional* - no input distribution may break it.
//
// Set ALP_FUZZ_SEED=<n> to shift every stream onto fresh seeds (a cheap
// way to widen coverage in CI without growing the default run). Failure
// messages print the effective seed, so a run under any base can be
// replayed by exporting the same value.

#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "alp/alp.h"
#include "alp/appender.h"
#include "codecs/codec.h"
#include "util/bits.h"

namespace alp {
namespace {

/// ALP_FUZZ_SEED, else 0: added to every per-test seed.
uint64_t BaseSeed() {
  static const uint64_t base = [] {
    const char* env = std::getenv("ALP_FUZZ_SEED");
    return env != nullptr ? std::strtoull(env, nullptr, 10) : uint64_t{0};
  }();
  return base;
}

/// A randomized mixture of value classes; the mix proportions themselves
/// are drawn from the seed.
std::vector<double> FuzzData(uint64_t seed, size_t n) {
  std::mt19937_64 rng(seed);
  std::vector<double> data(n);

  // Per-seed class weights.
  const unsigned w_decimal = 1 + static_cast<unsigned>(rng() % 10);
  const unsigned w_real = static_cast<unsigned>(rng() % 4);
  const unsigned w_special = static_cast<unsigned>(rng() % 2);
  const unsigned w_extreme = static_cast<unsigned>(rng() % 2);
  const unsigned w_dup = static_cast<unsigned>(rng() % 6);
  const unsigned total = w_decimal + w_real + w_special + w_extreme + w_dup + 1;
  const int precision = static_cast<int>(rng() % 19);

  double prev = 1.0;
  for (auto& v : data) {
    const unsigned pick = static_cast<unsigned>(rng() % total);
    if (pick < w_decimal) {
      const int64_t d = static_cast<int64_t>(rng() % 100000000) - 50000000;
      const double f10 = AlpTraits<double>::kF10[precision % 19];
      v = static_cast<double>(d) / f10;
    } else if (pick < w_decimal + w_real) {
      v = DoubleFromBits((rng() & 0x000FFFFFFFFFFFFFULL) | 0x3FE0000000000000ULL);
    } else if (pick < w_decimal + w_real + w_special) {
      switch (rng() % 6) {
        case 0: v = std::numeric_limits<double>::quiet_NaN(); break;
        case 1: v = DoubleFromBits(0x7FF8000000000000ULL | (rng() & 0xFFFF)); break;
        case 2: v = std::numeric_limits<double>::infinity(); break;
        case 3: v = -std::numeric_limits<double>::infinity(); break;
        case 4: v = -0.0; break;
        default: v = 0.0; break;
      }
    } else if (pick < w_decimal + w_real + w_special + w_extreme) {
      switch (rng() % 4) {
        case 0: v = std::numeric_limits<double>::denorm_min(); break;
        case 1: v = std::numeric_limits<double>::max(); break;
        case 2: v = DoubleFromBits(rng()); break;  // Arbitrary bit pattern.
        default: v = 1e308 * ((rng() % 2) ? 1.0 : -1.0); break;
      }
    } else {
      v = prev;  // Duplicate.
    }
    prev = v;
  }
  return data;
}

class FuzzSeedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzSeedTest, AlpColumnRoundTrips) {
  const uint64_t seed = BaseSeed() + GetParam();
  std::mt19937_64 size_rng(seed * 3 + 1);
  const size_t n = 1 + size_rng() % (3 * kVectorSize);
  const auto data = FuzzData(seed, n);

  const auto buffer = CompressColumn(data.data(), data.size());
  ASSERT_TRUE(ValidateColumnEx<double>(buffer.data(), buffer.size()).ok());
  std::vector<double> out(data.size());
  ASSERT_TRUE(DecompressColumn(buffer, out.data()).ok());
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_EQ(BitsOf(out[i]), BitsOf(data[i])) << "seed=" << seed << " i=" << i;
  }
}

TEST_P(FuzzSeedTest, AppenderMatchesOneShot) {
  const uint64_t seed = BaseSeed() + GetParam() + 1000;
  const auto data = FuzzData(seed, 2 * kVectorSize + 77);
  ColumnAppender<double> appender;
  appender.AppendBatch(data.data(), data.size());
  EXPECT_EQ(appender.Finish(), CompressColumn(data.data(), data.size()))
      << "seed=" << seed;
}

TEST_P(FuzzSeedTest, AllCodecsRoundTrip) {
  const uint64_t seed = BaseSeed() + GetParam() + 2000;
  const auto data = FuzzData(seed, 3000);
  for (const auto& codec : codecs::AllDoubleCodecs()) {
    const auto compressed = codec->Compress(data.data(), data.size());
    std::vector<double> out(data.size(), -1.0);
    const Status decoded =
        codec->TryDecompress(compressed.data(), compressed.size(), data.size(),
                             out.data());
    ASSERT_TRUE(decoded.ok()) << decoded.ToString();
    for (size_t i = 0; i < data.size(); ++i) {
      ASSERT_EQ(BitsOf(out[i]), BitsOf(data[i]))
          << codec->name() << " seed=" << seed << " i=" << i;
    }
  }
}

TEST_P(FuzzSeedTest, CascadeRoundTrips) {
  const uint64_t seed = BaseSeed() + GetParam() + 3000;
  const auto data = FuzzData(seed, 50000);
  const auto buffer = CascadeCompress(data.data(), data.size());
  std::vector<double> out(data.size());
  ASSERT_TRUE(CascadeDecompress(buffer, out.data()).ok());
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_EQ(BitsOf(out[i]), BitsOf(data[i])) << "seed=" << seed << " i=" << i;
  }
}

TEST_P(FuzzSeedTest, DeltaModeRoundTrips) {
  const uint64_t seed = BaseSeed() + GetParam() + 4000;
  const auto data = FuzzData(seed, 2 * kVectorSize);
  SamplerConfig config;
  config.try_delta_encoding = true;
  const auto buffer = CompressColumn(data.data(), data.size(), config);
  std::vector<double> out(data.size());
  ASSERT_TRUE(DecompressColumn(buffer, out.data()).ok());
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_EQ(BitsOf(out[i]), BitsOf(data[i])) << "seed=" << seed << " i=" << i;
  }
}

TEST_P(FuzzSeedTest, FloatColumnRoundTrips) {
  const uint64_t seed = BaseSeed() + GetParam() + 5000;
  std::mt19937_64 rng(seed);
  const size_t n = 1 + rng() % (2 * kVectorSize);
  std::vector<float> data(n);
  const int precision = static_cast<int>(rng() % 11);
  for (auto& v : data) {
    switch (rng() % 8) {
      case 0:
        v = std::numeric_limits<float>::quiet_NaN();
        break;
      case 1:
        v = FloatFromBits(static_cast<uint32_t>(rng()));  // Arbitrary bits.
        break;
      case 2:
        v = -0.0f;
        break;
      default: {
        const int32_t d = static_cast<int32_t>(rng() % 1000000) - 500000;
        v = static_cast<float>(static_cast<double>(d) /
                               AlpTraits<double>::kF10[precision]);
        break;
      }
    }
  }
  const auto buffer = CompressColumn(data.data(), data.size());
  ASSERT_TRUE(ValidateColumnEx<float>(buffer.data(), buffer.size()).ok());
  std::vector<float> out(data.size());
  ASSERT_TRUE(DecompressColumn(buffer, out.data()).ok());
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_EQ(BitsOf(out[i]), BitsOf(data[i])) << "seed=" << seed << " i=" << i;
  }
}

TEST_P(FuzzSeedTest, FloatCodecsRoundTrip) {
  const uint64_t seed = BaseSeed() + GetParam() + 6000;
  std::mt19937_64 rng(seed);
  std::vector<float> data(2000);
  for (auto& v : data) {
    v = (rng() % 19 == 0) ? FloatFromBits(static_cast<uint32_t>(rng()))
                          : static_cast<float>((static_cast<double>(rng() >> 11) *
                                                    0x1.0p-53 -
                                                0.5) *
                                               0.1);
  }
  for (const auto& codec : codecs::AllFloatCodecs()) {
    const auto compressed = codec->Compress(data.data(), data.size());
    std::vector<float> out(data.size(), -1.0f);
    const Status decoded =
        codec->TryDecompress(compressed.data(), compressed.size(), data.size(),
                             out.data());
    ASSERT_TRUE(decoded.ok()) << decoded.ToString();
    for (size_t i = 0; i < data.size(); ++i) {
      ASSERT_EQ(BitsOf(out[i]), BitsOf(data[i]))
          << codec->name() << " seed=" << seed << " i=" << i;
    }
  }
}

/// A seeded mixture of 32-bit value classes mirroring FuzzData: decimals of
/// varying precision, raw bit patterns, NaN payloads, infinities,
/// denormals, signed zeros, duplicates.
std::vector<float> FuzzDataFloat(uint64_t seed, size_t n) {
  std::mt19937_64 rng(seed);
  std::vector<float> data(n);
  const int precision = static_cast<int>(rng() % 11);
  float prev = 1.0f;
  for (auto& v : data) {
    switch (rng() % 12) {
      case 0: v = FloatFromBits(static_cast<uint32_t>(rng())); break;
      case 1:
        v = FloatFromBits(0x7FC00000u | (static_cast<uint32_t>(rng()) & 0x3FFFFF));
        break;  // NaN payloads.
      case 2: v = std::numeric_limits<float>::infinity(); break;
      case 3: v = -std::numeric_limits<float>::infinity(); break;
      case 4:
        v = FloatFromBits(static_cast<uint32_t>(rng()) & 0x007FFFFF);
        break;  // Denormals (and occasionally zero).
      case 5: v = -0.0f; break;
      case 6: v = prev; break;
      default: {
        const int32_t d = static_cast<int32_t>(rng() % 1000000) - 500000;
        v = static_cast<float>(static_cast<double>(d) /
                               AlpTraits<double>::kF10[precision]);
        break;
      }
    }
    prev = v;
  }
  return data;
}

TEST_P(FuzzSeedTest, FloatMixtureRoundTripsEverywhere) {
  const uint64_t seed = BaseSeed() + GetParam() + 7000;
  std::mt19937_64 size_rng(seed ^ 0x5EED);
  const size_t n = 1 + size_rng() % (2 * kVectorSize);
  const auto data = FuzzDataFloat(seed, n);

  const auto buffer = CompressColumn(data.data(), data.size());
  ASSERT_TRUE(ValidateColumnEx<float>(buffer.data(), buffer.size()).ok());
  std::vector<float> out(data.size());
  ASSERT_TRUE(DecompressColumn(buffer, out.data()).ok());
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_EQ(BitsOf(out[i]), BitsOf(data[i])) << "seed=" << seed << " i=" << i;
  }

  for (const auto& codec : codecs::AllFloatCodecs()) {
    const auto compressed = codec->Compress(data.data(), data.size());
    std::vector<float> cout(data.size(), -1.0f);
    const Status decoded =
        codec->TryDecompress(compressed.data(), compressed.size(), data.size(),
                             cout.data());
    ASSERT_TRUE(decoded.ok()) << decoded.ToString();
    for (size_t i = 0; i < data.size(); ++i) {
      ASSERT_EQ(BitsOf(cout[i]), BitsOf(data[i]))
          << codec->name() << " seed=" << seed << " i=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeedTest, ::testing::Range(uint64_t{0}, uint64_t{24}));

// ---------------------------------------------------------------------------
// Special-value torture vectors: adversarial compositions that historically
// break floating-point codecs (NaN payload preservation, ±inf runs,
// denormal-only inputs, -0.0 vs 0.0, all-equal columns). Every pattern must
// survive every codec bit-exactly - these are fixed, not seeded, so a
// regression names the exact pattern.

std::vector<std::pair<std::string, std::vector<double>>> TortureColumns() {
  std::vector<std::pair<std::string, std::vector<double>>> cases;
  const size_t n = kVectorSize + 17;
  std::mt19937_64 rng(0xA17);

  std::vector<double> nans(n);
  for (size_t i = 0; i < n; ++i) {
    // Quiet and "signaling-shaped" payloads, both signs, never the inf bits.
    const uint64_t sign = (i % 2) ? 0x8000000000000000ULL : 0;
    const uint64_t payload = (rng() & 0x0007FFFFFFFFFFFFULL) | 1;
    const uint64_t quiet = (i % 3 == 0) ? 0x0008000000000000ULL : 0;
    nans[i] = DoubleFromBits(sign | 0x7FF0000000000000ULL | quiet | payload);
  }
  cases.emplace_back("nan_payloads", std::move(nans));

  std::vector<double> infs(n);
  for (size_t i = 0; i < n; ++i) {
    infs[i] = (i % 3 == 0)   ? std::numeric_limits<double>::infinity()
              : (i % 3 == 1) ? -std::numeric_limits<double>::infinity()
                             : static_cast<double>(i) * 0.25;
  }
  cases.emplace_back("infinity_runs", std::move(infs));

  std::vector<double> denorm(n);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t sign = (rng() % 2) ? 0x8000000000000000ULL : 0;
    denorm[i] = (i % 5 == 0)
                    ? std::numeric_limits<double>::denorm_min()
                    : DoubleFromBits(sign | ((rng() % 0x000FFFFFFFFFFFFFULL) + 1));
  }
  cases.emplace_back("denormals_only", std::move(denorm));

  std::vector<double> zeros(n);
  for (size_t i = 0; i < n; ++i) zeros[i] = (i % 2) ? -0.0 : 0.0;
  cases.emplace_back("signed_zeros", std::move(zeros));

  cases.emplace_back("all_equal", std::vector<double>(n, 1234.5678));
  cases.emplace_back("all_equal_nan",
                     std::vector<double>(
                         n, DoubleFromBits(0x7FF800000000BEEFULL)));

  std::vector<double> extremes(n);
  for (size_t i = 0; i < n; ++i) {
    switch (i % 5) {
      case 0: extremes[i] = std::numeric_limits<double>::max(); break;
      case 1: extremes[i] = std::numeric_limits<double>::lowest(); break;
      case 2: extremes[i] = std::numeric_limits<double>::min(); break;
      case 3: extremes[i] = 1e308; break;
      default: extremes[i] = -1e-308; break;
    }
  }
  cases.emplace_back("extreme_magnitudes", std::move(extremes));

  cases.emplace_back("single_nan",
                     std::vector<double>{
                         DoubleFromBits(0x7FF0000000000001ULL)});
  return cases;
}

TEST(TortureVectors, DoubleColumnAndCodecsRoundTrip) {
  for (const auto& [name, data] : TortureColumns()) {
    SCOPED_TRACE(name);
    const auto buffer = CompressColumn(data.data(), data.size());
    ASSERT_TRUE(ValidateColumnEx<double>(buffer.data(), buffer.size()).ok());
    std::vector<double> out(data.size());
    ASSERT_TRUE(DecompressColumn(buffer, out.data()).ok());
    for (size_t i = 0; i < data.size(); ++i) {
      ASSERT_EQ(BitsOf(out[i]), BitsOf(data[i])) << "i=" << i;
    }

    for (const auto& codec : codecs::AllDoubleCodecs()) {
      const auto compressed = codec->Compress(data.data(), data.size());
      std::vector<double> cout(data.size(), -1.0);
      const Status decoded =
          codec->TryDecompress(compressed.data(), compressed.size(), data.size(),
                               cout.data());
      ASSERT_TRUE(decoded.ok()) << decoded.ToString();
      for (size_t i = 0; i < data.size(); ++i) {
        ASSERT_EQ(BitsOf(cout[i]), BitsOf(data[i]))
            << codec->name() << " i=" << i;
      }
    }

    const auto cascade = CascadeCompress(data.data(), data.size());
    std::vector<double> casc_out(data.size());
    ASSERT_TRUE(CascadeDecompress(cascade, casc_out.data()).ok());
    for (size_t i = 0; i < data.size(); ++i) {
      ASSERT_EQ(BitsOf(casc_out[i]), BitsOf(data[i])) << "cascade i=" << i;
    }
  }
}

TEST(TortureVectors, FloatColumnAndCodecsRoundTrip) {
  std::vector<std::pair<std::string, std::vector<float>>> cases;
  const size_t n = kVectorSize + 17;
  std::mt19937_64 rng(0xF17);

  std::vector<float> nans(n);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t sign = (i % 2) ? 0x80000000u : 0;
    const uint32_t payload = (static_cast<uint32_t>(rng()) & 0x003FFFFF) | 1;
    const uint32_t quiet = (i % 3 == 0) ? 0x00400000u : 0;
    nans[i] = FloatFromBits(sign | 0x7F800000u | quiet | payload);
  }
  cases.emplace_back("nan_payloads", std::move(nans));

  std::vector<float> infs(n);
  for (size_t i = 0; i < n; ++i) {
    infs[i] = (i % 3 == 0)   ? std::numeric_limits<float>::infinity()
              : (i % 3 == 1) ? -std::numeric_limits<float>::infinity()
                             : static_cast<float>(i) * 0.25f;
  }
  cases.emplace_back("infinity_runs", std::move(infs));

  std::vector<float> denorm(n);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t sign = (rng() % 2) ? 0x80000000u : 0;
    denorm[i] = (i % 5 == 0)
                    ? std::numeric_limits<float>::denorm_min()
                    : FloatFromBits(sign | ((static_cast<uint32_t>(rng()) %
                                             0x007FFFFFu) +
                                            1));
  }
  cases.emplace_back("denormals_only", std::move(denorm));

  std::vector<float> zeros(n);
  for (size_t i = 0; i < n; ++i) zeros[i] = (i % 2) ? -0.0f : 0.0f;
  cases.emplace_back("signed_zeros", std::move(zeros));

  cases.emplace_back("all_equal", std::vector<float>(n, 1234.5f));

  for (const auto& [name, data] : cases) {
    SCOPED_TRACE(name);
    const auto buffer = CompressColumn(data.data(), data.size());
    ASSERT_TRUE(ValidateColumnEx<float>(buffer.data(), buffer.size()).ok());
    std::vector<float> out(data.size());
    ASSERT_TRUE(DecompressColumn(buffer, out.data()).ok());
    for (size_t i = 0; i < data.size(); ++i) {
      ASSERT_EQ(BitsOf(out[i]), BitsOf(data[i])) << "i=" << i;
    }

    for (const auto& codec : codecs::AllFloatCodecs()) {
      const auto compressed = codec->Compress(data.data(), data.size());
      std::vector<float> cout(data.size(), -1.0f);
      const Status decoded =
          codec->TryDecompress(compressed.data(), compressed.size(), data.size(),
                               cout.data());
      ASSERT_TRUE(decoded.ok()) << decoded.ToString();
      for (size_t i = 0; i < data.size(); ++i) {
        ASSERT_EQ(BitsOf(cout[i]), BitsOf(data[i]))
            << codec->name() << " i=" << i;
      }
    }
  }
}

}  // namespace
}  // namespace alp
