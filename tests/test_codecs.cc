// Round-trip and behaviour tests for every baseline codec (Gorilla, Chimp,
// Chimp128, Patas, Elf, PDE, Zstd/LZ) plus the ALP adapter, parameterized
// over codecs x workload shapes so each scheme faces identical inputs.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <random>
#include <vector>

#include "codecs/codec.h"
#include "codecs/lz.h"
#include "util/bits.h"

namespace alp::codecs {
namespace {

using Factory = std::unique_ptr<DoubleCodec> (*)();

std::vector<double> MakeWorkload(int shape, size_t n) {
  std::mt19937_64 rng(shape * 1000 + 7);
  std::vector<double> data(n);
  switch (shape) {
    case 0:  // Decimal prices.
      for (auto& v : data) {
        v = static_cast<double>(static_cast<int64_t>(rng() % 1000000)) / 100.0;
      }
      break;
    case 1: {  // Smooth time series.
      double cur = 20.0;
      for (auto& v : data) {
        cur += (static_cast<double>(rng() % 2001) - 1000.0) / 1000.0;
        v = std::round(cur * 10.0) / 10.0;
      }
      break;
    }
    case 2:  // Full-entropy reals.
      for (auto& v : data) v = static_cast<double>(rng() >> 11) * 0x1.0p-53;
      break;
    case 3: {  // Heavy duplicates with runs.
      double run_value = 1.25;
      size_t run_left = 0;
      for (auto& v : data) {
        if (run_left == 0) {
          run_value = static_cast<double>(static_cast<int64_t>(rng() % 10000)) / 100.0;
          run_left = 1 + rng() % 20;
        }
        v = run_value;
        --run_left;
      }
      break;
    }
    case 4:  // Special values sprinkled into decimals.
      for (size_t i = 0; i < n; ++i) {
        switch (i % 97) {
          case 0:
            data[i] = std::numeric_limits<double>::quiet_NaN();
            break;
          case 1:
            data[i] = std::numeric_limits<double>::infinity();
            break;
          case 2:
            data[i] = -0.0;
            break;
          case 3:
            data[i] = std::numeric_limits<double>::denorm_min();
            break;
          default:
            data[i] = static_cast<double>(static_cast<int64_t>(rng() % 100000)) / 10.0;
        }
      }
      break;
    default:  // Integers as doubles.
      for (auto& v : data) v = static_cast<double>(rng() % 100000);
      break;
  }
  return data;
}

class CodecRoundTripTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CodecRoundTripTest, BitExact) {
  static const Factory kFactories[] = {&MakeGorilla, &MakeChimp, &MakeChimp128,
                                       &MakePatas,   &MakeElf,   &MakePde,
                                       &MakeZstd,    &MakeLz,    &MakeAlpCodec,
                                       &MakeAlpRdCodec, &MakeFpc};
  const auto codec = kFactories[std::get<0>(GetParam())]();
  const int shape = std::get<1>(GetParam());
  const size_t n = shape == 2 ? 4096 : 20000;  // Elf is slow on entropy data.
  const auto data = MakeWorkload(shape, n);

  const auto compressed = codec->Compress(data.data(), data.size());
  std::vector<double> out(data.size(), -777.0);
  const Status decoded =
      codec->TryDecompress(compressed.data(), compressed.size(), data.size(), out.data());
  ASSERT_TRUE(decoded.ok()) << decoded.ToString();
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_EQ(BitsOf(out[i]), BitsOf(data[i]))
        << codec->name() << " shape=" << shape << " index=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllCodecsAllShapes, CodecRoundTripTest,
                         ::testing::Combine(::testing::Range(0, 11),
                                            ::testing::Range(0, 6)));

class CodecEdgeTest : public ::testing::TestWithParam<int> {};

TEST_P(CodecEdgeTest, EmptyInput) {
  static const Factory kFactories[] = {&MakeGorilla, &MakeChimp, &MakeChimp128,
                                       &MakePatas,   &MakeElf,   &MakePde,
                                       &MakeZstd,    &MakeLz,    &MakeAlpCodec,
                                       &MakeFpc};
  const auto codec = kFactories[GetParam()]();
  const auto compressed = codec->Compress(nullptr, 0);
  const Status decoded =
      codec->TryDecompress(compressed.data(), compressed.size(), 0, nullptr);
  ASSERT_TRUE(decoded.ok()) << decoded.ToString();
}

TEST_P(CodecEdgeTest, SingleValue) {
  static const Factory kFactories[] = {&MakeGorilla, &MakeChimp, &MakeChimp128,
                                       &MakePatas,   &MakeElf,   &MakePde,
                                       &MakeZstd,    &MakeLz,    &MakeAlpCodec,
                                       &MakeFpc};
  const auto codec = kFactories[GetParam()]();
  const double v = -273.15;
  const auto compressed = codec->Compress(&v, 1);
  double out = 0;
  const Status decoded =
      codec->TryDecompress(compressed.data(), compressed.size(), 1, &out);
  ASSERT_TRUE(decoded.ok()) << decoded.ToString();
  EXPECT_EQ(BitsOf(out), BitsOf(v)) << codec->name();
}

TEST_P(CodecEdgeTest, AllIdenticalValues) {
  static const Factory kFactories[] = {&MakeGorilla, &MakeChimp, &MakeChimp128,
                                       &MakePatas,   &MakeElf,   &MakePde,
                                       &MakeZstd,    &MakeLz,    &MakeAlpCodec,
                                       &MakeFpc};
  const auto codec = kFactories[GetParam()]();
  const std::vector<double> data(10000, 9.875);
  const auto compressed = codec->Compress(data.data(), data.size());
  std::vector<double> out(data.size());
  const Status decoded =
      codec->TryDecompress(compressed.data(), compressed.size(), data.size(), out.data());
  ASSERT_TRUE(decoded.ok()) << decoded.ToString();
  for (double o : out) ASSERT_EQ(BitsOf(o), BitsOf(9.875));
  // Identical values must compress below raw (Patas pays a fixed 16-bit
  // packet per value, the loosest of the family).
  EXPECT_LT(compressed.size() * 8.0 / data.size(), 17.0) << codec->name();
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, CodecEdgeTest, ::testing::Range(0, 10));

TEST(CodecRegistry, NamesMatchPaperTables) {
  const auto codecs = AllDoubleCodecs();
  ASSERT_EQ(codecs.size(), 8u);
  EXPECT_EQ(codecs[0]->name(), "Gorilla");
  EXPECT_EQ(codecs[1]->name(), "Chimp");
  EXPECT_EQ(codecs[2]->name(), "Chimp128");
  EXPECT_EQ(codecs[3]->name(), "Patas");
  EXPECT_EQ(codecs[4]->name(), "PDE");
  EXPECT_EQ(codecs[5]->name(), "Elf");
  EXPECT_EQ(codecs[6]->name(), "ALP");
  EXPECT_EQ(codecs[7]->name(), "Zstd");
}

TEST(CodecRegistry, FloatCodecsRoundTrip) {
  std::mt19937_64 rng(11);
  std::vector<float> data(8192);
  for (auto& v : data) {
    v = static_cast<float>((static_cast<double>(rng() >> 11) * 0x1.0p-53 - 0.5) * 0.04);
  }
  for (const auto& codec : AllFloatCodecs()) {
    const auto compressed = codec->Compress(data.data(), data.size());
    std::vector<float> out(data.size());
    const Status decoded =
        codec->TryDecompress(compressed.data(), compressed.size(), data.size(),
                             out.data());
    ASSERT_TRUE(decoded.ok()) << decoded.ToString();
    for (size_t i = 0; i < data.size(); ++i) {
      ASSERT_EQ(BitsOf(out[i]), BitsOf(data[i])) << codec->name() << " " << i;
    }
  }
}

TEST(Gorilla, RepeatedValuesCostOneBit) {
  const std::vector<double> data(10001, 5.5);
  const auto codec = MakeGorilla();
  const auto compressed = codec->Compress(data.data(), data.size());
  // 64 bits header + ~1 bit per repeat.
  EXPECT_LE(compressed.size(), 8 + 10000 / 8 + 16);
}

TEST(Patas, ByteAlignedOutput) {
  // Patas output is byte-structured: 8-byte header + >= 2 bytes per value.
  std::mt19937_64 rng(13);
  std::vector<double> data(1000);
  for (auto& v : data) v = static_cast<double>(rng() % 1000) / 10.0;
  const auto codec = MakePatas();
  const auto compressed = codec->Compress(data.data(), data.size());
  EXPECT_GE(compressed.size(), 8u + 2u * (data.size() - 1));
}

TEST(Elf, BeatsGorillaOnDecimalData) {
  const auto data = MakeWorkload(0, 20000);
  const auto elf = MakeElf()->Compress(data.data(), data.size());
  const auto gorilla = MakeGorilla()->Compress(data.data(), data.size());
  EXPECT_LT(elf.size(), gorilla.size());
}

TEST(Pde, EncodesDecimalsCompactly) {
  const auto data = MakeWorkload(0, 20000);
  const auto codec = MakePde();
  const auto compressed = codec->Compress(data.data(), data.size());
  EXPECT_LT(compressed.size() * 8.0 / data.size(), 40.0);
}

TEST(Fpc, PredictsSmoothSeries) {
  // A smooth series is exactly what FCM/DFCM predict well: the compressed
  // size must land well below raw.
  std::vector<double> data(50000);
  double cur = 100.0;
  std::mt19937_64 rng(23);
  for (auto& v : data) {
    cur += (static_cast<double>(rng() % 200) - 100.0) / 100.0;
    v = cur;
  }
  const auto codec = MakeFpc();
  const auto compressed = codec->Compress(data.data(), data.size());
  EXPECT_LT(compressed.size(), data.size() * 8);
  std::vector<double> out(data.size());
  const Status decoded =
      codec->TryDecompress(compressed.data(), compressed.size(), data.size(), out.data());
  ASSERT_TRUE(decoded.ok()) << decoded.ToString();
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_EQ(BitsOf(out[i]), BitsOf(data[i]));
  }
}

TEST(Fpc, HeaderCodeMapping) {
  // Odd count exercises the half-filled trailing header byte.
  std::vector<double> data(777, 1.5);
  data[5] = -2.25;
  const auto codec = MakeFpc();
  const auto compressed = codec->Compress(data.data(), data.size());
  std::vector<double> out(data.size());
  const Status decoded =
      codec->TryDecompress(compressed.data(), compressed.size(), data.size(), out.data());
  ASSERT_TRUE(decoded.ok()) << decoded.ToString();
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_EQ(BitsOf(out[i]), BitsOf(data[i]));
  }
}

TEST(Lz, RawBytesRoundTrip) {
  std::mt19937_64 rng(17);
  std::vector<uint8_t> data(100000);
  // Compressible: repeated phrases with noise.
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>((i % 251) ^ ((i / 1000) % 7));
  }
  const auto compressed = lz::CompressBytes(data.data(), data.size());
  EXPECT_LT(compressed.size(), data.size());
  std::vector<uint8_t> out(data.size());
  ASSERT_TRUE(lz::TryDecompressBytes(compressed.data(), compressed.size(), out.data(),
                                     out.size()));
  EXPECT_EQ(out, data);
}

TEST(Lz, IncompressibleBytesRoundTrip) {
  std::mt19937_64 rng(19);
  std::vector<uint8_t> data(50000);
  for (auto& b : data) b = static_cast<uint8_t>(rng());
  const auto compressed = lz::CompressBytes(data.data(), data.size());
  std::vector<uint8_t> out(data.size());
  ASSERT_TRUE(lz::TryDecompressBytes(compressed.data(), compressed.size(), out.data(),
                                     out.size()));
  EXPECT_EQ(out, data);
}

TEST(Lz, OverlappingMatchSemantics) {
  // "aaaa..." forces matches with offset < length.
  std::vector<uint8_t> data(10000, 'a');
  const auto compressed = lz::CompressBytes(data.data(), data.size());
  EXPECT_LT(compressed.size(), 200u);
  std::vector<uint8_t> out(data.size());
  ASSERT_TRUE(lz::TryDecompressBytes(compressed.data(), compressed.size(), out.data(),
                                     out.size()));
  EXPECT_EQ(out, data);
}

TEST(Zstd, ReportsBinding) {
  // Informational: on this host the real library should be bound.
  const auto codec = MakeZstd();
  EXPECT_EQ(codec->name(), "Zstd");
  (void)ZstdIsReal();
}

}  // namespace
}  // namespace alp::codecs
