// Unit tests for the utility substrate: bit helpers, the MSB-first bit
// stream, and the POD serialization buffers.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "util/bit_stream.h"
#include "util/bits.h"
#include "util/serialize.h"

namespace alp {
namespace {

TEST(Bits, BitCastsRoundTrip) {
  const double values[] = {0.0,
                           -0.0,
                           1.5,
                           -3.25,
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::max()};
  for (double v : values) {
    EXPECT_EQ(BitsOf(DoubleFromBits(BitsOf(v))), BitsOf(v));
  }
  const float fvalues[] = {0.0f, -0.0f, 1.5f, std::numeric_limits<float>::infinity()};
  for (float v : fvalues) {
    EXPECT_EQ(BitsOf(FloatFromBits(BitsOf(v))), BitsOf(v));
  }
}

TEST(Bits, NanPayloadSurvivesBitCast) {
  const uint64_t payload = 0x7FF800000000BEEFULL;
  EXPECT_EQ(BitsOf(DoubleFromBits(payload)), payload);
}

TEST(Bits, LeadingTrailingZerosHandleZero) {
  EXPECT_EQ(LeadingZeros(uint64_t{0}), 64);
  EXPECT_EQ(TrailingZeros(uint64_t{0}), 64);
  EXPECT_EQ(LeadingZeros(uint32_t{0}), 32);
  EXPECT_EQ(TrailingZeros(uint32_t{0}), 32);
}

TEST(Bits, LeadingTrailingZerosBasic) {
  EXPECT_EQ(LeadingZeros(uint64_t{1}), 63);
  EXPECT_EQ(TrailingZeros(uint64_t{1}), 0);
  EXPECT_EQ(LeadingZeros(uint64_t{1} << 63), 0);
  EXPECT_EQ(TrailingZeros(uint64_t{1} << 63), 63);
  EXPECT_EQ(LeadingZeros(uint32_t{0x00010000}), 15);
}

TEST(Bits, BitWidth) {
  EXPECT_EQ(BitWidth(uint64_t{0}), 0u);
  EXPECT_EQ(BitWidth(uint64_t{1}), 1u);
  EXPECT_EQ(BitWidth(uint64_t{255}), 8u);
  EXPECT_EQ(BitWidth(uint64_t{256}), 9u);
  EXPECT_EQ(BitWidth(~uint64_t{0}), 64u);
}

TEST(Bits, LowMask) {
  EXPECT_EQ(LowMask64(0), 0u);
  EXPECT_EQ(LowMask64(1), 1u);
  EXPECT_EQ(LowMask64(64), ~uint64_t{0});
  EXPECT_EQ(LowMask32(32), ~uint32_t{0});
  EXPECT_EQ(LowMask64(52), (uint64_t{1} << 52) - 1);
}

TEST(Bits, BiasedExponent) {
  EXPECT_EQ(BiasedExponent(1.0), 1023u);
  EXPECT_EQ(BiasedExponent(2.0), 1024u);
  EXPECT_EQ(BiasedExponent(0.5), 1022u);
  EXPECT_EQ(BiasedExponent(0.0), 0u);
  EXPECT_EQ(BiasedExponent(1.0f), 127u);
}

TEST(BitStream, SingleBits) {
  BitWriter writer;
  const bool pattern[] = {true, false, true, true, false, false, true, false, true};
  for (bool b : pattern) writer.WriteBit(b);
  const auto bytes = writer.Finish();
  BitReader reader(bytes.data(), bytes.size());
  for (bool b : pattern) EXPECT_EQ(reader.ReadBit(), b);
}

TEST(BitStream, FullWidthWrites) {
  BitWriter writer;
  writer.WriteBits(0xDEADBEEFCAFEBABEULL, 64);
  writer.WriteBits(0x12345678u, 32);
  writer.WriteBits(0, 64);
  const auto bytes = writer.Finish();
  BitReader reader(bytes.data(), bytes.size());
  EXPECT_EQ(reader.ReadBits(64), 0xDEADBEEFCAFEBABEULL);
  EXPECT_EQ(reader.ReadBits(32), 0x12345678u);
  EXPECT_EQ(reader.ReadBits(64), 0u);
}

TEST(BitStream, ZeroWidthWriteIsNoop) {
  BitWriter writer;
  writer.WriteBits(0xFF, 0);
  EXPECT_EQ(writer.bit_count(), 0u);
  writer.WriteBits(0b101, 3);
  EXPECT_EQ(writer.bit_count(), 3u);
}

TEST(BitStream, ValueIsMaskedToWidth) {
  BitWriter writer;
  writer.WriteBits(0xFFFFFFFFFFFFFFFFULL, 5);
  writer.WriteBits(0, 3);
  const auto bytes = writer.Finish();
  BitReader reader(bytes.data(), bytes.size());
  EXPECT_EQ(reader.ReadBits(5), 0x1Fu);
  EXPECT_EQ(reader.ReadBits(3), 0u);
}

TEST(BitStream, UnalignedMixRoundTrips) {
  std::mt19937_64 rng(7);
  std::vector<std::pair<uint64_t, unsigned>> writes;
  BitWriter writer;
  for (int i = 0; i < 10000; ++i) {
    const unsigned width = 1 + static_cast<unsigned>(rng() % 64);
    const uint64_t value = rng() & LowMask64(width);
    writes.emplace_back(value, width);
    writer.WriteBits(value, width);
  }
  const auto bytes = writer.Finish();
  BitReader reader(bytes.data(), bytes.size());
  for (const auto& [value, width] : writes) {
    ASSERT_EQ(reader.ReadBits(width), value);
  }
}

TEST(BitStream, AlignToByte) {
  BitWriter writer;
  writer.WriteBits(0b1, 1);
  writer.AlignToByte();
  EXPECT_EQ(writer.bit_count(), 8u);
  writer.WriteBits(0xAB, 8);
  const auto bytes = writer.Finish();
  ASSERT_EQ(bytes.size(), 2u);
  EXPECT_EQ(bytes[0], 0x80);
  EXPECT_EQ(bytes[1], 0xAB);
}

TEST(BitStream, ReaderSkipAndPosition) {
  BitWriter writer;
  writer.WriteBits(0xAA, 8);
  writer.WriteBits(0x1234, 16);
  const auto bytes = writer.Finish();
  BitReader reader(bytes.data(), bytes.size());
  reader.SkipBits(8);
  EXPECT_EQ(reader.position(), 8u);
  EXPECT_EQ(reader.ReadBits(16), 0x1234u);
  EXPECT_TRUE(reader.HasBits(0));
  EXPECT_FALSE(reader.HasBits(1));
}

TEST(ByteBuffer, AppendAndRead) {
  ByteBuffer buffer;
  buffer.Append<uint32_t>(0xCAFE);
  buffer.Append<uint64_t>(42);
  const uint16_t array[] = {1, 2, 3};
  buffer.AppendArray(array, 3);
  const auto bytes = buffer.Take();

  ByteReader reader(bytes.data(), bytes.size());
  EXPECT_EQ(reader.Read<uint32_t>(), 0xCAFEu);
  EXPECT_EQ(reader.Read<uint64_t>(), 42u);
  uint16_t read_back[3];
  reader.ReadArray(read_back, 3);
  EXPECT_EQ(read_back[0], 1);
  EXPECT_EQ(read_back[2], 3);
}

TEST(ByteBuffer, AlignTo) {
  ByteBuffer buffer;
  buffer.Append<uint8_t>(1);
  buffer.AlignTo(8);
  EXPECT_EQ(buffer.size(), 8u);
  buffer.AlignTo(8);
  EXPECT_EQ(buffer.size(), 8u);
}

TEST(ByteBuffer, ReserveAndPatch) {
  ByteBuffer buffer;
  const size_t slot = buffer.ReserveSlot<uint64_t>(2);
  buffer.Append<uint8_t>(0xEE);
  const uint64_t patched[] = {111, 222};
  buffer.PatchArrayAt(slot, patched, 2);
  const auto bytes = buffer.Take();
  ByteReader reader(bytes.data(), bytes.size());
  EXPECT_EQ(reader.Read<uint64_t>(), 111u);
  EXPECT_EQ(reader.Read<uint64_t>(), 222u);
  EXPECT_EQ(reader.Read<uint8_t>(), 0xEE);
}

/// Every kind of ByteBuffer write, in one 48-byte sequence.
void WriteEveryKind(ByteBuffer* buffer) {
  buffer->Append<uint8_t>(0x11);
  buffer->AlignTo(8);
  buffer->ReserveSlot<uint32_t>(3);
  buffer->Append<uint64_t>(0x0123456789ABCDEFull);
  const uint16_t array[] = {0x0102, 0x0304, 0x0506, 0x0708, 0x090A};
  buffer->AppendArray(array, 5);
  buffer->AppendArray<uint16_t>(nullptr, 0);
  buffer->AlignTo(8);
  buffer->Append<uint8_t>(0x22);
  buffer->AlignTo(16);
}

TEST(ByteBuffer, ReserveChangesNoByte) {
  std::vector<uint8_t> expected(48, 0);  // Slots and padding read as zero.
  expected[0] = 0x11;
  const uint64_t word = 0x0123456789ABCDEFull;
  std::memcpy(expected.data() + 20, &word, sizeof(word));
  const uint16_t array[] = {0x0102, 0x0304, 0x0506, 0x0708, 0x090A};
  std::memcpy(expected.data() + 28, array, sizeof(array));
  expected[40] = 0x22;

  // No reserve, too small, exact and oversized.
  for (const size_t reserve : {size_t{0}, size_t{5}, size_t{48}, size_t{4096}}) {
    SCOPED_TRACE(reserve);
    ByteBuffer buffer;
    if (reserve > 0) buffer.Reserve(reserve);
    WriteEveryKind(&buffer);
    EXPECT_EQ(buffer.size(), expected.size());
    const std::vector<uint8_t> bytes = buffer.Take();
    EXPECT_EQ(bytes, expected);  // Take() hands over exactly size() bytes.
  }
}

TEST(ByteReader, SeekAndAlign) {
  ByteBuffer buffer;
  for (uint8_t i = 0; i < 16; ++i) buffer.Append(i);
  const auto bytes = buffer.Take();
  ByteReader reader(bytes.data(), bytes.size());
  reader.Skip(3);
  reader.AlignTo(8);
  EXPECT_EQ(reader.position(), 8u);
  EXPECT_EQ(reader.Read<uint8_t>(), 8);
  reader.SeekTo(15);
  EXPECT_EQ(reader.Read<uint8_t>(), 15);
}

}  // namespace
}  // namespace alp
