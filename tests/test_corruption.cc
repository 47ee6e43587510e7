// Corruption-injection harness for the untrusted-input surface: seeded,
// deterministic mutations (single-bit flips, truncations, header and index
// mutations, pure garbage) applied to v3 column buffers and to every
// baseline codec's stream, then decoded through the fallible paths
// (ColumnReader::Open / TryDecodeAll, Codec::TryDecompress). The single
// invariant everywhere: a mutated buffer either round-trips bit-exactly or
// is rejected with a non-OK Status - never a crash, never an out-of-bounds
// access (the CI sanitizer job runs this file under ASan+UBSan), and never
// silently wrong data. For v3 columns the checksums make the stronger
// property testable: any flipped bit outside the version byte is rejected.
//
// Well over 2000 distinct mutations run per invocation: every bit of two
// small columns is flipped, every strict prefix is tried, plus seeded
// random mutations on a multi-rowgroup column and per-codec streams.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "alp/alp.h"
#include "codecs/codec.h"
#include "test_fixtures.h"
#include "util/bits.h"
#include "util/checksum.h"
#include "util/status.h"

namespace alp {
namespace {

using testutil::AlpSmall;
using testutil::Classify;
using testutil::Corpus;
using testutil::HighPrecisionData;
using testutil::kVersionByte;
using testutil::MutationOutcome;
using testutil::RdSmall;
using testutil::StripToV2;
using testutil::TwoRowgroups;

// ---------------------------------------------------------------------------
// Status / StatusOr substrate.

TEST(Status, OkIsDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
  EXPECT_TRUE(Status::Ok().ok());
}

TEST(Status, ErrorCarriesCodeMessageOffset) {
  const Status s = Status::Corrupt("packed width out of range", 1032);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCorrupt);
  EXPECT_EQ(s.message(), "packed width out of range");
  EXPECT_EQ(s.offset(), 1032u);
  EXPECT_EQ(s.ToString(), "CORRUPT: packed width out of range (offset 1032)");

  const Status t = Status::Truncated("stream ends early");
  EXPECT_EQ(t.offset(), Status::kNoOffset);
  EXPECT_EQ(t.ToString(), "TRUNCATED: stream ends early");
}

TEST(Status, EveryCodeHasAName) {
  EXPECT_EQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_EQ(StatusCodeName(StatusCode::kTruncated), "TRUNCATED");
  EXPECT_EQ(StatusCodeName(StatusCode::kCorrupt), "CORRUPT");
  EXPECT_EQ(StatusCodeName(StatusCode::kChecksumMismatch), "CHECKSUM_MISMATCH");
  EXPECT_EQ(StatusCodeName(StatusCode::kUnsupportedVersion),
            "UNSUPPORTED_VERSION");
  EXPECT_EQ(StatusCodeName(StatusCode::kIo), "IO");
}

TEST(StatusOr, HoldsValueOrStatus) {
  StatusOr<std::vector<int>> good(std::vector<int>{1, 2, 3});
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good->size(), 3u);
  EXPECT_EQ((*good)[2], 3);

  StatusOr<std::vector<int>> bad(Status::Truncated("too short", 7));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kTruncated);
  EXPECT_EQ(bad.status().offset(), 7u);

  // Move and copy keep the active member.
  StatusOr<std::vector<int>> moved(std::move(good));
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(moved->size(), 3u);
  StatusOr<std::vector<int>> copied(bad);
  ASSERT_FALSE(copied.ok());
  copied = moved;
  ASSERT_TRUE(copied.ok());
  EXPECT_EQ(copied->size(), 3u);
}

// ---------------------------------------------------------------------------
// XXH64 checksum.

TEST(Checksum, DeterministicAndSeeded) {
  const std::string bytes = "alp checksum self-test payload";
  const uint64_t a = Checksum64(bytes.data(), bytes.size());
  EXPECT_EQ(a, Checksum64(bytes.data(), bytes.size()));
  EXPECT_NE(a, Checksum64(bytes.data(), bytes.size(), /*seed=*/1));
  EXPECT_NE(a, Checksum64(bytes.data(), bytes.size() - 1));
  EXPECT_EQ(Checksum64(nullptr, 0), Checksum64(nullptr, 0));
  EXPECT_NE(Checksum64(nullptr, 0), Checksum64("x", 1));
}

TEST(Checksum, SingleBitSensitivity) {
  std::mt19937_64 rng(42);
  std::vector<uint8_t> bytes(1024);
  for (auto& b : bytes) b = static_cast<uint8_t>(rng());
  const uint64_t base = Checksum64(bytes.data(), bytes.size());
  for (size_t trial = 0; trial < 256; ++trial) {
    const size_t bit = rng() % (bytes.size() * 8);
    bytes[bit / 8] ^= uint8_t{1} << (bit % 8);
    EXPECT_NE(base, Checksum64(bytes.data(), bytes.size())) << "bit " << bit;
    bytes[bit / 8] ^= uint8_t{1} << (bit % 8);
  }
  EXPECT_EQ(base, Checksum64(bytes.data(), bytes.size()));
}

TEST(Checksum, StreamMatchesOneShot) {
  std::mt19937_64 rng(7);
  std::vector<uint8_t> bytes(4096 + 17);
  for (auto& b : bytes) b = static_cast<uint8_t>(rng());
  const uint64_t expected = Checksum64(bytes.data(), bytes.size(), 99);

  for (const size_t chunk : {size_t{1}, size_t{3}, size_t{31}, size_t{32},
                             size_t{33}, size_t{1000}, bytes.size()}) {
    Checksum64Stream stream(99);
    for (size_t at = 0; at < bytes.size(); at += chunk) {
      stream.Update(bytes.data() + at, std::min(chunk, bytes.size() - at));
    }
    EXPECT_EQ(stream.Finish(), expected) << "chunk " << chunk;
  }
}

// ---------------------------------------------------------------------------
// Column corpora and mutation helpers live in test_fixtures.h, shared with
// the golden-vector and parallel-pipeline suites.

// ---------------------------------------------------------------------------
// Valid buffers through the fallible path.

TEST(ColumnOpen, ValidBuffersRoundTrip) {
  for (const Corpus* corpus : {&AlpSmall(), &RdSmall(), &TwoRowgroups()}) {
    SCOPED_TRACE(corpus->name);
    StatusOr<ColumnReader<double>> reader =
        ColumnReader<double>::Open(corpus->buffer.data(), corpus->buffer.size());
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    EXPECT_EQ(reader->format_version(), kColumnFormatVersion);
    ASSERT_EQ(reader->value_count(), corpus->values.size());

    std::vector<double> out(reader->value_count());
    const Status decode = reader->TryDecodeAll(out.data());
    ASSERT_TRUE(decode.ok()) << decode.ToString();
    EXPECT_EQ(std::memcmp(out.data(), corpus->values.data(),
                          out.size() * sizeof(double)),
              0);

    // Per-vector fallible decode agrees with the bulk path.
    std::vector<double> vec(kVectorSize);
    size_t at = 0;
    for (size_t v = 0; v < reader->vector_count(); ++v) {
      const Status s = reader->TryDecodeVector(v, vec.data());
      ASSERT_TRUE(s.ok()) << s.ToString();
      ASSERT_EQ(std::memcmp(vec.data(), corpus->values.data() + at,
                            reader->VectorLength(v) * sizeof(double)),
                0);
      at += reader->VectorLength(v);
    }
  }
}

TEST(ColumnOpen, RejectsOutOfRangeRequests) {
  const Corpus& corpus = AlpSmall();
  StatusOr<ColumnReader<double>> reader =
      ColumnReader<double>::Open(corpus.buffer.data(), corpus.buffer.size());
  ASSERT_TRUE(reader.ok());
  double out[kVectorSize];
  EXPECT_FALSE(reader->TryDecodeVector(reader->vector_count(), out).ok());
  EXPECT_FALSE(reader->TryDecodeVector(~size_t{0}, out).ok());
}

TEST(ColumnOpen, RejectsTrivialGarbage) {
  EXPECT_EQ(ColumnReader<double>::Open(nullptr, 0).status().code(),
            StatusCode::kTruncated);
  const uint8_t tiny[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_FALSE(ColumnReader<double>::Open(tiny, sizeof(tiny)).ok());

  std::vector<uint8_t> bad = AlpSmall().buffer;
  bad[0] ^= 0xFF;  // Magic.
  StatusOr<ColumnReader<double>> magic =
      ColumnReader<double>::Open(bad.data(), bad.size());
  ASSERT_FALSE(magic.ok());
  EXPECT_EQ(magic.status().code(), StatusCode::kCorrupt);
  EXPECT_EQ(magic.status().message(), "bad magic");

  // Float reader over a double column: wrong type tag.
  EXPECT_FALSE(
      ColumnReader<float>::Open(AlpSmall().buffer.data(), AlpSmall().buffer.size())
          .ok());
}

TEST(ColumnOpen, RejectsUnsupportedVersions) {
  for (const uint8_t version : {uint8_t{0}, uint8_t{1}, uint8_t{4}, uint8_t{99}}) {
    std::vector<uint8_t> bad = AlpSmall().buffer;
    bad[kVersionByte] = version;
    StatusOr<ColumnReader<double>> reader =
        ColumnReader<double>::Open(bad.data(), bad.size());
    ASSERT_FALSE(reader.ok()) << "version " << int{version};
    EXPECT_EQ(reader.status().code(), StatusCode::kUnsupportedVersion);
    EXPECT_EQ(reader.status().message(), "unsupported format version");
  }
}

// ---------------------------------------------------------------------------
// v2 compatibility: checksum sections stripped, version byte set to 2
// (StripToV2 in test_fixtures.h).

TEST(ColumnV2Compat, V2BuffersStillDecode) {
  for (const Corpus* corpus : {&AlpSmall(), &RdSmall(), &TwoRowgroups()}) {
    SCOPED_TRACE(corpus->name);
    const std::vector<uint8_t> v2 = StripToV2(corpus->buffer);
    ASSERT_TRUE(ValidateColumnEx<double>(v2.data(), v2.size()).ok());

    StatusOr<ColumnReader<double>> reader =
        ColumnReader<double>::Open(v2.data(), v2.size());
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    EXPECT_EQ(reader->format_version(), 2);
    EXPECT_EQ(Classify(v2, corpus->values), MutationOutcome::kRoundTripped);

    // The unverified constructor reads v2 too.
    ColumnReader<double> unverified(v2.data(), v2.size());
    ASSERT_TRUE(unverified.ok());
    std::vector<double> out(unverified.value_count());
    ASSERT_TRUE(unverified.TryDecodeAll(out.data()).ok());
    EXPECT_EQ(std::memcmp(out.data(), corpus->values.data(),
                          out.size() * sizeof(double)),
              0);
  }
}

TEST(ColumnV2Compat, V2SkipsChecksumButKeepsStructure) {
  // Flipping a payload bit in a v2 buffer must never be silently wrong:
  // with no checksum it may still be structurally rejected, or decode to
  // different-but-in-bounds values; the harness only demands no crash here,
  // which the sanitizer job turns into a real check.
  const std::vector<uint8_t> v2 = StripToV2(AlpSmall().buffer);
  std::mt19937_64 rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> bad = v2;
    const size_t bit = rng() % (bad.size() * 8);
    bad[bit / 8] ^= uint8_t{1} << (bit % 8);
    (void)Classify(bad, AlpSmall().values);  // Must not crash or read OOB.
  }
}

// ---------------------------------------------------------------------------
// Checksum verification on v3 buffers.

TEST(ColumnChecksum, PayloadFlipIsChecksumMismatch) {
  const Corpus& corpus = AlpSmall();
  // The final byte lies inside the last rowgroup's payload.
  std::vector<uint8_t> bad = corpus.buffer;
  bad.back() ^= 0x01;
  StatusOr<ColumnReader<double>> reader =
      ColumnReader<double>::Open(bad.data(), bad.size());
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kChecksumMismatch);
  EXPECT_EQ(reader.status().message(), "rowgroup payload checksum mismatch");
}

TEST(ColumnChecksum, IndexFlipIsChecksumMismatch) {
  const Corpus& corpus = AlpSmall();
  // Byte 8 is value_count: covered by the header checksum.
  std::vector<uint8_t> bad = corpus.buffer;
  bad[8] ^= 0x10;
  StatusOr<ColumnReader<double>> reader =
      ColumnReader<double>::Open(bad.data(), bad.size());
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kChecksumMismatch);
  EXPECT_EQ(reader.status().message(), "column header checksum mismatch");
}

// ---------------------------------------------------------------------------
// Exhaustive single-bit flips: every bit of two small columns.

void FlipEveryBit(const Corpus& corpus) {
  size_t mutations = 0;
  for (size_t byte = 0; byte < corpus.buffer.size(); ++byte) {
    for (unsigned bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> bad = corpus.buffer;
      bad[byte] ^= uint8_t{1} << bit;
      const MutationOutcome outcome = Classify(bad, corpus.values);
      ++mutations;
      if (byte == kVersionByte) {
        // A version flip can disable checksum verification (3 -> 2), but
        // even then the decoded values must be exact or rejected.
        ASSERT_NE(outcome, MutationOutcome::kSilentCorruption)
            << corpus.name << " version bit " << bit;
      } else {
        // Every other byte is covered by a checksum: must be rejected.
        ASSERT_EQ(outcome, MutationOutcome::kRejected)
            << corpus.name << " byte " << byte << " bit " << bit;
      }
    }
  }
  EXPECT_GE(mutations, 2000u) << corpus.name;
}

TEST(ColumnBitFlips, EveryBitOfAlpColumnIsCaught) { FlipEveryBit(AlpSmall()); }

TEST(ColumnBitFlips, EveryBitOfRdColumnIsCaught) { FlipEveryBit(RdSmall()); }

TEST(ColumnBitFlips, SeededFlipsOnMultiRowgroupColumn) {
  const Corpus& corpus = TwoRowgroups();
  std::mt19937_64 rng(1234);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<uint8_t> bad = corpus.buffer;
    const size_t bit = rng() % (bad.size() * 8);
    bad[bit / 8] ^= uint8_t{1} << (bit % 8);
    const MutationOutcome outcome = Classify(bad, corpus.values);
    if (bit / 8 == kVersionByte) {
      ASSERT_NE(outcome, MutationOutcome::kSilentCorruption) << "bit " << bit;
    } else {
      ASSERT_EQ(outcome, MutationOutcome::kRejected) << "bit " << bit;
    }
  }
}

// ---------------------------------------------------------------------------
// Truncations.

TEST(ColumnTruncation, EveryPrefixOfV3IsRejected) {
  // The last rowgroup's checksum covers the buffer tail, so even a prefix
  // that only sheds alignment padding is caught on v3.
  const Corpus& corpus = AlpSmall();
  for (size_t len = 0; len < corpus.buffer.size(); ++len) {
    StatusOr<ColumnReader<double>> reader =
        ColumnReader<double>::Open(corpus.buffer.data(), len);
    ASSERT_FALSE(reader.ok()) << "prefix " << len;
  }
}

TEST(ColumnTruncation, EveryPrefixOfV2RejectsOrRoundTrips) {
  // v2 has no checksums: a prefix can only be accepted if it still decodes
  // to exactly the original values (e.g. dropping trailing padding).
  const std::vector<uint8_t> v2 = StripToV2(RdSmall().buffer);
  for (size_t len = 0; len < v2.size(); ++len) {
    const std::vector<uint8_t> prefix(v2.begin(), v2.begin() + len);
    ASSERT_NE(Classify(prefix, RdSmall().values),
              MutationOutcome::kSilentCorruption)
        << "prefix " << len;
  }
}

TEST(ColumnTruncation, SeededTruncationsOfMultiRowgroupColumn) {
  const Corpus& corpus = TwoRowgroups();
  std::mt19937_64 rng(77);
  for (int trial = 0; trial < 300; ++trial) {
    const size_t len = rng() % corpus.buffer.size();
    StatusOr<ColumnReader<double>> reader =
        ColumnReader<double>::Open(corpus.buffer.data(), len);
    ASSERT_FALSE(reader.ok()) << "prefix " << len;
  }
}

// ---------------------------------------------------------------------------
// Header/index mutations and garbage buffers.

TEST(ColumnMutation, SeededHeaderAndIndexMutations) {
  const Corpus& corpus = AlpSmall();
  std::mt19937_64 rng(31337);
  const size_t window = std::min<size_t>(corpus.buffer.size(), 192);
  for (int trial = 0; trial < 800; ++trial) {
    std::vector<uint8_t> bad = corpus.buffer;
    const unsigned edits = 1 + static_cast<unsigned>(rng() % 4);
    for (unsigned e = 0; e < edits; ++e) {
      bad[rng() % window] = static_cast<uint8_t>(rng());
    }
    ASSERT_NE(Classify(bad, corpus.values), MutationOutcome::kSilentCorruption)
        << "trial " << trial;
  }
}

TEST(ColumnMutation, SeededWholeBufferMutations) {
  const Corpus& corpus = TwoRowgroups();
  std::mt19937_64 rng(60601);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> bad = corpus.buffer;
    const unsigned edits = 1 + static_cast<unsigned>(rng() % 8);
    for (unsigned e = 0; e < edits; ++e) {
      bad[rng() % bad.size()] = static_cast<uint8_t>(rng());
    }
    ASSERT_NE(Classify(bad, corpus.values), MutationOutcome::kSilentCorruption)
        << "trial " << trial;
  }
}

TEST(ColumnMutation, PureGarbageNeverCrashes) {
  std::mt19937_64 rng(987);
  std::vector<double> empty;
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> garbage(rng() % 4096);
    for (auto& b : garbage) b = static_cast<uint8_t>(rng());
    // Some trials get a plausible prefix so validation walks deeper.
    if (trial % 3 == 0 && garbage.size() >= 8) {
      const uint32_t magic = 0x43504C41;
      std::memcpy(garbage.data(), &magic, sizeof(magic));
      garbage[4] = (trial % 2 == 0) ? 2 : 3;
      garbage[5] = 0;
    }
    (void)ValidateColumnEx<double>(garbage.data(), garbage.size());
    (void)Classify(garbage, empty);  // Must not crash or read OOB.
  }
}

// ---------------------------------------------------------------------------
// One parser behind every entry point.

uint64_t RowgroupOffset(const std::vector<uint8_t>& buffer, size_t rg) {
  uint64_t offset = 0;
  std::memcpy(&offset, buffer.data() + 24 + rg * sizeof(uint64_t), sizeof(offset));
  return offset;
}

TEST(ColumnConstructor, RowgroupShortOfItsVectorsComesUpNotOk) {
  // A rowgroup that declares fewer vectors than the value count gives it
  // would leave vector 1 without an offset-index entry. The constructor
  // runs no checksum pass, so v3 and v2 buffers both reach the parser.
  const std::vector<uint8_t> v3 = testutil::MakeCorpus(
      "two_vectors", testutil::DecimalData(505, 2 * kVectorSize)).buffer;
  for (std::vector<uint8_t> buffer : {v3, StripToV2(v3)}) {
    SCOPED_TRACE(testing::Message() << "version " << int{buffer[kVersionByte]});
    const uint32_t one = 1;
    const uint64_t rg_at = RowgroupOffset(buffer, 0);
    std::memcpy(buffer.data() + rg_at + 4, &one, sizeof(one));

    ColumnReader<double> reader(buffer.data(), buffer.size());
    EXPECT_FALSE(reader.ok());
    EXPECT_EQ(reader.vector_count(), 0u);
    ColumnReader<double>::PackedVectorView view;
    EXPECT_FALSE(reader.GetPackedVectorView(1, &view));
    EXPECT_EQ(reader.VectorExceptionCount(1), 0u);
    std::vector<double> out(kVectorSize, 7.0);
    reader.DecodeVector(1, out.data());  // A no-op, not an overread.
    EXPECT_EQ(out[0], 7.0);

    const Status s = reader.TryDecodeVector(1, out.data());
    EXPECT_EQ(s.code(), StatusCode::kCorrupt);
    EXPECT_EQ(s.offset(), rg_at);
    if (buffer[kVersionByte] == 2) {
      const Status open =
          ColumnReader<double>::Open(buffer.data(), buffer.size()).status();
      EXPECT_EQ(open.code(), s.code());
      EXPECT_EQ(open.offset(), s.offset());
    }
  }
}

/// Outcome of one entry point on a mutated buffer, offsets made absolute.
struct EntryOutcome {
  StatusCode code;
  uint64_t offset;
};

EntryOutcome Absolute(const Status& s, uint64_t base = 0) {
  return {s.code(), s.offset() == Status::kNoOffset ? s.offset() : s.offset() + base};
}

/// Runs every entry point of the column parser on \p buffer and asserts
/// they all reject it with the same code and (absolute) offset: Open, the
/// metadata cursor, OpenRowgroupChunk on the rowgroup's bytes, and
/// TryDecodeVector on a constructor-built reader. The packed view must
/// refuse the vector too.
void ExpectParserParity(const std::vector<uint8_t>& buffer, size_t rg, size_t v) {
  const EntryOutcome open =
      Absolute(ColumnReader<double>::Open(buffer.data(), buffer.size()).status());
  ASSERT_NE(open.code, StatusCode::kOk);

  const EntryOutcome cursor = Absolute(
      ColumnMetaCursor<double>::Open(buffer.data(), buffer.size()).status());

  uint64_t value_count = 0;
  std::memcpy(&value_count, buffer.data() + 8, sizeof(value_count));
  uint32_t rowgroups = 0;
  std::memcpy(&rowgroups, buffer.data() + 16, sizeof(rowgroups));
  const uint64_t rg_at = RowgroupOffset(buffer, rg);
  const uint64_t rg_end = rg + 1 < rowgroups ? RowgroupOffset(buffer, rg + 1)
                                             : buffer.size();
  const std::vector<uint8_t> chunk(buffer.begin() + rg_at, buffer.begin() + rg_end);
  const uint64_t rg_values =
      std::min<uint64_t>(kRowgroupSize, value_count - rg * kRowgroupSize);
  const EntryOutcome opened_chunk = Absolute(
      ColumnReader<double>::OpenRowgroupChunk(chunk.data(), chunk.size(), rg_values)
          .status(),
      rg_at);

  ColumnReader<double> unverified(buffer.data(), buffer.size());
  std::vector<double> out(kVectorSize);
  const EntryOutcome decoded = Absolute(unverified.TryDecodeVector(v, out.data()));
  ColumnReader<double>::PackedVectorView view;
  EXPECT_FALSE(unverified.GetPackedVectorView(v, &view));

  for (const EntryOutcome& other : {cursor, opened_chunk, decoded}) {
    EXPECT_EQ(other.code, open.code);
    EXPECT_EQ(other.offset, open.offset);
  }
}

TEST(ColumnParserParity, FieldMutationsAgreeAcrossEntryPoints) {
  // v2 buffers, so the mutations get past the checksums and reach the
  // parser. One field of one vector (or of its ALP_rd rowgroup) at a time,
  // always set to a value the format forbids.
  enum Field { kE, kF, kWidth, kIntEncoding, kExcCount, kN, kPosition,
               kRightBits, kDictWidth };
  const Corpus* corpora[] = {&AlpSmall(), &RdSmall(), &TwoRowgroups()};
  std::mt19937_64 rng(2718);
  size_t checked[kDictWidth + 1] = {};
  for (const Corpus* corpus : corpora) {
    SCOPED_TRACE(corpus->name);
    const std::vector<uint8_t> v2 = StripToV2(corpus->buffer);
    auto cursor = ColumnMetaCursor<double>::Open(v2.data(), v2.size());
    ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
    for (int trial = 0; trial < 40; ++trial) {
      const size_t v = rng() % cursor->vector_count();
      const auto vm = cursor->Vector(v);
      ASSERT_TRUE(vm.ok());
      const auto rm = cursor->Rowgroup(vm->rowgroup);
      ASSERT_TRUE(rm.ok());
      std::vector<uint8_t> bad = v2;
      const size_t at = vm->byte_offset;
      const unsigned pick = static_cast<unsigned>(rng());
      Field field;
      if (vm->scheme == Scheme::kAlpRd) {
        field = pick % 2 == 0 ? kRightBits : kDictWidth;
        const size_t rd_at = rm->byte_offset + 8;
        if (field == kRightBits) {
          bad[rd_at] = rng() % 4 == 0 ? 47 : static_cast<uint8_t>(64 + rng() % 192);
        } else {
          bad[rd_at + 1] = static_cast<uint8_t>(4 + rng() % 252);
        }
      } else {
        field = static_cast<Field>(pick % (vm->exc_count > 0 ? 7 : 6));
        uint16_t u16 = 0;
        switch (field) {
          case kE: bad[at] = static_cast<uint8_t>(19 + rng() % 237); break;
          case kF: bad[at + 1] = static_cast<uint8_t>(vm->e + 1 + rng() % (255 - vm->e)); break;
          case kWidth: bad[at + 2] = static_cast<uint8_t>(65 + rng() % 191); break;
          case kIntEncoding: bad[at + 3] = static_cast<uint8_t>(2 + rng() % 254); break;
          case kExcCount:
            u16 = static_cast<uint16_t>(vm->n + 1 + rng() % (65535 - vm->n));
            std::memcpy(bad.data() + at + 4, &u16, sizeof(u16));
            break;
          case kN:
            u16 = static_cast<uint16_t>(rng());
            if (u16 == vm->n) u16 = static_cast<uint16_t>(vm->n + 1);
            std::memcpy(bad.data() + at + 6, &u16, sizeof(u16));
            break;
          default: {
            const size_t positions_at = at + vm->header_bytes + vm->packed_bytes +
                                        vm->exception_bytes - vm->exc_count * 2u;
            u16 = static_cast<uint16_t>(vm->n + rng() % (65536 - vm->n));
            std::memcpy(bad.data() + positions_at + 2 * (rng() % vm->exc_count),
                        &u16, sizeof(u16));
            break;
          }
        }
      }
      SCOPED_TRACE(testing::Message() << "trial " << trial << " vector " << v
                                      << " field " << int{field});
      ++checked[field];
      ExpectParserParity(bad, vm->rowgroup, v);
    }
  }
  for (int field = kE; field <= kDictWidth; ++field) {
    EXPECT_GT(checked[field], 0u) << "field " << field << " never mutated";
  }
}

// ---------------------------------------------------------------------------
// Per-codec hardening: every strict prefix, plus seeded bit flips.

template <typename T>
std::vector<T> CodecData(uint64_t seed, size_t n) {
  std::mt19937_64 rng(seed);
  std::vector<T> data(n);
  for (auto& v : data) {
    const int64_t d = static_cast<int64_t>(rng() % 100000) - 50000;
    v = static_cast<T>(static_cast<double>(d) / 10.0);
    if (rng() % 64 == 0) v = static_cast<T>(DoubleFromBits(rng()));
  }
  return data;
}

template <typename T>
void CheckCodecHardening(codecs::Codec<T>& codec, const std::vector<T>& data) {
  SCOPED_TRACE(std::string(codec.name()));
  const size_t n = data.size();
  const std::vector<uint8_t> buffer = codec.Compress(data.data(), n);
  std::vector<T> out(n);

  // The untruncated stream decodes exactly.
  const Status full = codec.TryDecompress(buffer.data(), buffer.size(), n, out.data());
  ASSERT_TRUE(full.ok()) << full.ToString();
  ASSERT_EQ(std::memcmp(out.data(), data.data(), n * sizeof(T)), 0);

  // Every strict prefix: rejected, or (where the lost tail was padding)
  // still bit-exact. Never a crash, never silently different values.
  for (size_t len = 0; len < buffer.size(); ++len) {
    std::fill(out.begin(), out.end(), T{});
    const Status s = codec.TryDecompress(buffer.data(), len, n, out.data());
    if (s.ok()) {
      ASSERT_EQ(std::memcmp(out.data(), data.data(), n * sizeof(T)), 0)
          << "prefix " << len << " of " << buffer.size();
    }
  }

  // Seeded bit flips: no crash / OOB (values may legitimately differ for
  // codecs without checksums, so only memory safety is asserted; the CI
  // sanitizer job makes that assertion real).
  std::mt19937_64 rng(4242);
  for (int trial = 0; trial < 64; ++trial) {
    std::vector<uint8_t> bad = buffer;
    const size_t bit = rng() % (bad.size() * 8);
    bad[bit / 8] ^= uint8_t{1} << (bit % 8);
    (void)codec.TryDecompress(bad.data(), bad.size(), n, out.data());
  }
}

TEST(CodecHardening, DoubleCodecsSurviveTruncationAndFlips) {
  const std::vector<double> data = CodecData<double>(5150, kVectorSize + 313);
  for (const auto& codec : codecs::AllDoubleCodecs()) {
    CheckCodecHardening(*codec, data);
  }
  CheckCodecHardening(*codecs::MakeFpc(), data);
  CheckCodecHardening(*codecs::MakeLz(), data);
  CheckCodecHardening(*codecs::MakeAlpRdCodec(),
                      HighPrecisionData(5151, kVectorSize + 313));
}

TEST(CodecHardening, FloatCodecsSurviveTruncationAndFlips) {
  const std::vector<float> data = CodecData<float>(6160, kVectorSize + 217);
  for (const auto& codec : codecs::AllFloatCodecs()) {
    CheckCodecHardening(*codec, data);
  }
  CheckCodecHardening(*codecs::MakeAlpCodec32(), data);
}

// ---------------------------------------------------------------------------
// Cascade hardening (alp/cascade.h): every strict prefix and seeded bit
// flips for all three strategies, plus forged header counts, FFOR widths,
// dictionary codes and run lengths. A caller sizes the output from
// CascadeValueCount, so each decode gets exactly that many values and the
// sanitizer job catches any write past them.

/// Byte offsets of the width byte of every FFOR block in a dictionary or
/// RLE cascade buffer, walking the layout CascadeCompress writes: header,
/// length-prefixed nested column, then {count, {width, pad, base, words}...}.
std::vector<size_t> CascadeFforBlocks(const std::vector<uint8_t>& cascade) {
  uint64_t nested_size = 0;
  std::memcpy(&nested_size, cascade.data() + 16, sizeof(nested_size));
  size_t at = (24 + nested_size + 7) / 8 * 8;
  uint64_t count = 0;
  std::memcpy(&count, cascade.data() + at, sizeof(count));
  at += 8;
  std::vector<size_t> blocks;
  for (uint64_t b = 0; b < (count + kVectorSize - 1) / kVectorSize; ++b) {
    blocks.push_back(at);
    at += 16 + size_t{cascade[at]} * 16 * sizeof(uint64_t);
  }
  EXPECT_EQ(at, cascade.size());
  return blocks;
}

/// Decodes \p buffer into CascadeValueCount values. With \p exact, a
/// decode that succeeds must equal \p data bit for bit.
Status DecodeCascade(const std::vector<uint8_t>& buffer,
                     const std::vector<double>& data, bool exact = true) {
  std::vector<double> out(CascadeValueCount(buffer));
  const Status s = CascadeDecompress(buffer, out.data());
  if (s.ok() && exact) {
    EXPECT_EQ(out.size(), data.size());
    EXPECT_EQ(std::memcmp(out.data(), data.data(),
                          std::min(out.size(), data.size()) * sizeof(double)),
              0);
  }
  return s;
}

void CheckCascadeHardening(const std::vector<double>& data, CascadeStrategy want) {
  CascadeStrategy used;
  const std::vector<uint8_t> buffer =
      CascadeCompress(data.data(), data.size(), {}, &used);
  ASSERT_EQ(used, want);
  SCOPED_TRACE(testing::Message() << "strategy " << int{static_cast<uint8_t>(used)});
  const Status full = DecodeCascade(buffer, data);
  ASSERT_TRUE(full.ok()) << full.ToString();

  // Every strict prefix: rejected, or (lost tail was padding) bit-exact.
  for (size_t len = 0; len < buffer.size(); ++len) {
    (void)DecodeCascade(std::vector<uint8_t>(buffer.begin(), buffer.begin() + len),
                        data);
  }

  // Seeded bit flips: memory safety only, since the FFOR codes and run
  // lengths carry no checksum and a flip there can decode to other values.
  // A flipped header count no caller could allocate is skipped: the
  // allocation, not the decode, would fail.
  std::mt19937_64 rng(4343);
  for (int trial = 0; trial < 256; ++trial) {
    std::vector<uint8_t> bad = buffer;
    const size_t bit = rng() % (bad.size() * 8);
    bad[bit / 8] ^= uint8_t{1} << (bit % 8);
    if (CascadeValueCount(bad) > 16 * data.size()) continue;
    (void)DecodeCascade(bad, data, /*exact=*/false);
  }

  // Forged header: a count off by one either way, an unknown strategy.
  for (const int64_t delta : {-1, 1}) {
    std::vector<uint8_t> bad = buffer;
    const uint64_t count = data.size() + delta;
    std::memcpy(bad.data() + 8, &count, sizeof(count));
    EXPECT_EQ(DecodeCascade(bad, data).code(), StatusCode::kCorrupt) << delta;
  }
  std::vector<uint8_t> unknown = buffer;
  unknown[0] = 3;
  EXPECT_EQ(DecodeCascade(unknown, data).code(), StatusCode::kCorrupt);
  if (used == CascadeStrategy::kPlain) return;

  // Forged FFOR blocks (dictionary codes or run lengths).
  const std::vector<size_t> blocks = CascadeFforBlocks(buffer);
  ASSERT_GE(blocks.size(), 2u);
  std::vector<uint8_t> wide = buffer;
  wide[blocks[0]] = 65;  // Past the unpack table.
  EXPECT_EQ(DecodeCascade(wide, data).code(), StatusCode::kCorrupt);
  std::vector<uint8_t> overlong = buffer;
  overlong[blocks.back()] = 64;  // Packed words past the end of the buffer.
  EXPECT_EQ(DecodeCascade(overlong, data).code(), StatusCode::kTruncated);
  std::vector<uint8_t> miscounted = buffer;
  miscounted[blocks[0] - 8] ^= 1;  // The FFOR column's own count.
  EXPECT_EQ(DecodeCascade(miscounted, data).code(), StatusCode::kCorrupt);

  // The base is added to every unpacked value: raising it forges a code
  // past the dictionary or runs longer than the column; lowering it makes
  // the runs fall short of the header count.
  uint64_t base = 0;
  std::memcpy(&base, buffer.data() + blocks[0] + 8, sizeof(base));
  std::vector<uint64_t> forged_bases = {base + data.size()};
  if (used == CascadeStrategy::kRle) forged_bases.push_back(base - 1);
  for (const uint64_t forged : forged_bases) {
    std::vector<uint8_t> bad = buffer;
    std::memcpy(bad.data() + blocks[0] + 8, &forged, sizeof(forged));
    EXPECT_EQ(DecodeCascade(bad, data).code(), StatusCode::kCorrupt) << forged;
  }
}

TEST(CodecHardening, CascadeSurvivesTruncationFlipsAndForgedFields) {
  std::mt19937_64 rng(7070);
  const size_t n = 2 * kVectorSize + 313;
  // Dictionary: 300 distinct prices in random order (duplicates, no runs).
  std::vector<double> prices(300);
  for (auto& p : prices) p = static_cast<double>(rng() % 100000) / 100.0;
  std::vector<double> dict(n);
  for (auto& v : dict) v = prices[rng() % prices.size()];
  CheckCascadeHardening(dict, CascadeStrategy::kDictionary);

  // RLE: runs of 1..16 equal decimals, long enough for two blocks of lengths.
  std::vector<double> runs;
  while (runs.size() < 12 * kVectorSize) {
    runs.insert(runs.end(), 1 + rng() % 16, static_cast<double>(rng() % 10000) / 10.0);
  }
  CheckCascadeHardening(runs, CascadeStrategy::kRle);

  CheckCascadeHardening(CodecData<double>(7171, n), CascadeStrategy::kPlain);
}

}  // namespace
}  // namespace alp
