// Torture tests for the out-of-core column stack: RandomAccessSource
// implementations, the sharded DecodedVectorCache, and SeekableReader's
// chunked fetch -> verify -> open -> decode -> publish pipeline.
//
// The load-bearing invariants proved here:
//  - Byte identity: every seekable read path (point lookup, rowgroup,
//    full scan) returns exactly the bytes the in-memory
//    ColumnReader oracle returns, over memory and pread sources,
//    for v3 and v2 columns, cached and uncached.
//  - Status parity: a mutated or truncated file surfaces the same Status
//    class through the seekable path as through the in-memory validator.
//  - Corruption in an uncached chunk surfaces on first touch and never
//    poisons the cache: nothing is inserted unless the chunk checksum and
//    the structural walk and the vector decode all passed.
//  - The cache stays within its byte budget with LRU eviction order, under
//    1/2/4/8 concurrent readers, and cancellation mid-scan leaves it
//    consistent.
//
// The LargeFile.* tests are the out-of-core CI proof: they stream-write a
// column several times larger than the address-space rlimit the CI job
// scans it under, then verify byte identity via a running checksum (the
// scan itself never holds more than the index region plus one chunk).
// They skip unless ALP_LARGE_FILE_DIR is set.

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "alp/alp.h"
#include "alp/appender.h"
#include "io/decoded_vector_cache.h"
#include "io/random_access_source.h"
#include "io/seekable_reader.h"
#include "obs/metrics.h"
#include "test_fixtures.h"
#include "util/cancellation.h"
#include "util/checksum.h"
#include "util/fault_injection.h"
#include "util/file_io.h"

namespace alp {
namespace {

using io::DecodedVectorCache;
using io::MemorySource;
using io::PreadSource;
using io::RandomAccessSource;
using io::SeekableReader;
using io::SeekableReaderOptions;
using testutil::AlpSmall;
using testutil::Corpus;
using testutil::DecimalData;
using testutil::HighPrecisionData;
using testutil::RdSmall;
using testutil::StripToV2;
using testutil::TwoRowgroups;

struct FaultGuard {
  FaultGuard() { fault::DisarmAll(); }
  ~FaultGuard() {
    fault::DisarmAll();
    fault::SetEnabled(false);
  }
};

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

/// Writes \p buffer to a temp file and returns its path.
std::string WriteTemp(const std::string& name,
                      const std::vector<uint8_t>& buffer) {
  const std::string path = TempPath(name);
  EXPECT_TRUE(WriteFileBytes(path, buffer.data(), buffer.size()));
  return path;
}

// The values print in the parameterized test names; kPread keeps 2 so
// those names stay stable.
enum class SourceKind { kMemory = 0, kPread = 2 };

const char* SourceKindName(SourceKind kind) {
  switch (kind) {
    case SourceKind::kMemory: return "memory";
    case SourceKind::kPread: return "pread";
  }
  return "?";
}

/// Builds a source of the requested kind over \p buffer (file-backed kinds
/// write a temp file named after the test + kind).
std::shared_ptr<RandomAccessSource> MakeSource(
    SourceKind kind, const std::vector<uint8_t>& buffer,
    const std::string& name) {
  switch (kind) {
    case SourceKind::kMemory:
      return std::make_shared<MemorySource>(buffer.data(), buffer.size());
    case SourceKind::kPread: {
      auto source = PreadSource::Open(WriteTemp(name + ".pread.alp", buffer));
      EXPECT_TRUE(source.ok()) << source.status().ToString();
      return source.ok() ? *source : nullptr;
    }
  }
  return nullptr;
}

std::shared_ptr<SeekableReader<double>> OpenSeekable(
    std::shared_ptr<RandomAccessSource> source,
    SeekableReaderOptions options = {}) {
  auto reader = SeekableReader<double>::Open(std::move(source), options);
  EXPECT_TRUE(reader.ok()) << reader.status().ToString();
  return reader.ok() ? *reader : nullptr;
}

/// End-to-end Status of the seekable path on \p buffer: open + full decode.
Status SeekableOutcome(const std::vector<uint8_t>& buffer) {
  auto reader = SeekableReader<double>::Open(
      std::make_shared<MemorySource>(buffer.data(), buffer.size()));
  if (!reader.ok()) return reader.status();
  std::vector<double> out((*reader)->vector_count() * kVectorSize);
  return (*reader)->TryDecodeAll(out.data());
}

/// End-to-end Status of the in-memory oracle on the same bytes.
Status OracleOutcome(const std::vector<uint8_t>& buffer) {
  auto reader = ColumnReader<double>::Open(buffer.data(), buffer.size());
  if (!reader.ok()) return reader.status();
  std::vector<double> out(reader->vector_count() * kVectorSize);
  return reader->TryDecodeAll(out.data());
}

// ---------------------------------------------------------------------------
// RandomAccessSource contracts.

TEST(RandomAccessSource, MemoryPreadAgreeByteForByte) {
  const Corpus& corpus = AlpSmall();
  for (SourceKind kind : {SourceKind::kMemory, SourceKind::kPread}) {
    SCOPED_TRACE(SourceKindName(kind));
    auto source = MakeSource(kind, corpus.buffer, "source_agree");
    ASSERT_NE(source, nullptr);
    EXPECT_EQ(source->size(), corpus.buffer.size());
    std::mt19937_64 rng(7);
    for (int i = 0; i < 200; ++i) {
      const size_t off = rng() % corpus.buffer.size();
      const size_t len =
          1 + rng() % std::min<size_t>(4096, corpus.buffer.size() - off);
      std::vector<uint8_t> got(len);
      ASSERT_TRUE(source->ReadAt(off, len, got.data()).ok());
      EXPECT_EQ(std::memcmp(got.data(), corpus.buffer.data() + off, len), 0);
    }
    // Reads past EOF are kTruncated with the offending offset, not UB.
    uint8_t byte;
    const Status past = source->ReadAt(corpus.buffer.size(), 1, &byte);
    EXPECT_EQ(past.code(), StatusCode::kTruncated);
    const Status straddle =
        source->ReadAt(corpus.buffer.size() - 1, 2, &byte);
    EXPECT_EQ(straddle.code(), StatusCode::kTruncated);
  }
}

TEST(RandomAccessSource, MissingFileIsIoError) {
  EXPECT_EQ(PreadSource::Open(TempPath("nope.alp")).status().code(),
            StatusCode::kIo);
}

// ---------------------------------------------------------------------------
// SeekableReader vs the in-memory oracle.

class SeekableOracleTest : public ::testing::TestWithParam<SourceKind> {};

TEST_P(SeekableOracleTest, MetadataMatchesInMemoryReader) {
  for (const Corpus* corpus : {&AlpSmall(), &RdSmall(), &TwoRowgroups()}) {
    SCOPED_TRACE(corpus->name);
    auto oracle =
        ColumnReader<double>::Open(corpus->buffer.data(), corpus->buffer.size());
    ASSERT_TRUE(oracle.ok());
    auto reader = OpenSeekable(
        MakeSource(GetParam(), corpus->buffer, std::string("meta_") + corpus->name));
    ASSERT_NE(reader, nullptr);
    EXPECT_EQ(reader->value_count(), oracle->value_count());
    EXPECT_EQ(reader->vector_count(), oracle->vector_count());
    EXPECT_EQ(reader->format_version(), oracle->format_version());
    for (size_t v = 0; v < reader->vector_count(); ++v) {
      EXPECT_EQ(reader->VectorLength(v), oracle->VectorLength(v));
      EXPECT_EQ(reader->Stats(v).min, oracle->Stats(v).min);
      EXPECT_EQ(reader->Stats(v).max, oracle->Stats(v).max);
    }
  }
}

TEST_P(SeekableOracleTest, RandomizedSeeksAreByteIdentical) {
  DecodedVectorCache cache(8ull << 20);
  for (const Corpus* corpus : {&AlpSmall(), &RdSmall(), &TwoRowgroups()}) {
    SCOPED_TRACE(corpus->name);
    auto oracle =
        ColumnReader<double>::Open(corpus->buffer.data(), corpus->buffer.size());
    ASSERT_TRUE(oracle.ok());
    // One cached and one cache-less reader, exercised identically: the
    // cache must never change a single byte of any answer.
    SeekableReaderOptions cached_options;
    cached_options.cache = &cache;
    auto cached = OpenSeekable(
        MakeSource(GetParam(), corpus->buffer, std::string("seek_") + corpus->name),
        cached_options);
    auto uncached = OpenSeekable(
        MakeSource(GetParam(), corpus->buffer,
                   std::string("seek_nc_") + corpus->name));
    ASSERT_NE(cached, nullptr);
    ASSERT_NE(uncached, nullptr);

    std::mt19937_64 rng(0xA1B2C3);
    std::vector<double> expect(kVectorSize);
    std::vector<double> got(kVectorSize);
    for (int i = 0; i < 400; ++i) {
      const size_t v = rng() % oracle->vector_count();
      const unsigned len = oracle->VectorLength(v);
      ASSERT_TRUE(oracle->TryDecodeVector(v, expect.data()).ok());
      for (auto* reader : {cached.get(), uncached.get()}) {
        std::fill(got.begin(), got.end(), -1.0);
        ASSERT_TRUE(reader->TryDecodeVector(v, got.data()).ok());
        ASSERT_EQ(std::memcmp(got.data(), expect.data(), len * sizeof(double)),
                  0)
            << "vector " << v << " iteration " << i;
      }
    }

    // Rowgroup reads and the full scan agree too.
    const size_t rowgroups = (oracle->vector_count() + kRowgroupVectors - 1) /
                             kRowgroupVectors;
    std::vector<double> expect_rg(kRowgroupSize);
    std::vector<double> got_rg(kRowgroupSize);
    for (size_t rg = 0; rg < rowgroups; ++rg) {
      const size_t first = rg * kRowgroupVectors;
      const size_t count =
          std::min<size_t>(kRowgroupVectors, oracle->vector_count() - first);
      for (size_t lv = 0; lv < count; ++lv) {
        ASSERT_TRUE(oracle
                        ->TryDecodeVector(first + lv,
                                          expect_rg.data() + lv * kVectorSize)
                        .ok());
      }
      for (auto* reader : {cached.get(), uncached.get()}) {
        ASSERT_TRUE(reader->TryDecodeRowgroup(rg, got_rg.data()).ok());
        const uint64_t rg_values = reader->RowgroupValueCount(rg);
        for (size_t lv = 0; lv < count; ++lv) {
          const unsigned len = reader->VectorLength(first + lv);
          ASSERT_EQ(std::memcmp(got_rg.data() + lv * kVectorSize,
                                expect_rg.data() + lv * kVectorSize,
                                len * sizeof(double)),
                    0);
        }
        ASSERT_GT(rg_values, 0u);
      }
    }

    std::vector<double> all_expect(oracle->vector_count() * kVectorSize);
    std::vector<double> all_got(all_expect.size());
    ASSERT_TRUE(oracle->TryDecodeAll(all_expect.data()).ok());
    for (auto* reader : {cached.get(), uncached.get()}) {
      std::fill(all_got.begin(), all_got.end(), -1.0);
      ASSERT_TRUE(reader->TryDecodeAll(all_got.data()).ok());
      ASSERT_EQ(std::memcmp(all_got.data(), all_expect.data(),
                            corpus->values.size() * sizeof(double)),
                0);
    }
  }
  EXPECT_TRUE(cache.CheckInvariants());
}

TEST_P(SeekableOracleTest, V2ColumnsDecodeIdentically) {
  for (const Corpus* corpus : {&AlpSmall(), &TwoRowgroups()}) {
    SCOPED_TRACE(corpus->name);
    const std::vector<uint8_t> v2 = StripToV2(corpus->buffer);
    auto reader = OpenSeekable(
        MakeSource(GetParam(), v2, std::string("v2_") + corpus->name));
    ASSERT_NE(reader, nullptr);
    EXPECT_EQ(reader->format_version(), 2);
    std::vector<double> out(reader->vector_count() * kVectorSize);
    ASSERT_TRUE(reader->TryDecodeAll(out.data()).ok());
    EXPECT_EQ(std::memcmp(out.data(), corpus->values.data(),
                          corpus->values.size() * sizeof(double)),
              0);
  }
}

INSTANTIATE_TEST_SUITE_P(AllSources, SeekableOracleTest,
                         ::testing::Values(SourceKind::kMemory,
                                           SourceKind::kPread),
                         [](const auto& info) {
                           return SourceKindName(info.param);
                         });

// ---------------------------------------------------------------------------
// Status parity with the in-memory validator on damaged inputs.

TEST(SeekableStatusParity, TruncationsMatchOracleStatusClass) {
  const Corpus& corpus = TwoRowgroups();
  std::mt19937_64 rng(42);
  std::vector<size_t> cuts = {0, 1, 8, 23, 24, 25};
  for (int i = 0; i < 60; ++i) cuts.push_back(rng() % corpus.buffer.size());
  for (size_t cut : cuts) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    std::vector<uint8_t> truncated(corpus.buffer.begin(),
                                   corpus.buffer.begin() + cut);
    const Status seekable = SeekableOutcome(truncated);
    const Status oracle = OracleOutcome(truncated);
    EXPECT_FALSE(seekable.ok());
    EXPECT_EQ(seekable.code(), oracle.code())
        << "seekable: " << seekable.ToString()
        << " oracle: " << oracle.ToString();
  }
}

TEST(SeekableStatusParity, ByteFlipsMatchOracleStatusClass) {
  // Flip every byte of the small corpus (and a seeded sample of the larger
  // one): whatever the in-memory validator concludes, the seekable path
  // must conclude the same Status class — and when both accept, both must
  // round-trip the original values.
  const auto check = [](const Corpus& corpus, size_t at) {
    std::vector<uint8_t> mutated = corpus.buffer;
    mutated[at] ^= 0x40;
    const Status seekable = SeekableOutcome(mutated);
    const Status oracle = OracleOutcome(mutated);
    ASSERT_EQ(seekable.code(), oracle.code())
        << "byte " << at << " seekable: " << seekable.ToString()
        << " oracle: " << oracle.ToString();
  };
  const Corpus& small = AlpSmall();
  for (size_t at = 0; at < small.buffer.size(); ++at) {
    check(small, at);
  }
  const Corpus& big = TwoRowgroups();
  std::mt19937_64 rng(43);
  for (int i = 0; i < 200; ++i) {
    check(big, rng() % big.buffer.size());
  }
}

TEST(SeekableStatusParity, OutOfRangeIndexesMatchOracle) {
  const Corpus& corpus = AlpSmall();
  auto oracle =
      ColumnReader<double>::Open(corpus.buffer.data(), corpus.buffer.size());
  ASSERT_TRUE(oracle.ok());
  auto reader = OpenSeekable(
      std::make_shared<MemorySource>(corpus.buffer.data(), corpus.buffer.size()));
  ASSERT_NE(reader, nullptr);
  std::vector<double> out(kRowgroupSize);
  const Status seekable_vec =
      reader->TryDecodeVector(reader->vector_count(), out.data());
  const Status oracle_vec =
      oracle->TryDecodeVector(oracle->vector_count(), out.data());
  EXPECT_EQ(seekable_vec.code(), oracle_vec.code());
  EXPECT_EQ(seekable_vec.code(), StatusCode::kCorrupt);
  EXPECT_EQ(reader->TryDecodeRowgroup(reader->rowgroup_count(), out.data())
                .code(),
            StatusCode::kCorrupt);
}

TEST(SeekableStatusParity, CancellationAndDeadlineShortCircuit) {
  const Corpus& corpus = TwoRowgroups();
  auto reader = OpenSeekable(
      std::make_shared<MemorySource>(corpus.buffer.data(), corpus.buffer.size()));
  ASSERT_NE(reader, nullptr);
  std::vector<double> out(reader->vector_count() * kVectorSize);

  CancelToken cancel;
  cancel.Cancel();
  OpContext cancelled;
  cancelled.cancel = &cancel;
  EXPECT_EQ(reader->TryDecodeAll(out.data(), &cancelled).code(),
            StatusCode::kCancelled);
  EXPECT_EQ(reader->TryDecodeVector(0, out.data(), &cancelled).code(),
            StatusCode::kCancelled);

  OpContext late;
  late.deadline = Deadline::After(std::chrono::nanoseconds(0));
  EXPECT_EQ(reader->TryDecodeAll(out.data(), &late).code(),
            StatusCode::kDeadlineExceeded);
}

// ---------------------------------------------------------------------------
// Fault sites: io.chunk_read on the consume path.

TEST(SeekableFaults, ChunkReadFaultSurfacesAndHeals) {
  FaultGuard guard;
  const Corpus& corpus = TwoRowgroups();
  auto reader = OpenSeekable(
      std::make_shared<MemorySource>(corpus.buffer.data(), corpus.buffer.size()));
  ASSERT_NE(reader, nullptr);
  std::vector<double> out(reader->vector_count() * kVectorSize);

  fault::FaultSpec spec;
  spec.code = StatusCode::kIo;
  spec.message = "injected chunk-read fault";
  fault::Arm("io.chunk_read", spec);
  EXPECT_EQ(reader->TryDecodeAll(out.data()).code(), StatusCode::kIo);
  fault::Disarm("io.chunk_read");

  // The fault injected nothing durable: the very next scan succeeds and is
  // byte-identical.
  ASSERT_TRUE(reader->TryDecodeAll(out.data()).ok());
  EXPECT_EQ(std::memcmp(out.data(), corpus.values.data(),
                        corpus.values.size() * sizeof(double)),
            0);
}

TEST(SeekableFaults, CacheEvictFaultDeclinesInsertWithoutCorruption) {
  FaultGuard guard;
  // Capacity of two full vectors in one shard, so the third insert must
  // evict — which is exactly where the fault fires.
  DecodedVectorCache cache(2 * kVectorSize * sizeof(double), 1);
  const auto entry = [](double fill) {
    std::vector<uint8_t> bytes(kVectorSize * sizeof(double));
    std::vector<double> values(kVectorSize, fill);
    std::memcpy(bytes.data(), values.data(), bytes.size());
    return std::make_shared<const std::vector<uint8_t>>(std::move(bytes));
  };
  cache.Insert(1, 0, entry(0.0));
  cache.Insert(1, 1, entry(1.0));
  ASSERT_EQ(cache.TotalStats().entries, 2u);

  fault::FaultSpec spec;
  spec.code = StatusCode::kResourceExhausted;
  fault::Arm("io.cache_evict", spec);
  cache.Insert(1, 2, entry(2.0));
  fault::Disarm("io.cache_evict");

  // The insert was declined (never half-applied): both residents intact,
  // the newcomer absent, invariants hold.
  const DecodedVectorCache::Stats stats = cache.TotalStats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_GE(stats.rejected, 1u);
  EXPECT_EQ(cache.Lookup(1, 2), nullptr);
  ASSERT_NE(cache.Lookup(1, 0), nullptr);
  ASSERT_NE(cache.Lookup(1, 1), nullptr);
  EXPECT_TRUE(cache.CheckInvariants());

  // With the fault gone the same insert evicts normally.
  cache.Insert(1, 2, entry(2.0));
  EXPECT_NE(cache.Lookup(1, 2), nullptr);
  EXPECT_EQ(cache.TotalStats().evictions, 1u);
  EXPECT_TRUE(cache.CheckInvariants());
}

// ---------------------------------------------------------------------------
// Corruption vs the cache: surfaces on first touch, never poisons.

TEST(SeekableCorruption, UncachedChunkCorruptionSurfacesOnFirstTouch) {
  const Corpus& corpus = TwoRowgroups();
  std::vector<uint8_t> buffer = corpus.buffer;  // Mutable copy.
  DecodedVectorCache cache(64ull << 20);
  SeekableReaderOptions options;
  options.cache = &cache;
  auto reader = OpenSeekable(
      std::make_shared<MemorySource>(buffer.data(), buffer.size()), options);
  ASSERT_NE(reader, nullptr);
  ASSERT_EQ(reader->rowgroup_count(), 2u);

  // Warm rowgroup 0 while the file is intact.
  std::vector<double> out(kRowgroupSize);
  ASSERT_TRUE(reader->TryDecodeRowgroup(0, out.data()).ok());
  const uint64_t inserts_after_rg0 = cache.TotalStats().inserts;
  ASSERT_GT(inserts_after_rg0, 0u);

  // Corrupt a payload byte inside rowgroup 1 — which no one has touched,
  // so nothing of it can be cached yet.
  const uint64_t rg1_begin = reader->index().rowgroup_offsets[1];
  const size_t victim = static_cast<size_t>(rg1_begin) + 64;
  ASSERT_LT(victim, buffer.size());
  buffer[victim] ^= 0xFF;

  // First touch of the damaged chunk: checksum mismatch, and repeatably so.
  const size_t rg1_first_vector = 1 * kRowgroupVectors;
  for (int attempt = 0; attempt < 3; ++attempt) {
    EXPECT_EQ(reader->TryDecodeRowgroup(1, out.data()).code(),
              StatusCode::kChecksumMismatch);
    EXPECT_EQ(reader->TryDecodeVector(rg1_first_vector, out.data()).code(),
              StatusCode::kChecksumMismatch);
  }
  // Nothing from the failed attempts entered the cache...
  EXPECT_EQ(cache.TotalStats().inserts, inserts_after_rg0);
  EXPECT_TRUE(cache.CheckInvariants());
  // ...and rowgroup 0 still serves, from cache, byte-identically.
  ASSERT_TRUE(reader->TryDecodeRowgroup(0, out.data()).ok());
  EXPECT_EQ(std::memcmp(out.data(), corpus.values.data(),
                        reader->RowgroupValueCount(0) * sizeof(double)),
            0);

  // Heal the byte: the chunk decodes correctly — proof no poisoned entry
  // was left behind to satisfy the read.
  buffer[victim] ^= 0xFF;
  ASSERT_TRUE(reader->TryDecodeRowgroup(1, out.data()).ok());
  EXPECT_EQ(std::memcmp(out.data(), corpus.values.data() + kRowgroupSize,
                        reader->RowgroupValueCount(1) * sizeof(double)),
            0);
}

TEST(SeekableCorruption, StructuralCorruptionPastChecksumNeverPoisons) {
  // Defeat the checksum on purpose (corrupt the chunk, then re-sign it and
  // the header) so the *structural* validation inside OpenRowgroupChunk is
  // what has to catch the damage — and prove that path inserts nothing.
  const Corpus& corpus = TwoRowgroups();
  std::vector<uint8_t> buffer = corpus.buffer;
  auto probe = OpenSeekable(
      std::make_shared<MemorySource>(buffer.data(), buffer.size()));
  ASSERT_NE(probe, nullptr);
  const auto& index = probe->index();
  ASSERT_EQ(index.rowgroup_offsets.size(), 2u);
  const uint64_t rg1_begin = index.rowgroup_offsets[1];
  const uint64_t rg1_end = buffer.size();

  // Zero the rowgroup's vector-offset table region (just past its 8-byte
  // RowgroupHeader): structurally invalid, checksum-valid after re-signing.
  for (size_t i = 0; i < 16; ++i) buffer[rg1_begin + 8 + i] = 0xEE;
  const uint64_t new_checksum =
      Checksum64(buffer.data() + rg1_begin, rg1_end - rg1_begin);
  const size_t checksums_at = 24 + index.rowgroup_offsets.size() * 8;
  std::memcpy(buffer.data() + checksums_at + 1 * 8, &new_checksum, 8);
  const size_t header_checksum_at = index.payload_begin - 8;
  const uint64_t new_header_checksum =
      Checksum64(buffer.data(), header_checksum_at);
  std::memcpy(buffer.data() + header_checksum_at, &new_header_checksum, 8);

  DecodedVectorCache cache(64ull << 20);
  SeekableReaderOptions options;
  options.cache = &cache;
  auto reader = OpenSeekable(
      std::make_shared<MemorySource>(buffer.data(), buffer.size()), options);
  ASSERT_NE(reader, nullptr);

  std::vector<double> out(kRowgroupSize);
  ASSERT_TRUE(reader->TryDecodeRowgroup(0, out.data()).ok());
  const uint64_t inserts_after_rg0 = cache.TotalStats().inserts;

  EXPECT_EQ(reader->TryDecodeRowgroup(1, out.data()).code(),
            StatusCode::kCorrupt);
  EXPECT_EQ(cache.TotalStats().inserts, inserts_after_rg0);
  EXPECT_TRUE(cache.CheckInvariants());
}

// ---------------------------------------------------------------------------
// Cache capacity bounds and LRU eviction order.

std::shared_ptr<const std::vector<uint8_t>> CacheEntry(size_t bytes,
                                                       uint8_t fill) {
  return std::make_shared<const std::vector<uint8_t>>(bytes, fill);
}

TEST(DecodedVectorCache, StaysWithinCapacityWithLruEvictionOrder) {
  const size_t entry_bytes = kVectorSize * sizeof(double);
  DecodedVectorCache cache(4 * entry_bytes, 1);  // One shard: global order.
  for (uint64_t v = 0; v < 6; ++v) {
    cache.Insert(9, v, CacheEntry(entry_bytes, static_cast<uint8_t>(v)));
    EXPECT_TRUE(cache.CheckInvariants());
    EXPECT_LE(cache.TotalStats().bytes, 4 * entry_bytes);
  }
  // 6 inserts into room for 4: vectors 0 and 1 (the least recent) are gone.
  DecodedVectorCache::Stats stats = cache.TotalStats();
  EXPECT_EQ(stats.entries, 4u);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(cache.Lookup(9, 0), nullptr);
  EXPECT_EQ(cache.Lookup(9, 1), nullptr);
  ASSERT_NE(cache.Lookup(9, 2), nullptr);

  // MRU-first order after that Lookup(2): 2, then 5, 4, 3.
  std::vector<DecodedVectorCache::Key> keys = cache.ShardKeysMruFirst(0);
  ASSERT_EQ(keys.size(), 4u);
  EXPECT_EQ(keys[0].vector, 2u);
  EXPECT_EQ(keys[1].vector, 5u);
  EXPECT_EQ(keys[2].vector, 4u);
  EXPECT_EQ(keys[3].vector, 3u);

  // The next insert evicts the LRU (vector 3), not the recently-touched 2.
  cache.Insert(9, 6, CacheEntry(entry_bytes, 6));
  EXPECT_EQ(cache.Lookup(9, 3), nullptr);
  ASSERT_NE(cache.Lookup(9, 2), nullptr);
  EXPECT_TRUE(cache.CheckInvariants());
}

TEST(DecodedVectorCache, ZeroCapacityCachesNothing) {
  DecodedVectorCache cache(0);
  cache.Insert(1, 0, CacheEntry(64, 1));
  EXPECT_EQ(cache.Lookup(1, 0), nullptr);
  const DecodedVectorCache::Stats stats = cache.TotalStats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_TRUE(cache.CheckInvariants());
}

TEST(DecodedVectorCache, OversizedAndNullEntriesAreRejected) {
  DecodedVectorCache cache(1024, 1);
  cache.Insert(1, 0, nullptr);
  cache.Insert(1, 1, CacheEntry(0, 0));
  cache.Insert(1, 2, CacheEntry(4096, 0));  // Larger than the whole shard.
  const DecodedVectorCache::Stats stats = cache.TotalStats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_GE(stats.rejected, 3u);
  EXPECT_TRUE(cache.CheckInvariants());
}

TEST(DecodedVectorCache, ReinsertRefreshesRecencyKeepingFirstValue) {
  const size_t entry_bytes = 128;
  DecodedVectorCache cache(4 * entry_bytes, 1);
  cache.Insert(1, 0, CacheEntry(entry_bytes, 0xAA));
  cache.Insert(1, 1, CacheEntry(entry_bytes, 0xBB));
  // Concurrent decoders race to insert the same key: first write wins, the
  // loser's bytes are dropped (both decoded the same verified chunk, so
  // the values are identical anyway — this just pins the accounting).
  cache.Insert(1, 0, CacheEntry(entry_bytes, 0xCC));
  auto hit = cache.Lookup(1, 0);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ((*hit)[0], 0xAA);
  EXPECT_EQ(cache.TotalStats().entries, 2u);
  // But the re-insert refreshed recency: key 1 is now the LRU.
  std::vector<DecodedVectorCache::Key> keys = cache.ShardKeysMruFirst(0);
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys.back().vector, 1u);
  EXPECT_TRUE(cache.CheckInvariants());
}

TEST(SeekableCache, ScanStaysWithinTinyBudget) {
  // A cache an order of magnitude smaller than the column: scans keep
  // evicting, the budget holds at every step, and answers stay identical.
  const Corpus& corpus = TwoRowgroups();
  const size_t capacity = 8 * kVectorSize * sizeof(double);
  DecodedVectorCache cache(capacity, 1);
  SeekableReaderOptions options;
  options.cache = &cache;
  auto reader = OpenSeekable(
      std::make_shared<MemorySource>(corpus.buffer.data(), corpus.buffer.size()),
      options);
  ASSERT_NE(reader, nullptr);
  std::vector<double> out(reader->vector_count() * kVectorSize);
  for (int pass = 0; pass < 3; ++pass) {
    ASSERT_TRUE(reader->TryDecodeAll(out.data()).ok());
    EXPECT_EQ(std::memcmp(out.data(), corpus.values.data(),
                          corpus.values.size() * sizeof(double)),
              0);
    EXPECT_LE(cache.TotalStats().bytes, capacity);
    EXPECT_TRUE(cache.CheckInvariants());
  }
  EXPECT_GT(cache.TotalStats().evictions, 0u);
}

// ---------------------------------------------------------------------------
// Cache-off determinism against the committed golden files (satellite: a
// capacity-0 cache must not change one byte or one Status).

TEST(SeekableGolden, CacheOffScansAreByteIdenticalOnGoldenFiles) {
  for (const char* name : {"alp_small.alp", "rd_small.alp", "alp_small_v2.alp"}) {
    SCOPED_TRACE(name);
    const std::string path = std::string(ALP_GOLDEN_DIR) + "/" + name;
    const auto bytes = ReadFileBytes(path);
    ASSERT_TRUE(bytes.has_value()) << path;

    auto oracle = ColumnReader<double>::Open(bytes->data(), bytes->size());
    ASSERT_TRUE(oracle.ok());
    std::vector<double> expect(oracle->vector_count() * kVectorSize);
    const Status oracle_status = oracle->TryDecodeAll(expect.data());
    ASSERT_TRUE(oracle_status.ok());

    DecodedVectorCache cache(0);  // Capacity zero: caching fully disabled.
    SeekableReaderOptions options;
    options.cache = &cache;
    auto pread = PreadSource::Open(path);
    ASSERT_TRUE(pread.ok());
    auto reader = OpenSeekable(*pread, options);
    ASSERT_NE(reader, nullptr);

    std::vector<double> first(expect.size());
    std::vector<double> second(expect.size());
    const Status s1 = reader->TryDecodeAll(first.data());
    const Status s2 = reader->TryDecodeAll(second.data());
    EXPECT_EQ(s1.code(), oracle_status.code());
    EXPECT_EQ(s2.code(), oracle_status.code());
    EXPECT_EQ(std::memcmp(first.data(), expect.data(),
                          oracle->value_count() * sizeof(double)),
              0);
    EXPECT_EQ(std::memcmp(second.data(), expect.data(),
                          oracle->value_count() * sizeof(double)),
              0);
    // Nothing was cached, counted, or retained.
    const DecodedVectorCache::Stats stats = cache.TotalStats();
    EXPECT_EQ(stats.entries, 0u);
    EXPECT_EQ(stats.inserts, 0u);
    EXPECT_EQ(stats.bytes, 0u);
  }
}

// ---------------------------------------------------------------------------
// Concurrency: shared cache under 1/2/4/8 readers, cancellation mid-scan.

TEST(SeekableConcurrency, ConcurrentReadersShareOneCacheConsistently) {
  const Corpus& corpus = TwoRowgroups();
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    // Small single-shard cache: every thread contends on one LRU list and
    // evictions happen constantly — the worst case for consistency.
    const size_t capacity = 16 * kVectorSize * sizeof(double);
    DecodedVectorCache cache(capacity, 1);
    SeekableReaderOptions options;
    options.cache = &cache;
    auto reader = OpenSeekable(
        std::make_shared<MemorySource>(corpus.buffer.data(),
                                       corpus.buffer.size()),
        options);
    ASSERT_NE(reader, nullptr);

    std::atomic<int> mismatches{0};
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        std::mt19937_64 rng(1000 + t);
        std::vector<double> got(kRowgroupSize);
        for (int i = 0; i < 300; ++i) {
          const size_t v = rng() % reader->vector_count();
          const unsigned len = reader->VectorLength(v);
          if (!reader->TryDecodeVector(v, got.data()).ok() ||
              std::memcmp(got.data(),
                          corpus.values.data() + v * kVectorSize,
                          len * sizeof(double)) != 0) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
        // One full rowgroup read per thread for the multi-vector path.
        const size_t rg = t % reader->rowgroup_count();
        if (!reader->TryDecodeRowgroup(rg, got.data()).ok() ||
            std::memcmp(got.data(),
                        corpus.values.data() + rg * kRowgroupSize,
                        reader->RowgroupValueCount(rg) * sizeof(double)) != 0) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (auto& worker : workers) worker.join();
    EXPECT_EQ(mismatches.load(), 0);
    EXPECT_LE(cache.TotalStats().bytes, capacity);
    EXPECT_TRUE(cache.CheckInvariants());
  }
}

#if ALP_OBS
TEST(SeekableConcurrency, RegistryCountersMatchCacheStatsUnderContention) {
  // The registry's io.cache.* counters and DecodedVectorCache::Stats are
  // maintained by independent mechanisms (sharded global atomics vs.
  // per-shard locked tallies). This proves they agree *exactly* — not
  // approximately — after 8 readers hammer one small cache with mixed
  // hit / miss / evict traffic. A drifting pair would make the Prometheus
  // export silently disagree with Server::cache_stats().
  const Corpus& corpus = TwoRowgroups();
  const bool was_enabled = obs::Enabled();
  obs::SetEnabled(true);

  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  obs::Counter& hit = registry.GetCounter("io.cache.hit");
  obs::Counter& miss = registry.GetCounter("io.cache.miss");
  obs::Counter& evict = registry.GetCounter("io.cache.evict");
  obs::Counter& insert = registry.GetCounter("io.cache.insert");
  const uint64_t hit0 = hit.Total();
  const uint64_t miss0 = miss.Total();
  const uint64_t evict0 = evict.Total();
  const uint64_t insert0 = insert.Total();

  {
    // Small enough to evict constantly, single shard for maximal
    // contention on one LRU list.
    const size_t capacity = 12 * kVectorSize * sizeof(double);
    DecodedVectorCache cache(capacity, 1);
    SeekableReaderOptions options;
    options.cache = &cache;
    auto reader = OpenSeekable(
        std::make_shared<MemorySource>(corpus.buffer.data(),
                                       corpus.buffer.size()),
        options);
    ASSERT_NE(reader, nullptr);

    std::vector<std::thread> workers;
    std::atomic<int> failures{0};
    for (unsigned t = 0; t < 8; ++t) {
      workers.emplace_back([&, t] {
        std::mt19937_64 rng(7000 + t);
        std::vector<double> got(kVectorSize);
        for (int i = 0; i < 400; ++i) {
          // Skewed access: a hot front half (hits) plus a uniform tail
          // (misses + evictions).
          const size_t range = i % 2 == 0 ? reader->vector_count() / 2 + 1
                                          : reader->vector_count();
          const size_t v = rng() % range;
          if (!reader->TryDecodeVector(v, got.data()).ok()) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (auto& worker : workers) worker.join();
    EXPECT_EQ(failures.load(), 0);

    const DecodedVectorCache::Stats stats = cache.TotalStats();
    // Sanity: the workload really did mix all three kinds of traffic.
    EXPECT_GT(stats.hits, 0u);
    EXPECT_GT(stats.misses, 0u);
    EXPECT_GT(stats.evictions, 0u);
    // Exact agreement, counter by counter.
    EXPECT_EQ(hit.Total() - hit0, stats.hits);
    EXPECT_EQ(miss.Total() - miss0, stats.misses);
    EXPECT_EQ(evict.Total() - evict0, stats.evictions);
    EXPECT_EQ(insert.Total() - insert0, stats.inserts);
    EXPECT_TRUE(cache.CheckInvariants());
  }

  obs::SetEnabled(was_enabled);
}
#endif  // ALP_OBS

TEST(SeekableConcurrency, TwoColumnsNeverAliasInASharedCache) {
  // Distinct readers get distinct cache-key namespaces even over identical
  // bytes: warming one column must not let the other hit.
  const Corpus& corpus = AlpSmall();
  DecodedVectorCache cache(64ull << 20);
  SeekableReaderOptions options;
  options.cache = &cache;
  auto a = OpenSeekable(std::make_shared<MemorySource>(corpus.buffer.data(),
                                                       corpus.buffer.size()),
                        options);
  auto b = OpenSeekable(std::make_shared<MemorySource>(corpus.buffer.data(),
                                                       corpus.buffer.size()),
                        options);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a->column_id(), b->column_id());

  std::vector<double> out(a->vector_count() * kVectorSize);
  ASSERT_TRUE(a->TryDecodeAll(out.data()).ok());
  const uint64_t misses_after_a = cache.TotalStats().misses;
  ASSERT_TRUE(b->TryDecodeAll(out.data()).ok());
  // b's pass saw only misses of its own: a's warm entries were invisible.
  EXPECT_GT(cache.TotalStats().misses, misses_after_a);
  EXPECT_TRUE(cache.CheckInvariants());
}

TEST(SeekableConcurrency, CancellationMidScanLeavesCacheConsistent) {
  const Corpus& corpus = TwoRowgroups();
  DecodedVectorCache cache(64ull << 20);
  SeekableReaderOptions options;
  options.cache = &cache;
  auto reader = OpenSeekable(
      std::make_shared<MemorySource>(corpus.buffer.data(), corpus.buffer.size()),
      options);
  ASSERT_NE(reader, nullptr);

  // TwoRowgroups has 104 vectors; cancel points span first touch, early in
  // rowgroup 0, and rowgroup 1.
  for (int cancel_after : {0, 1, 17, 99}) {
    SCOPED_TRACE("cancel_after=" + std::to_string(cancel_after));
    cache.Clear();
    CancelToken cancel;
    OpContext ctx;
    ctx.cancel = &cancel;
    int visits = 0;
    const Status s = reader->Scan(
        [&](size_t, const double*, unsigned) {
          if (++visits > cancel_after) cancel.Cancel();
          return Status::Ok();
        },
        &ctx);
    // Cancelling from inside the visitor is observed at the next vector
    // checkpoint.
    EXPECT_EQ(s.code(), StatusCode::kCancelled);
    EXPECT_TRUE(cache.CheckInvariants());

    // A fresh, uncancelled scan completes and is byte-identical: whatever
    // the cancelled scan left in the cache is valid.
    std::vector<double> out(reader->vector_count() * kVectorSize);
    ASSERT_TRUE(reader->TryDecodeAll(out.data()).ok());
    EXPECT_EQ(std::memcmp(out.data(), corpus.values.data(),
                          corpus.values.size() * sizeof(double)),
              0);
    EXPECT_TRUE(cache.CheckInvariants());
  }
}

// ---------------------------------------------------------------------------
// Out-of-core proof: a column larger than the scanning process's address
// budget, written rowgroup-at-a-time, scanned chunk-at-a-time.
//
// CI runs Prepare unconstrained, then ScanByteIdentical in a separate
// process under `ulimit -v` with a budget a quarter of the file size.
// Neither runs without ALP_LARGE_FILE_DIR.

/// Streams a deterministic high-precision column of \p values values to
/// \p path, holding at most one raw rowgroup plus one compressed segment
/// in memory. Returns the XXH64 of the raw value bytes (the scan's
/// byte-identity oracle).
uint64_t WriteLargeColumn(const std::string& path, uint64_t values) {
  const size_t rowgroups =
      static_cast<size_t>((values + kRowgroupSize - 1) / kRowgroupSize);
  const std::string payload_path = path + ".payload";
  std::FILE* payload = std::fopen(payload_path.c_str(), "wb");
  EXPECT_NE(payload, nullptr);

  std::vector<uint64_t> sizes(rowgroups);       // Padded segment sizes.
  std::vector<uint64_t> checksums(rowgroups);   // Over the padded segment.
  std::vector<VectorStats> stats;
  Checksum64Stream data_checksum;
  static const uint8_t kPad[8] = {0};
  for (size_t rg = 0; rg < rowgroups; ++rg) {
    const uint64_t begin = uint64_t{rg} * kRowgroupSize;
    const size_t len =
        static_cast<size_t>(std::min<uint64_t>(kRowgroupSize, values - begin));
    // Unique data per rowgroup, reproducible by the scanner via the seed.
    const std::vector<double> raw = HighPrecisionData(begin, len);
    data_checksum.Update(raw.data(), len * sizeof(double));
    std::vector<uint8_t> segment =
        internal::CompressRowgroupSegment<double>(raw.data(), len, {}, &stats,
                                                  nullptr);
    const size_t padding = (8 - segment.size() % 8) % 8;
    EXPECT_EQ(std::fwrite(segment.data(), 1, segment.size(), payload),
              segment.size());
    if (padding > 0) {
      EXPECT_EQ(std::fwrite(kPad, 1, padding, payload), padding);
    }
    Checksum64Stream rg_checksum;
    rg_checksum.Update(segment.data(), segment.size());
    rg_checksum.Update(kPad, padding);
    sizes[rg] = segment.size() + padding;
    checksums[rg] = rg_checksum.Finish();
  }
  EXPECT_EQ(std::fclose(payload), 0);

  // Assemble the index region in memory (it is what the reader keeps
  // resident, a few MB at most) and prepend it to the streamed payload.
  const size_t total_vectors =
      static_cast<size_t>((values + kVectorSize - 1) / kVectorSize);
  EXPECT_EQ(stats.size(), total_vectors);
  const size_t offsets_at = 24;
  const size_t checksums_at = offsets_at + rowgroups * 8;
  const size_t stats_at = checksums_at + rowgroups * 8;
  const size_t header_checksum_at = stats_at + total_vectors * sizeof(VectorStats);
  const size_t payload_begin = header_checksum_at + 8;

  std::vector<uint8_t> index(payload_begin, 0);
  const uint32_t magic = 0x43504C41;  // "ALPC".
  std::memcpy(index.data(), &magic, 4);
  index[4] = 3;  // version
  index[5] = 0;  // type: double
  std::memcpy(index.data() + 8, &values, 8);
  const uint32_t rg_count32 = static_cast<uint32_t>(rowgroups);
  std::memcpy(index.data() + 16, &rg_count32, 4);
  uint64_t offset = payload_begin;
  for (size_t rg = 0; rg < rowgroups; ++rg) {
    std::memcpy(index.data() + offsets_at + rg * 8, &offset, 8);
    std::memcpy(index.data() + checksums_at + rg * 8, &checksums[rg], 8);
    offset += sizes[rg];
  }
  std::memcpy(index.data() + stats_at, stats.data(),
              total_vectors * sizeof(VectorStats));
  const uint64_t header_checksum = Checksum64(index.data(), header_checksum_at);
  std::memcpy(index.data() + header_checksum_at, &header_checksum, 8);

  std::FILE* out = std::fopen(path.c_str(), "wb");
  EXPECT_NE(out, nullptr);
  EXPECT_EQ(std::fwrite(index.data(), 1, index.size(), out), index.size());
  std::FILE* in = std::fopen(payload_path.c_str(), "rb");
  EXPECT_NE(in, nullptr);
  std::vector<uint8_t> copy_buffer(1 << 20);
  size_t n;
  while ((n = std::fread(copy_buffer.data(), 1, copy_buffer.size(), in)) > 0) {
    EXPECT_EQ(std::fwrite(copy_buffer.data(), 1, n, out), n);
  }
  std::fclose(in);
  EXPECT_EQ(std::fclose(out), 0);
  std::remove(payload_path.c_str());
  return data_checksum.Finish();
}

const char* LargeFileDir() { return std::getenv("ALP_LARGE_FILE_DIR"); }

TEST(LargeFile, Prepare) {
  const char* dir = LargeFileDir();
  if (dir == nullptr) GTEST_SKIP() << "set ALP_LARGE_FILE_DIR to enable";
  uint64_t values = 16 * uint64_t{kRowgroupSize} + 4321;
  if (const char* env = std::getenv("ALP_LARGE_FILE_VALUES")) {
    values = std::strtoull(env, nullptr, 10);
    ASSERT_GT(values, 0u);
  }
  const std::string path = std::string(dir) + "/large_column.alp";
  const uint64_t checksum = WriteLargeColumn(path, values);
  // The expected raw-data checksum travels beside the file so the scan
  // process (which must not regenerate 1GB of data under its rlimit...
  // actually regeneration is cheap, but the contract is byte identity with
  // what the WRITER hashed) can verify without holding anything.
  const std::string expect_path = path + ".expect";
  std::FILE* f = std::fopen(expect_path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(&checksum, 1, 8, f), 8u);
  ASSERT_EQ(std::fwrite(&values, 1, 8, f), 8u);
  ASSERT_EQ(std::fclose(f), 0);
}

TEST(LargeFile, ScanByteIdentical) {
  const char* dir = LargeFileDir();
  if (dir == nullptr) GTEST_SKIP() << "set ALP_LARGE_FILE_DIR to enable";
  const std::string path = std::string(dir) + "/large_column.alp";
  uint64_t expect_checksum = 0, expect_values = 0;
  {
    std::FILE* f = std::fopen((path + ".expect").c_str(), "rb");
    ASSERT_NE(f, nullptr) << "run LargeFile.Prepare first";
    ASSERT_EQ(std::fread(&expect_checksum, 1, 8, f), 8u);
    ASSERT_EQ(std::fread(&expect_values, 1, 8, f), 8u);
    std::fclose(f);
  }

  // Peak memory here is the index region + one chunk + the decoded-vector
  // cache budget.
  auto source = PreadSource::Open(path);
  ASSERT_TRUE(source.ok()) << source.status().ToString();

  DecodedVectorCache cache(16ull << 20);
  SeekableReaderOptions options;
  options.cache = &cache;
  auto reader = OpenSeekable(*source, options);
  ASSERT_NE(reader, nullptr);
  ASSERT_EQ(reader->value_count(), expect_values);

  Checksum64Stream got_checksum;
  uint64_t visited_values = 0;
  const Status s = reader->Scan([&](size_t, const double* values,
                                    unsigned len) {
    got_checksum.Update(values, size_t{len} * sizeof(double));
    visited_values += len;
    return Status::Ok();
  });
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(visited_values, expect_values);
  EXPECT_EQ(got_checksum.Finish(), expect_checksum);
  EXPECT_TRUE(cache.CheckInvariants());

  // Random point lookups land anywhere in the file without a full read:
  // re-derive the expected values from the writer's per-rowgroup seeds.
  std::mt19937_64 rng(77);
  std::vector<double> got(kVectorSize);
  for (int i = 0; i < 32; ++i) {
    const size_t v = rng() % reader->vector_count();
    const unsigned len = reader->VectorLength(v);
    ASSERT_TRUE(reader->TryDecodeVector(v, got.data()).ok());
    const size_t rg = v / kRowgroupVectors;
    const uint64_t rg_begin = uint64_t{rg} * kRowgroupSize;
    const size_t rg_len = static_cast<size_t>(
        std::min<uint64_t>(kRowgroupSize, expect_values - rg_begin));
    const std::vector<double> raw = HighPrecisionData(rg_begin, rg_len);
    const size_t in_rg = (v % kRowgroupVectors) * kVectorSize;
    ASSERT_EQ(std::memcmp(got.data(), raw.data() + in_rg,
                          len * sizeof(double)),
              0)
        << "vector " << v;
  }
}

}  // namespace
}  // namespace alp
