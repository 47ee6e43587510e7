#ifndef ALP_IO_SEEKABLE_READER_H_
#define ALP_IO_SEEKABLE_READER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "alp/column.h"
#include "io/decoded_vector_cache.h"
#include "io/random_access_source.h"
#include "obs/metrics.h"
#include "util/cancellation.h"
#include "util/status.h"

/// \file seekable_reader.h
/// Out-of-core column reader: the storage-backed sibling of
/// ColumnReader<T>. Where ColumnReader requires the whole compressed
/// buffer in memory up front, SeekableReader holds only the column's
/// header/index region (offsets, per-rowgroup checksums, zone map) and
/// fetches rowgroup *chunks* — the bytes between consecutive rowgroup
/// offsets — on demand from a RandomAccessSource. That is what lets a
/// column far larger than RAM scan to completion and a point lookup touch
/// only the one rowgroup it needs.
///
/// Chunk lifecycle (DESIGN.md "Out-of-core reads"), run by one
/// RowgroupCursor per rowgroup visit:
///   probe (the DecodedVectorCache; a hit needs no chunk at all)
///     →  fetch (ReadAt)  →  verify (XXH64 vs the indexed checksum, v3)
///     →  open (ColumnReader::OpenRowgroupChunk: the ParseRowgroup +
///              ParseVector walk that ColumnReader::Open runs per rowgroup)
///     →  decode (TryDecodeVector: the one checked decode body)
///     →  publish (the decoded vector inserted into the cache)
/// A failure at any stage aborts before the next one, so nothing
/// unverified is ever decoded and nothing undecoded is ever cached —
/// corruption surfaces as the same Status class the in-memory validator
/// would report and can never poison the cache. Consumers that evaluate a
/// vector on its packed lanes instead (engine::VectorSource) stop at open.
///
/// The per-rowgroup checksum is what makes this shape possible at all:
/// rowgroups are position-independent, individually verifiable split
/// points, so a seek lands on a self-contained unit. A gzip-style stream
/// would instead have to chase window state across chunk boundaries
/// (rapidgzip's WindowMap exists to patch exactly that problem away).
///
/// Chunks are read synchronously, on the calling thread, on first touch.
/// ALP decodes at more than a value per cycle, so a chunk read from a
/// page-cache-hot file is a memcpy that a background thread could not
/// usefully hide.
///
/// Concurrency: all read APIs are const and safe from any number of
/// threads; mutable state is confined to the shared DecodedVectorCache
/// (internally locked) and per-call locals.
///
/// Cancellation: a non-null OpContext is polled per vector on every path,
/// exactly like ColumnReader::TryDecodeAll. Only a fully decoded vector is
/// published to the cache, so a cancelled scan cannot leave a partial
/// entry behind.
///
/// Fault sites (behind ALP_FAULTS): `io.chunk_read` fires before a chunk's
/// bytes are read; `io.cache_evict` lives in DecodedVectorCache::Insert.
/// Obs: `io.chunk_fetch` spans wrap every source read and `io.cache.*`
/// counters track the cache.

namespace alp::obs {
class FlightRecorder;
}  // namespace alp::obs

namespace alp::io {

struct SeekableReaderOptions {
  /// Shared decoded-vector cache; null (or a capacity-0 cache) disables
  /// caching. The cache must outlive the reader.
  DecodedVectorCache* cache = nullptr;

  /// When non-empty, the reader registers per-column labeled cache
  /// counters — io.cache.hit{column="..."} / io.cache.miss{column="..."}
  /// — so per-column hit ratios fall out of one snapshot (the unlabeled
  /// io.cache.* totals the cache itself maintains are unchanged).
  /// Registration happens once at Open; recording is the same lock-free
  /// counter fast path. Ignored under -DALP_OBS=OFF.
  std::string column_label;
};

template <typename T>
class SeekableReader {
 public:
  /// Fetches and fully verifies the header/index region (same checks and
  /// Statuses as ValidateColumnEx's header/index/zone-map phases; rowgroup
  /// payloads are verified lazily, chunk by chunk, as they are touched).
  static StatusOr<std::shared_ptr<SeekableReader<T>>> Open(
      std::shared_ptr<RandomAccessSource> source,
      SeekableReaderOptions options = {});

  SeekableReader(const SeekableReader&) = delete;
  SeekableReader& operator=(const SeekableReader&) = delete;

  uint8_t format_version() const { return index_.version; }
  size_t value_count() const { return index_.value_count; }
  size_t vector_count() const { return index_.total_vectors; }
  size_t rowgroup_count() const { return index_.rowgroup_offsets.size(); }

  /// Process-unique identity of this reader, the cache-key namespace for
  /// its vectors (a re-opened column starts cold by construction).
  uint64_t column_id() const { return column_id_; }

  /// The parsed header/index region (tests aim corruption at chunk extents
  /// through this; the CLI surfaces it in diagnostics).
  const alp::internal::ColumnIndex& index() const { return index_; }

  unsigned VectorLength(size_t v) const;

  /// Zone map entry for vector \p v — served from the index region, no
  /// chunk fetch.
  const VectorStats& Stats(size_t v) const { return index_.stats[v]; }
  bool VectorMayContain(size_t v, double lo, double hi) const {
    return index_.stats[v].MayContain(lo, hi);
  }

  /// Receives each decoded vector in ascending order: \p values holds
  /// \p len values and is valid only during the call. A non-OK return
  /// aborts the scan and is returned as-is.
  using Visitor = std::function<Status(size_t v, const T* values, unsigned len)>;

  /// Point lookup: decodes vector \p v into \p out (room for
  /// VectorLength(v) values), touching only its rowgroup — or no storage
  /// at all on a cache hit.
  Status TryDecodeVector(size_t v, T* out, const OpContext* ctx = nullptr) const;

  /// Full-column decode into \p out (room for value_count() values);
  /// byte-identical to ColumnReader::TryDecodeAll on the same file.
  Status TryDecodeAll(T* out, const OpContext* ctx = nullptr) const;

  /// Streaming scan: rowgroups are fetched one at a time, so peak memory
  /// is the index region plus one chunk — never the whole column.
  Status Scan(const Visitor& visit, const OpContext* ctx = nullptr) const;

  /// One rowgroup's chunk lifecycle, vector by vector (see the file
  /// comment). The reader's scans and the engine's VectorSource both walk
  /// rowgroups through it, so cache probes, fetches, checksum checks,
  /// structural opens, offset rebasing and flight-recorder counts live
  /// here only. Per-visit state: use one cursor per rowgroup per thread.
  class RowgroupCursor {
   public:
    /// \p rg must be < rowgroup_count().
    RowgroupCursor(const SeekableReader& reader, size_t rg,
                   const OpContext* ctx);

    /// Starts vector \p v (global index, in this rowgroup): polls ctx,
    /// then probes the cache. On a hit *values points at the cached
    /// values (valid until the next Fetch). On a miss *values is null and
    /// the verified, opened chunk is available from chunk().
    Status Fetch(size_t v, const T** values);

    /// The opened chunk after a Fetch that missed; vector v is chunk-local
    /// index v % kRowgroupVectors.
    const ColumnReader<T>& chunk() const { return *chunk_reader_; }

    /// Decodes vector \p v from the chunk into \p out (room for
    /// kVectorSize values) and, when \p publish, inserts it into the
    /// cache. Call only after a Fetch(v) that missed.
    Status Decode(size_t v, T* out, bool publish = true);

   private:
    const SeekableReader& reader_;
    size_t rg_;
    const OpContext* ctx_;
    bool caching_;
    /// The calling thread's ambient request recorder (obs::
    /// ScopedRequestAttribution), read once at construction: every cache
    /// decision, chunk fetch and decode of this visit is credited to it.
    obs::FlightRecorder* recorder_;
    DecodedVectorCache::Value hit_;
    std::vector<uint8_t> chunk_;
    std::optional<ColumnReader<T>> chunk_reader_;
  };

  /// Logical values stored in rowgroup \p rg.
  uint64_t RowgroupValueCount(size_t rg) const;

 private:
  SeekableReader(std::shared_ptr<RandomAccessSource> source,
                 SeekableReaderOptions options,
                 alp::internal::ColumnIndex index);

  /// Reads rowgroup \p rg's chunk bytes (the bytes up to the next
  /// rowgroup's offset) and verifies them against the indexed checksum.
  /// Runs the io.chunk_read fault site.
  Status LoadChunk(size_t rg, std::vector<uint8_t>* bytes) const;

  /// The one per-rowgroup visit loop behind Scan and TryDecodeAll: Fetch
  /// each vector, Decode it on a cache miss, and
  /// hand it to \p visit.
  Status ScanRowgroup(size_t rg, const Visitor& visit,
                      const OpContext* ctx) const;

  std::shared_ptr<RandomAccessSource> source_;
  SeekableReaderOptions options_;
  alp::internal::ColumnIndex index_;
  uint64_t column_id_;
  /// Labeled per-column cache counters (see SeekableReaderOptions::
  /// column_label); null when unlabeled or ALP_OBS is off.
  obs::Counter* labeled_cache_hits_ = nullptr;
  obs::Counter* labeled_cache_misses_ = nullptr;
};

}  // namespace alp::io

#endif  // ALP_IO_SEEKABLE_READER_H_
