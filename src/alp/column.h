#ifndef ALP_ALP_COLUMN_H_
#define ALP_ALP_COLUMN_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "alp/constants.h"
#include "alp/rd.h"
#include "alp/sampler.h"
#include "fastlanes/ffor.h"
#include "util/cancellation.h"
#include "util/status.h"
#include "util/thread_pool.h"

/// \file column.h
/// The self-describing ALP column container: the public entry point most
/// applications use. A column is split into rowgroups of 100 vectors; each
/// rowgroup independently chooses ALP or ALP_rd via the two-level sampler,
/// and every vector is individually addressable so scans can skip straight
/// to a vector (the capability the paper contrasts with block-based Zstd).
///
/// Layout (all sections 8-byte aligned, host endianness; see docs/FORMAT.md):
///
///   ColumnHeader | rowgroup offsets | rowgroup checksums (v3) | zone map
///              | header checksum (v3) | rowgroups...
///   Rowgroup: header (+ ALP_rd params) | vector offset index | vectors...
///   ALP vector: {e, f, width, exc_count, n, FOR base} | packed words
///               | exception values | exception positions
///   RD vector:  {exc_count, n} | packed right parts | packed left codes
///               | exception lefts | exception positions
///
/// Untrusted input: buffers come from disk and the network, so every read
/// goes through one bounds-checked parser (ParseColumnHeader, ParseRowgroup
/// and ParseVector in column.cc) and one decode body per scheme. There are
/// two entry points into that parser. The constructor parses the header and
/// every rowgroup's index; ColumnReader<T>::Open additionally verifies the
/// (v3) XXH64 checksums, the zone map and every vector up front. Either way
/// no read leaves the buffer, even on adversarial bytes. There is one
/// checked decoder per format and no trusted twin: TryDecodeVector and
/// TryDecodeAll return its alp::Status, and DecodeVector (kept for callers
/// that fall back from a compressed-domain path on an already-open reader)
/// runs the same body and drops it.
///
/// Parallelism: rowgroups are fully independent on both sides of the
/// pipeline, so CompressColumnParallel, ColumnReader::OpenParallel (parallel
/// checksum + structure verification) and TryDecodeAllParallel fan rowgroups
/// out over a ThreadPool. All three carry a hard determinism contract:
///  - encode: the produced buffer is byte-identical for every worker count
///    (rowgroups are compressed into standalone segments and stitched in
///    rowgroup order; nothing downstream depends on completion order);
///  - decode/validate: the values and the reported Status are identical to
///    the serial path's — when several rowgroups are bad, the Status of the
///    lowest-indexed failure wins, which is exactly the one the serial scan
///    would have hit first.
/// tests/test_parallel.cc enforces both oracles; see also bench/
/// bench_parallel_scaling.cc.

namespace alp {

/// Per-vector zone map entry: min/max over the vector's non-NaN values
/// (min > max means the vector holds no comparable values). Zone maps are
/// what let a scan skip compressed vectors under a range predicate - the
/// capability the paper contrasts with block-based compression throughout.
struct VectorStats {
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();

  /// Whether any value in [lo, hi] can exist in this vector. NaNs never
  /// satisfy range predicates, so they are safely excluded from the map.
  bool MayContain(double lo, double hi) const { return min <= hi && max >= lo; }
};

/// Summary counters produced while compressing one column.
struct CompressionInfo {
  size_t rowgroups = 0;
  size_t rowgroups_rd = 0;      ///< Rowgroups that fell back to ALP_rd.
  size_t vectors = 0;
  size_t exceptions = 0;        ///< Total ALP exceptions across vectors.
  SamplerStats sampler;         ///< Level-2 search effort.

  /// Average ALP exceptions per vector.
  double ExceptionsPerVector() const {
    return vectors == 0 ? 0.0 : static_cast<double>(exceptions) / vectors;
  }

  /// Accumulates another rowgroup's counters; every field is additive, so
  /// merging per-rowgroup infos in rowgroup order reproduces the serial
  /// counters exactly (the parallel pipeline relies on this).
  void MergeFrom(const CompressionInfo& other) {
    rowgroups += other.rowgroups;
    rowgroups_rd += other.rowgroups_rd;
    vectors += other.vectors;
    exceptions += other.exceptions;
    sampler.vectors += other.sampler.vectors;
    sampler.vectors_skipped += other.sampler.vectors_skipped;
    sampler.combinations_tried += other.sampler.combinations_tried;
    for (size_t t = 0; t < 8; ++t) {
      sampler.tried_histogram[t] += other.sampler.tried_histogram[t];
    }
  }
};

/// Compresses \p n values into a self-describing byte buffer.
template <typename T>
std::vector<uint8_t> CompressColumn(const T* data, size_t n,
                                    const SamplerConfig& config = {},
                                    CompressionInfo* info = nullptr);

/// Parallel CompressColumn: rowgroups are compressed concurrently on
/// \p pool and stitched in rowgroup order. Guaranteed byte-identical to
/// CompressColumn (and to itself at every worker count); \p info, when
/// requested, carries identical counters too. A null \p pool falls back to
/// the serial path.
template <typename T>
std::vector<uint8_t> CompressColumnParallel(const T* data, size_t n,
                                            const SamplerConfig& config = {},
                                            CompressionInfo* info = nullptr,
                                            ThreadPool* pool = &ThreadPool::Shared());

/// Current (newest) and oldest-readable versions of the column container.
inline constexpr uint8_t kColumnFormatVersion = 3;     ///< v3: checksums.
inline constexpr uint8_t kColumnFormatMinVersion = 2;  ///< v2: zone maps.

/// Full structural validation of a compressed column buffer: magic,
/// version, type tag, index bounds, zone-map sanity, per-vector header
/// invariants and exception positions — plus XXH64 checksum verification
/// for v3 buffers (kChecksumMismatch on a flipped bit; skipped for v2).
/// Never reads past \p size, never crashes on adversarial input. A non-null
/// \p ctx is polled between phases and per rowgroup, so validation of a
/// large column stops mid-flight on cancellation / deadline expiry.
template <typename T>
Status ValidateColumnEx(const uint8_t* data, size_t size,
                        const OpContext* ctx = nullptr);

/// ValidateColumnEx with the per-rowgroup work (checksum verification, then
/// structural walk) fanned out over \p pool. Same accept/reject decisions
/// and same Status as the serial validator: when several rowgroups are bad
/// the lowest-indexed rowgroup's failure is reported, per verification
/// phase. A null \p pool degenerates to the serial validator.
template <typename T>
Status ValidateColumnParallelEx(const uint8_t* data, size_t size,
                                ThreadPool* pool = &ThreadPool::Shared(),
                                const OpContext* ctx = nullptr);

/// Random-access reader over a compressed column buffer.
template <typename T>
class ColumnReader {
 public:
  /// Fallible entry point for untrusted buffers: the constructor's parse
  /// plus, for v3 buffers, header and rowgroup checksum verification, then
  /// zone-map sanity and a ParseVector check of every vector — exactly what
  /// ValidateColumnEx accepts. v2 buffers are accepted with checksum
  /// verification skipped. The buffer must outlive the reader.
  static StatusOr<ColumnReader<T>> Open(const uint8_t* data, size_t size);

  /// Open with the rowgroup checksum + structure verification fanned out
  /// over \p pool. Accepts and rejects exactly the same buffers as Open,
  /// with the same Status (lowest-offending-rowgroup reporting); a null
  /// \p pool degenerates to Open.
  static StatusOr<ColumnReader<T>> OpenParallel(const uint8_t* data, size_t size,
                                                ThreadPool* pool = &ThreadPool::Shared());

  /// Parses the column header, the rowgroup offset index and every
  /// rowgroup's header and vector offset index through the same checked
  /// parser as Open, but runs no checksum pass and leaves each vector's
  /// checks to its decode. On a buffer the parser rejects the reader comes
  /// up empty, ok() is false, and the Try* calls return the parse Status.
  ColumnReader(const uint8_t* data, size_t size);

  /// Opens one standalone rowgroup payload chunk — the bytes between two
  /// consecutive rowgroup offsets of a column file — as a single-rowgroup
  /// reader whose vectors are chunk-locally indexed from 0. Runs the same
  /// ParseRowgroup + ParseVector walk Open applies per rowgroup (scheme,
  /// vector counts, ALP_rd parameters, offset index, per-vector extents and
  /// exception positions), with Status offsets relative to the chunk.
  /// \p value_count is the logical values the rowgroup must hold (from the
  /// column header; at most kRowgroupSize). The chunk must outlive the
  /// reader. Chunk readers carry no zone map: Stats()/VectorMayContain are
  /// not usable on them — the out-of-core reader (io::SeekableReader)
  /// serves those from the column's index region instead.
  static StatusOr<ColumnReader<T>> OpenRowgroupChunk(const uint8_t* chunk,
                                                     size_t chunk_size,
                                                     uint64_t value_count);

  /// Whether header/index parsing succeeded.
  bool ok() const { return status_.ok(); }

  /// Format version of the parsed buffer (2 or 3).
  uint8_t format_version() const { return version_; }

  /// Total logical values in the column.
  size_t value_count() const { return value_count_; }

  /// Total vectors (the skippable unit).
  size_t vector_count() const { return vector_count_; }

  /// Number of values in vector \p v (1024 except possibly the last).
  unsigned VectorLength(size_t v) const;

  /// Scheme used by the rowgroup containing vector \p v.
  Scheme VectorScheme(size_t v) const;

  /// Zone map entry for vector \p v (see VectorStats).
  const VectorStats& Stats(size_t v) const { return stats_[v]; }

  /// Whether vector \p v may contain a value in [lo, hi]; scans use this
  /// to skip decoding (predicate push-down).
  bool VectorMayContain(size_t v, double lo, double hi) const {
    return stats_[v].MayContain(lo, hi);
  }

  /// Exceptions patched into vector \p v's decode, read from its header
  /// without decoding any values (out of range indexes and vectors the
  /// parser rejects read as 0). Feeds the flight recorder's
  /// decode.exceptions counter.
  uint16_t VectorExceptionCount(size_t v) const;

  /// Zero-copy view of one ALP+FFOR vector's compressed streams, for
  /// compressed-domain predicate evaluation (alp/pushdown.h): the packed
  /// lane words, the frame parameters, the (e, f) combination and the
  /// exception value/position arrays, all pointing into the column buffer.
  /// Exception lane slots hold placeholder integers — any consumer must
  /// resolve those positions from `exc_bits` instead. Every view has passed
  /// ParseVector, so each exception position is < n.
  struct PackedVectorView {
    const typename AlpTraits<T>::Uint* packed = nullptr;
    const typename AlpTraits<T>::Uint* exc_bits = nullptr;
    const uint16_t* exc_positions = nullptr;
    fastlanes::FforParams ffor;
    Combination c;
    unsigned n = 0;
    uint16_t exc_count = 0;
  };

  /// Fills \p view for vector \p v. Returns false — meaning the caller
  /// must decode-then-filter — for ALP_rd rowgroups, Delta-encoded
  /// vectors, and any vector ParseVector rejects (so it is safe on chunk
  /// readers and unvalidated buffers too).
  bool GetPackedVectorView(size_t v, PackedVectorView* view) const;

  /// Decodes vector \p v into \p out (room for VectorLength(v) values)
  /// through the same checked body as TryDecodeVector, dropping the Status:
  /// a vector the parser rejects leaves \p out unwritten.
  void DecodeVector(size_t v, T* out) const;

  /// Bounds-checked decode of vector \p v: ParseVector verifies every
  /// header field, stream extent and exception position before one byte
  /// is decoded, so a truncated or garbled vector yields a non-OK Status
  /// instead of an out-of-bounds access — even on buffers that never passed
  /// validation. Full vectors decode straight into \p out.
  /// A non-null \p ctx is checked on entry (kCancelled/kDeadlineExceeded).
  Status TryDecodeVector(size_t v, T* out, const OpContext* ctx = nullptr) const;

  /// Bounds-checked decode of the whole column (room for value_count()),
  /// each vector decoded in place. A non-null \p ctx is polled once per vector, so a cancelled or
  /// deadline-missed decode stops within one vector's worth of work; \p out
  /// must then be treated as garbage (see util/cancellation.h).
  Status TryDecodeAll(T* out, const OpContext* ctx = nullptr) const;

  /// TryDecodeAll with rowgroups decoded concurrently on \p pool. Values
  /// written to \p out are identical to the serial path's; on failure the
  /// returned Status is the serial path's (the lowest-indexed failing
  /// vector's). Safe to call from several threads on one reader — decoding
  /// is read-only — including several concurrent calls sharing one pool.
  /// \p ctx as in TryDecodeAll (each worker polls it per vector).
  Status TryDecodeAllParallel(T* out, ThreadPool* pool = &ThreadPool::Shared(),
                              const OpContext* ctx = nullptr) const;

 private:
  template <typename U>
  friend class ColumnMetaCursor;
  template <typename U>
  friend Status ValidateColumnParallelEx(const uint8_t*, size_t, ThreadPool*,
                                         const OpContext*);

  ColumnReader() = default;  ///< Empty reader, filled by Load/OpenRowgroupChunk.

  struct RowgroupInfo {
    size_t byte_offset = 0;          ///< Absolute offset in the buffer.
    Scheme scheme = Scheme::kAlp;
    RdParams<T> rd;                  ///< Valid when scheme == kAlpRd.
    /// rd.dict pre-shifted by rd.right_bits, the form the dispatched glue
    /// kernel consumes (computed once at parse, see RdDictShifted).
    typename AlpTraits<T>::Uint rd_dict_shifted[8] = {};
    std::vector<uint32_t> vector_offsets;  ///< Relative to rowgroup start.
    size_t first_vector = 0;         ///< Global index of its first vector.
    uint32_t vector_count = 0;
  };

  /// Header fields and stream locations of one vector that passed
  /// ParseVector (defined in column.cc).
  struct VectorView;

  // The one parser (column.cc). Load reads the column header, the rowgroup
  // offset index and every rowgroup; with \p verify it also checks the v3
  // checksums, the zone map and every vector — the whole of ValidateColumnEx.
  Status Load(const uint8_t* data, size_t size, bool verify, ThreadPool* pool,
              const OpContext* ctx);
  /// Parses the rowgroup at \p offset into rowgroups_[rg]; with \p walk
  /// also runs ParseVector over each of its vectors.
  Status ParseRowgroup(size_t rg, size_t offset, bool walk);
  Status ParseVector(const RowgroupInfo& rg, size_t local_v, VectorView* view) const;
  /// The decode body every Decode*/TryDecode* call ends in.
  Status DecodeChecked(size_t v, T* out) const;

  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
  size_t value_count_ = 0;
  size_t vector_count_ = 0;
  uint8_t version_ = 0;
  Status status_ = Status::Corrupt("column reader not initialized");
  std::vector<RowgroupInfo> rowgroups_;
  std::vector<VectorStats> stats_;
};

// ---------------------------------------------------------------------------
// Metadata cursor — the explain engine's window into a column file.
// ---------------------------------------------------------------------------

/// Physical metadata of one encoded vector, read from its header without
/// decoding any values. Byte stream fields partition the vector's extent
/// exactly: header_bytes + packed_bytes + exception_bytes + padding_bytes
/// == byte_extent.
struct VectorMeta {
  size_t index = 0;         ///< Global vector index.
  size_t rowgroup = 0;      ///< Owning rowgroup index.
  Scheme scheme = Scheme::kAlp;
  unsigned n = 0;           ///< Logical values in the vector.
  size_t byte_offset = 0;   ///< Absolute offset of the vector header.
  size_t byte_extent = 0;   ///< Bytes to the next vector / rowgroup end.

  // ALP scheme parameters (valid when scheme == kAlp).
  uint8_t e = 0;              ///< Exponent of the (e, f) combination.
  uint8_t f = 0;              ///< Factor of the (e, f) combination.
  uint8_t int_encoding = 0;   ///< 0 = FFOR, 1 = Delta (+ zig-zag).
  uint64_t base = 0;          ///< FOR base / first delta value.

  /// Packed integer bit width: the FFOR/Delta width for ALP vectors, or
  /// right_bits + dict_width for ALP_rd vectors (total packed bits/value).
  unsigned bit_width = 0;

  uint16_t exc_count = 0;   ///< Exceptions patched after decode.

  // Per-stream byte accounting within [byte_offset, byte_offset+byte_extent).
  size_t header_bytes = 0;     ///< AlpVectorHeader / RdVectorHeader.
  size_t packed_bytes = 0;     ///< Bit-packed integer words.
  size_t exception_bytes = 0;  ///< Exception values + positions.
  size_t padding_bytes = 0;    ///< 8-byte alignment tail.
};

/// Physical metadata of one rowgroup.
struct RowgroupMeta {
  size_t index = 0;
  size_t byte_offset = 0;   ///< Absolute offset of the rowgroup header.
  size_t byte_extent = 0;   ///< Bytes to the next rowgroup / file end.
  Scheme scheme = Scheme::kAlp;
  uint32_t vector_count = 0;
  size_t first_vector = 0;  ///< Global index of its first vector.

  /// Rowgroup-level header bytes: RowgroupHeader, the ALP_rd parameter
  /// block (when present), the per-vector offset index and its alignment
  /// pad — everything before the first vector.
  size_t header_bytes = 0;

  // ALP_rd parameters (valid when scheme == kAlpRd).
  uint8_t rd_right_bits = 0;
  uint8_t rd_dict_width = 0;
  uint8_t rd_dict_size = 0;
};

/// Read-only cursor over a column buffer's physical metadata: headers,
/// indexes and per-vector layout, surfaced without decoding any values.
/// This is the substrate of the X-Ray explain engine (src/obs/xray.h) —
/// everything `alp_cli explain` prints comes through here.
///
/// Open is ColumnReader::Open (every check of ValidateColumnEx, including
/// v3 checksums); Vector reads each header through the same ParseVector and
/// additionally cross-checks its streams against the vector's extent so the
/// per-stream byte accounting always sums exactly, or Open/Vector report
/// kCorrupt. The buffer must outlive the cursor.
template <typename T>
class ColumnMetaCursor {
 public:
  /// Validates \p data and builds the cursor.
  static StatusOr<ColumnMetaCursor<T>> Open(const uint8_t* data, size_t size);

  uint8_t format_version() const { return reader_.format_version(); }
  size_t value_count() const { return reader_.value_count(); }
  size_t vector_count() const { return reader_.vector_count(); }
  size_t rowgroup_count() const { return reader_.rowgroups_.size(); }
  size_t file_size() const { return reader_.size_; }

  /// Fixed-layout section sizes (bytes). Together with the rowgroup
  /// extents these partition the file:
  ///   column_header + rowgroup_index + checksums + zone_map
  ///     + sum(rowgroup extents) == file_size().
  size_t column_header_bytes() const;
  size_t rowgroup_index_bytes() const;  ///< Rowgroup offset index.
  size_t checksum_bytes() const;        ///< v3 rowgroup + header checksums; 0 for v2.
  size_t zone_map_bytes() const;        ///< VectorStats entries.

  /// Zone map entry for vector \p v.
  const VectorStats& Stats(size_t v) const { return reader_.Stats(v); }

  StatusOr<RowgroupMeta> Rowgroup(size_t rg) const;
  StatusOr<VectorMeta> Vector(size_t v) const;

  /// Reads vector \p vm's exception position array (vm.exc_count entries,
  /// each in [0, n)) without decoding values — feeds the explain engine's
  /// exception-position histogram.
  Status ReadExceptionPositions(const VectorMeta& vm,
                                std::vector<uint16_t>* out) const;

 private:
  explicit ColumnMetaCursor(ColumnReader<T> reader)
      : reader_(std::move(reader)) {}

  /// Extent of rowgroup \p rg: distance to the next rowgroup's offset, or
  /// to the end of the file for the last one.
  size_t RowgroupExtent(size_t rg) const;

  ColumnReader<T> reader_;
};

/// Convenience one-shot decompression into \p out (room for the column's
/// value count): the constructor's parse, then TryDecodeAll. Runs no
/// checksum pass; use ColumnReader<T>::Open for that.
template <typename T>
Status DecompressColumn(const std::vector<uint8_t>& buffer, T* out);

namespace internal {

/// Compresses one rowgroup (<= kRowgroupSize values) into a standalone,
/// position-independent payload segment, appending its per-vector zone map
/// entries to \p stats. Building block of ColumnAppender.
template <typename T>
std::vector<uint8_t> CompressRowgroupSegment(const T* data, size_t n,
                                             const SamplerConfig& config,
                                             std::vector<VectorStats>* stats,
                                             CompressionInfo* info);

/// Assembles a full column buffer from rowgroup segments.
template <typename T>
std::vector<uint8_t> AssembleColumnFromSegments(
    uint64_t value_count, const std::vector<std::vector<uint8_t>>& segments,
    const std::vector<VectorStats>& stats);

/// Parsed and verified header/index region of a column file: everything a
/// storage-backed reader (io::SeekableReader) needs in memory to fetch and
/// verify rowgroup chunks independently, without the payload bytes.
struct ColumnIndex {
  uint8_t version = 0;
  uint64_t value_count = 0;
  size_t total_vectors = 0;
  size_t payload_begin = 0;  ///< First payload byte (chunk extents start here).
  std::vector<uint64_t> rowgroup_offsets;    ///< Absolute file offsets.
  std::vector<uint64_t> rowgroup_checksums;  ///< XXH64 per chunk; empty for v2.
  std::vector<VectorStats> stats;            ///< Zone map, one per vector.
};

/// Bytes occupied by the header + index sections ([0, payload_begin)),
/// computed from the fixed 24-byte column header alone so a storage-backed
/// reader knows how much to fetch up front. Validates exactly the header
/// fields that determine the layout (magic, version, type tag, plausible
/// value count, consistent rowgroup count) with the same Statuses as
/// ValidateColumnEx.
template <typename T>
StatusOr<size_t> ColumnIndexRegionSize(const uint8_t* header, size_t len);

/// Parses and fully verifies a column's header/index region: header sanity,
/// the v3 header checksum, rowgroup offset invariants (8-aligned, strictly
/// increasing, each in [payload_begin, file_size)) and zone-map sanity —
/// the same checks, Statuses and offsets as ValidateColumnEx's serial
/// phases. \p region must hold at least ColumnIndexRegionSize bytes;
/// \p file_size is the full file's size, which bounds the offsets.
template <typename T>
StatusOr<ColumnIndex> ParseColumnIndex(const uint8_t* region,
                                       size_t region_size, uint64_t file_size);

}  // namespace internal

/// Compressed size in bits per value, the paper's Table 4 metric.
template <typename T>
double BitsPerValue(const std::vector<uint8_t>& buffer, size_t n) {
  return n == 0 ? 0.0 : static_cast<double>(buffer.size()) * 8.0 / static_cast<double>(n);
}

}  // namespace alp

#endif  // ALP_ALP_COLUMN_H_
