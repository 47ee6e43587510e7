#include "alp/column.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <limits>

#include "alp/encoder.h"
#include "alp/kernel_dispatch.h"
#include "fastlanes/bitpack.h"
#include "fastlanes/delta.h"
#include "fastlanes/ffor.h"
#include "obs/trace.h"
#include "util/checksum.h"
#include "util/fault_injection.h"
#include "util/serialize.h"
#include "util/thread_pool.h"

namespace alp {
namespace {

constexpr uint32_t kMagic = 0x43504C41;  // "ALPC"
// v2 added the per-vector zone map section; v3 added XXH64 checksums over
// the header/index region and each rowgroup payload.
constexpr uint8_t kVersion = kColumnFormatVersion;
constexpr uint8_t kMinVersion = kColumnFormatMinVersion;

template <typename T>
constexpr uint8_t TypeTag() {
  return sizeof(T) == 8 ? 0 : 1;
}

struct ColumnHeader {
  uint32_t magic;
  uint8_t version;
  uint8_t type;
  uint16_t pad0;
  uint64_t value_count;
  uint32_t rowgroup_count;
  uint32_t pad1;
};
static_assert(sizeof(ColumnHeader) == 24);

struct RowgroupHeader {
  uint8_t scheme;
  uint8_t pad[3];
  uint32_t vector_count;
};
static_assert(sizeof(RowgroupHeader) == 8);

struct RdHeader {
  uint8_t right_bits;
  uint8_t dict_width;
  uint8_t dict_size;
  uint8_t pad0;
  uint16_t dict[8];
  uint32_t pad1;
};
static_assert(sizeof(RdHeader) == 24);

struct AlpVectorHeader {
  uint8_t e;
  uint8_t f;
  uint8_t width;
  uint8_t int_encoding;  ///< 0 = FFOR, 1 = Delta (+ zig-zag); base = first.
  uint16_t exc_count;
  uint16_t n;
  uint64_t base;
};

constexpr uint8_t kIntFfor = 0;
constexpr uint8_t kIntDelta = 1;
static_assert(sizeof(AlpVectorHeader) == 16);

struct RdVectorHeader {
  uint16_t exc_count;
  uint16_t n;
  uint32_t pad;
};
static_assert(sizeof(RdVectorHeader) == 8);

/// Appends one ALP-encoded vector to \p out. With \p try_delta, Delta
/// (+ zig-zag) competes against FOR for the integer encoding and the
/// narrower of the two wins (the paper's "somewhat ordered" extension).
template <typename T>
void WriteAlpVector(const EncodedVector<T>& enc, bool try_delta, ByteBuffer* out) {
  using Uint = typename AlpTraits<T>::Uint;
  constexpr unsigned kLanes = fastlanes::kLanes<Uint>;

  const fastlanes::FforParams& ffor = enc.ffor;  // Computed during encoding.

  AlpVectorHeader header{};
  header.e = enc.combination.e;
  header.f = enc.combination.f;
  header.exc_count = enc.exc_count;
  header.n = kVectorSize;  // Patched by the caller for tail vectors.

  Uint packed[kVectorSize];
  fastlanes::DeltaParams delta;
  bool use_delta = false;
  {
    ALP_OBS_SPAN(pack_span, "compress.pack", kVectorSize);
    if constexpr (sizeof(T) == 8) {
      if (try_delta) {
        delta = fastlanes::DeltaAnalyze(enc.encoded, kVectorSize);
        use_delta = delta.width < ffor.width;
      }
    }
    if (use_delta) {
      if constexpr (sizeof(T) == 8) {
        fastlanes::DeltaEncode(enc.encoded, packed, delta);
        header.int_encoding = kIntDelta;
        header.width = static_cast<uint8_t>(delta.width);
        header.base = static_cast<uint64_t>(delta.first);
      }
    } else {
      fastlanes::FforEncode(enc.encoded, packed, ffor);
      header.int_encoding = kIntFfor;
      header.width = static_cast<uint8_t>(ffor.width);
      header.base = ffor.base;
    }
  }
  ALP_OBS_ONLY({
    static obs::Histogram& widths = obs::MetricRegistry::Global().GetHistogram(
        "encode.bit_width", {0, 4, 8, 12, 16, 20, 24, 28, 32, 40, 48, 56, 64},
        "bits");
    widths.Record(header.width);
  });
  out->Append(header);
  out->AppendArray(packed, static_cast<size_t>(header.width) * kLanes);
  // Exceptions: raw value bits, then positions.
  for (unsigned i = 0; i < enc.exc_count; ++i) out->Append(BitsOf(enc.exceptions[i]));
  out->AppendArray(enc.exc_positions, enc.exc_count);
  out->AlignTo(8);
}

/// Appends one ALP_rd-encoded vector to \p out.
template <typename T>
void WriteRdVector(const RdEncodedVector<T>& enc, const RdParams<T>& params,
                   ByteBuffer* out) {
  using Uint = typename AlpTraits<T>::Uint;
  constexpr unsigned kLanes = fastlanes::kLanes<Uint>;

  RdVectorHeader header{};
  header.exc_count = enc.exc_count;
  header.n = kVectorSize;  // Patched by the caller for tail vectors.
  out->Append(header);

  Uint packed[kVectorSize];
  fastlanes::Pack(enc.right_parts, packed, params.right_bits);
  out->AppendArray(packed, static_cast<size_t>(params.right_bits) * kLanes);

  Uint codes[kVectorSize];
  for (unsigned i = 0; i < kVectorSize; ++i) codes[i] = enc.left_codes[i];
  fastlanes::Pack(codes, packed, params.dict_width);
  out->AppendArray(packed, static_cast<size_t>(params.dict_width) * kLanes);

  out->AppendArray(enc.exceptions, enc.exc_count);
  out->AppendArray(enc.exc_positions, enc.exc_count);
  out->AlignTo(8);
}

/// Zone-map entry of one vector: the serial fold `min = x < min ? x : min`
/// (and the same for max) over its \p len values. NaNs fail both
/// comparisons and are excluded. The fold runs in 8 independent local
/// stripes over a fixed 1024 lanes (a tail is padded with NaN), so no step
/// waits on the last one or on a store the compiler must assume aliases
/// the input, then combines the stripes. That keeps every value but not
/// which of two equal values wins. Only +0.0 and -0.0 compare equal with different bits, and
/// the serial fold keeps the first zero in index order, so a zero result
/// takes that zero's bits.
///
/// Built for the SSE2 baseline. An AVX-512 fold (`_mm512_min_pd(x, lo)`
/// returns lo when x is NaN or both are zeros, which is this fold) gave
/// bit-identical results on 20,000 mixed, NaN and ±0 vectors, and on an
/// AVX-512 Xeon ran 0.14 ns/value against 0.40 for this loop on L2-resident
/// vectors. Whole perfbench `ingest` (seed 500, 10 s runs) read 214.3,
/// 221.3 and 217.4 Mvalues/s with it against 207.6, 212.5 and 202.3
/// without: about +4%, three pairs. This stays the baseline until the
/// fold moves into the dispatched kernel table.
template <typename T>
VectorStats ZoneStats(const T* values, unsigned len) {
  constexpr unsigned kStripes = 8;
  alignas(64) T padded[kVectorSize];
  const T* lanes = values;
  if (len < kVectorSize) {
    std::copy(values, values + len, padded);
    std::fill(padded + len, padded + kVectorSize, std::numeric_limits<T>::quiet_NaN());
    lanes = padded;
  }
  double lo[kStripes];
  double hi[kStripes];
  std::fill(lo, lo + kStripes, std::numeric_limits<double>::infinity());
  std::fill(hi, hi + kStripes, -std::numeric_limits<double>::infinity());
  for (unsigned i = 0; i < kVectorSize; i += kStripes) {
    for (unsigned j = 0; j < kStripes; ++j) {
      const double x = static_cast<double>(lanes[i + j]);
      lo[j] = x < lo[j] ? x : lo[j];
      hi[j] = x > hi[j] ? x : hi[j];
    }
  }
  VectorStats stats;
  for (unsigned j = 0; j < kStripes; ++j) {
    stats.min = lo[j] < stats.min ? lo[j] : stats.min;
    stats.max = hi[j] > stats.max ? hi[j] : stats.max;
  }
  const auto first_zero = [&] {
    unsigned i = 0;
    while (lanes[i] != 0) ++i;
    return static_cast<double>(lanes[i]);
  };
  if (stats.min == 0) stats.min = first_zero();
  if (stats.max == 0) stats.max = first_zero();
  return stats;
}

/// Compresses one rowgroup (scheme analysis + per-vector encode) starting
/// at the current, 8-aligned position of \p out. Rowgroup payloads are
/// position-independent (vector offsets are relative to the rowgroup
/// start), which is what lets ColumnAppender build them incrementally.
template <typename T>
void CompressRowgroupTo(const T* rg_data, size_t rg_len, const SamplerConfig& config,
                        ByteBuffer* out, VectorStats* stats, CompressionInfo* info) {
  const size_t rg_begin = out->size();
  const uint32_t vectors_here =
      static_cast<uint32_t>((rg_len + kVectorSize - 1) / kVectorSize);
  ALP_OBS_SPAN(rowgroup_span, "compress.rowgroup", rg_len);
  ALP_OBS_ONLY({
    // Worker attribution: which pool worker compressed this rowgroup (the
    // serial path runs off-pool and is counted separately).
    const int worker = ThreadPool::CurrentWorkerIndex();
    if (worker >= 0) {
      static obs::Histogram& by_worker =
          obs::MetricRegistry::Global().GetHistogram(
              "compress.rowgroups_by_worker",
              {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
              "worker");
      by_worker.Record(static_cast<uint64_t>(worker));
    } else {
      static obs::Counter& serial =
          obs::MetricRegistry::Global().GetCounter("compress.rowgroups_serial");
      serial.Increment();
    }
  });

  RowgroupAnalysis analysis;
  {
    ALP_OBS_SPAN(sample_span, "compress.sample", rg_len);
    analysis = AnalyzeRowgroup(rg_data, rg_len, config);
  }

  RowgroupHeader rg_header{};
  rg_header.scheme = static_cast<uint8_t>(analysis.scheme);
  rg_header.vector_count = vectors_here;
  out->Append(rg_header);

  RdParams<T> rd_params;
  std::vector<uint8_t> rd_codes;
  if (analysis.scheme == Scheme::kAlpRd) {
    ALP_OBS_SPAN(rd_sample_span, "compress.sample_rd", rg_len);
    rd_params = RdAnalyzeRowgroup(rg_data, rg_len, config);
    rd_codes = RdCodeTable(rd_params);
    RdHeader rd_header{};
    rd_header.right_bits = rd_params.right_bits;
    rd_header.dict_width = rd_params.dict_width;
    rd_header.dict_size = rd_params.dict_size;
    std::memcpy(rd_header.dict, rd_params.dict, sizeof(rd_header.dict));
    out->Append(rd_header);
    if (info != nullptr) ++info->rowgroups_rd;
  }

  const size_t vec_offsets_slot = out->ReserveSlot<uint32_t>(vectors_here);
  out->AlignTo(8);
  std::vector<uint32_t> vec_offsets(vectors_here, 0);

  for (uint32_t v = 0; v < vectors_here; ++v) {
    const size_t off = static_cast<size_t>(v) * kVectorSize;
    const unsigned len = static_cast<unsigned>(std::min<size_t>(kVectorSize, rg_len - off));
    vec_offsets[v] = static_cast<uint32_t>(out->size() - rg_begin);
    const size_t vec_header_at = out->size();

    stats[v] = ZoneStats(rg_data + off, len);

    if (analysis.scheme == Scheme::kAlp) {
      Combination c;
      {
        ALP_OBS_SPAN(choose_span, "compress.choose", len);
        c = ChooseForVector(rg_data + off, len, analysis.combinations, config,
                            info != nullptr ? &info->sampler : nullptr);
      }
      EncodedVector<T> enc;
      {
        ALP_OBS_SPAN(encode_span, "compress.encode", len);
        EncodeVector(rg_data + off, len, c, &enc);
      }
      WriteAlpVector(enc, config.try_delta_encoding, out);
      out->PatchAt(vec_header_at + offsetof(AlpVectorHeader, n),
                   static_cast<uint16_t>(len));
      if (info != nullptr) info->exceptions += enc.exc_count;
    } else {
      RdEncodedVector<T> enc;
      {
        ALP_OBS_SPAN(encode_rd_span, "compress.encode_rd", len);
        RdEncodeVector(rg_data + off, len, rd_params, rd_codes.data(), &enc);
      }
      WriteRdVector(enc, rd_params, out);
      out->PatchAt(vec_header_at + offsetof(RdVectorHeader, n),
                   static_cast<uint16_t>(len));
    }
    if (info != nullptr) ++info->vectors;
  }

  out->PatchArrayAt(vec_offsets_slot, vec_offsets.data(), vec_offsets.size());
  if (info != nullptr) ++info->rowgroups;
}

/// Assembles a full column buffer from per-rowgroup payload segments
/// produced by CompressRowgroupTo. Shared by CompressColumn (one pass) and
/// ColumnAppender::Finish (incremental).
template <typename T>
std::vector<uint8_t> AssembleColumn(uint64_t value_count,
                                    const std::vector<std::vector<uint8_t>>& segments,
                                    const std::vector<VectorStats>& stats) {
  ALP_OBS_SPAN(assemble_span, "compress.assemble", value_count);
  ColumnHeader header{};
  header.magic = kMagic;
  header.version = kVersion;
  header.type = TypeTag<T>();
  header.value_count = value_count;
  header.rowgroup_count = static_cast<uint32_t>(std::max<size_t>(segments.size(), 1));

  // The exact column size, reserved once so the buffer never regrows: the
  // header, the offset, checksum and zone-map slots, the header checksum,
  // then each segment, every section padded to 8 bytes.
  const auto align8 = [](size_t bytes) { return (bytes + 7) & ~size_t{7}; };
  size_t column_bytes =
      align8(sizeof(ColumnHeader) + 2 * sizeof(uint64_t) * header.rowgroup_count +
             sizeof(VectorStats) * stats.size() + sizeof(uint64_t));
  for (const auto& segment : segments) column_bytes = align8(column_bytes + segment.size());

  ByteBuffer out;
  out.Reserve(column_bytes);
  out.Append(header);
  const size_t rg_offsets_slot = out.ReserveSlot<uint64_t>(header.rowgroup_count);
  const size_t rg_checksums_slot = out.ReserveSlot<uint64_t>(header.rowgroup_count);
  const size_t stats_slot = out.ReserveSlot<VectorStats>(stats.size());
  const size_t header_checksum_slot = out.ReserveSlot<uint64_t>();
  out.AlignTo(8);

  std::vector<uint64_t> rg_offsets(header.rowgroup_count, out.size());
  for (size_t rg = 0; rg < segments.size(); ++rg) {
    rg_offsets[rg] = out.size();
    out.AppendArray(segments[rg].data(), segments[rg].size());
    out.AlignTo(8);
  }
  out.PatchArrayAt(rg_offsets_slot, rg_offsets.data(), rg_offsets.size());
  if (!stats.empty()) out.PatchArrayAt(stats_slot, stats.data(), stats.size());

  // Rowgroup checksum i covers [offset_i, offset_{i+1}) — or to the end of
  // the buffer for the last rowgroup — i.e. the payload plus its alignment
  // padding, so the whole file is covered by header+rowgroup checksums.
  ALP_OBS_SPAN(checksum_span, "compress.checksum", out.size());
  std::vector<uint64_t> rg_checksums(header.rowgroup_count, 0);
  for (size_t rg = 0; rg < rg_offsets.size(); ++rg) {
    const size_t begin = rg_offsets[rg];
    const size_t end = rg + 1 < rg_offsets.size() ? rg_offsets[rg + 1] : out.size();
    rg_checksums[rg] = Checksum64(out.data() + begin, end - begin);
  }
  out.PatchArrayAt(rg_checksums_slot, rg_checksums.data(), rg_checksums.size());

  // The header checksum covers every byte before its own slot: column
  // header, rowgroup offsets, rowgroup checksums and the zone map.
  out.PatchAt(header_checksum_slot, Checksum64(out.data(), header_checksum_slot));
  assert(out.size() == column_bytes);
  return out.Take();
}

}  // namespace

namespace internal {

/// Compresses one rowgroup into a standalone payload segment; exposed for
/// ColumnAppender.
template <typename T>
std::vector<uint8_t> CompressRowgroupSegment(const T* data, size_t n,
                                             const SamplerConfig& config,
                                             std::vector<VectorStats>* stats,
                                             CompressionInfo* info) {
  ByteBuffer segment;
  const size_t vectors = (n + kVectorSize - 1) / kVectorSize;
  std::vector<VectorStats> local(vectors);
  CompressRowgroupTo(data, n, config, &segment, local.data(), info);
  stats->insert(stats->end(), local.begin(), local.end());
  return segment.Take();
}

template std::vector<uint8_t> CompressRowgroupSegment<double>(
    const double*, size_t, const SamplerConfig&, std::vector<VectorStats>*,
    CompressionInfo*);
template std::vector<uint8_t> CompressRowgroupSegment<float>(
    const float*, size_t, const SamplerConfig&, std::vector<VectorStats>*,
    CompressionInfo*);

template <typename T>
std::vector<uint8_t> AssembleColumnFromSegments(
    uint64_t value_count, const std::vector<std::vector<uint8_t>>& segments,
    const std::vector<VectorStats>& stats) {
  return AssembleColumn<T>(value_count, segments, stats);
}

template std::vector<uint8_t> AssembleColumnFromSegments<double>(
    uint64_t, const std::vector<std::vector<uint8_t>>&,
    const std::vector<VectorStats>&);
template std::vector<uint8_t> AssembleColumnFromSegments<float>(
    uint64_t, const std::vector<std::vector<uint8_t>>&,
    const std::vector<VectorStats>&);

}  // namespace internal

/// Rowgroup rg is compressed into segments[rg] (concurrently when \p pool
/// is non-null), then everything is stitched in rowgroup order. Because
/// each rowgroup is compressed into a standalone, position-independent
/// segment and the stitch order is fixed, the output bytes — and the
/// merged counters — cannot depend on the worker count.
template <typename T>
std::vector<uint8_t> CompressColumn(const T* data, size_t n, const SamplerConfig& config,
                                    CompressionInfo* info, ThreadPool* pool) {
  const size_t total_vectors = (n + kVectorSize - 1) / kVectorSize;
  const size_t rowgroup_count =
      std::max<size_t>((total_vectors + kRowgroupVectors - 1) / kRowgroupVectors, 1);

  std::vector<std::vector<uint8_t>> segments(rowgroup_count);
  std::vector<std::vector<VectorStats>> rg_stats(rowgroup_count);
  std::vector<CompressionInfo> rg_infos(info != nullptr ? rowgroup_count : 0);
  ParallelFor(pool, rowgroup_count, [&](size_t rg) {
    const size_t begin = rg * kRowgroupSize;
    const size_t len = n == 0 ? 0 : std::min<size_t>(kRowgroupSize, n - begin);
    segments[rg] = internal::CompressRowgroupSegment(
        data + begin, len, config, &rg_stats[rg],
        info != nullptr ? &rg_infos[rg] : nullptr);
  });

  std::vector<VectorStats> stats;
  stats.reserve(total_vectors);
  for (const auto& s : rg_stats) stats.insert(stats.end(), s.begin(), s.end());
  if (info != nullptr) {
    CompressionInfo merged;
    for (const auto& i : rg_infos) merged.MergeFrom(i);
    *info = merged;
  }
  return internal::AssembleColumnFromSegments<T>(n, segments, stats);
}

// ---------------------------------------------------------------------------
// Reading. ParseColumnHeader, ParseRowgroup and ParseVector are the only
// code that reads a ColumnHeader, a RowgroupHeader/RdHeader and an
// AlpVectorHeader/RdVectorHeader. The constructor, Open, OpenRowgroupChunk,
// the validator, the decode body, the packed views and the metadata cursor
// are all built on them, so every path applies the same checks and reports
// the same Status.
// ---------------------------------------------------------------------------

namespace {

/// The column header's fields plus the byte offsets of the index sections
/// that sit between it and the first rowgroup. Every section is a multiple
/// of 8 bytes, so the payload start needs no extra alignment. v2 buffers
/// have no checksum sections (checksums_at == stats_at,
/// header_checksum_at == payload_begin).
struct IndexLayout {
  uint8_t version = 0;
  uint64_t value_count = 0;
  size_t total_vectors = 0;
  size_t rowgroup_count = 0;
  size_t offsets_at = 0;          ///< Rowgroup offset index (u64 each).
  size_t checksums_at = 0;        ///< v3: rowgroup payload checksums.
  size_t stats_at = 0;            ///< Zone map entries.
  size_t header_checksum_at = 0;  ///< v3: XXH64 of bytes [0, here).
  size_t payload_begin = 0;       ///< First rowgroup byte.
};

/// Checks magic, version, type tag, value count and rowgroup count of the
/// column header and derives the index layout from them. Reads only the
/// first sizeof(ColumnHeader) bytes; whether the index sections fit in the
/// buffer is the caller's check.
template <typename T>
StatusOr<IndexLayout> ParseColumnHeader(const uint8_t* data, size_t len) {
  if (data == nullptr || len < sizeof(ColumnHeader)) {
    return Status::Truncated("buffer smaller than the column header");
  }
  ColumnHeader header;
  std::memcpy(&header, data, sizeof(header));
  if (header.magic != kMagic) return Status::Corrupt("bad magic", 0);
  if (header.version < kMinVersion || header.version > kVersion) {
    return Status::UnsupportedVersion("unsupported format version",
                                      offsetof(ColumnHeader, version));
  }
  if (header.type != TypeTag<T>()) {
    return Status::Corrupt("value type tag mismatch", offsetof(ColumnHeader, type));
  }
  // Reject value counts whose vector math would wrap; also caps every
  // allocation sized by the (still untrusted) counts.
  if (header.value_count > (uint64_t{1} << 62)) {
    return Status::Corrupt("value count implausibly large",
                           offsetof(ColumnHeader, value_count));
  }
  IndexLayout layout;
  layout.version = header.version;
  layout.value_count = header.value_count;
  layout.total_vectors = (header.value_count + kVectorSize - 1) / kVectorSize;
  layout.rowgroup_count = std::max<size_t>(
      (layout.total_vectors + kRowgroupVectors - 1) / kRowgroupVectors, 1);
  if (header.rowgroup_count != layout.rowgroup_count) {
    return Status::Corrupt("rowgroup count inconsistent with value count",
                           offsetof(ColumnHeader, rowgroup_count));
  }
  const bool v3 = header.version >= 3;
  const size_t offsets_bytes = layout.rowgroup_count * sizeof(uint64_t);
  layout.offsets_at = sizeof(ColumnHeader);
  layout.checksums_at = layout.offsets_at + offsets_bytes;
  layout.stats_at = layout.checksums_at + (v3 ? offsets_bytes : 0);
  layout.header_checksum_at =
      layout.stats_at + layout.total_vectors * sizeof(VectorStats);
  layout.payload_begin = layout.header_checksum_at + (v3 ? sizeof(uint64_t) : 0);
  return layout;
}

/// Reads the rowgroup offset index into \p offsets, after verifying (with
/// \p verify_checksum, v3 only) the header checksum that covers it. Every
/// offset must be 8-aligned, strictly increasing and leave room for a
/// RowgroupHeader inside [payload_begin, size). Reads only bytes below
/// layout.payload_begin, which the caller has checked are present.
Status ParseRowgroupIndex(const uint8_t* data, size_t size, const IndexLayout& layout,
                          bool verify_checksum, std::vector<uint64_t>* offsets) {
  // The header checksum covers everything before its own slot, so any
  // flipped bit in the column header, the offset index, the rowgroup
  // checksums or the zone map is caught here before those bytes are used.
  if (verify_checksum && layout.version >= 3) {
    uint64_t stored;
    std::memcpy(&stored, data + layout.header_checksum_at, sizeof(stored));
    if (Checksum64(data, layout.header_checksum_at) != stored) {
      return Status::ChecksumMismatch("column header checksum mismatch",
                                      layout.header_checksum_at);
    }
  }
  offsets->resize(layout.rowgroup_count);
  std::memcpy(offsets->data(), data + layout.offsets_at,
              offsets->size() * sizeof(uint64_t));
  for (size_t rg = 0; rg < offsets->size(); ++rg) {
    const uint64_t off = (*offsets)[rg];
    const size_t entry_at = layout.offsets_at + rg * sizeof(uint64_t);
    if (off % 8 != 0) return Status::Corrupt("misaligned rowgroup offset", entry_at);
    if (off < layout.payload_begin || off >= size ||
        size - off < sizeof(RowgroupHeader)) {
      return Status::Corrupt("rowgroup offset out of bounds", entry_at);
    }
    if (rg > 0 && off <= (*offsets)[rg - 1]) {
      return Status::Corrupt("rowgroup offsets not increasing", entry_at);
    }
  }
  return Status::Ok();
}

/// v3 rowgroup payload checksum over [offset, next offset or end of buffer)
/// — the payload plus its alignment padding.
Status VerifyRowgroupChecksum(const uint8_t* data, size_t size,
                              const IndexLayout& layout,
                              const std::vector<uint64_t>& offsets, size_t rg) {
  const size_t begin = static_cast<size_t>(offsets[rg]);
  const size_t end =
      rg + 1 < offsets.size() ? static_cast<size_t>(offsets[rg + 1]) : size;
  uint64_t stored;
  std::memcpy(&stored, data + layout.checksums_at + rg * sizeof(uint64_t),
              sizeof(stored));
  if (Checksum64(data + begin, end - begin) != stored) {
    return Status::ChecksumMismatch("rowgroup payload checksum mismatch", begin);
  }
  return Status::Ok();
}

/// Zone-map sanity. NaN bounds can never satisfy MayContain correctly, and
/// min > max is only legal in the empty-vector sentinel form.
Status ValidateZoneMap(const uint8_t* data, const IndexLayout& layout) {
  for (size_t v = 0; v < layout.total_vectors; ++v) {
    const size_t at = layout.stats_at + v * sizeof(VectorStats);
    VectorStats vs;
    std::memcpy(&vs, data + at, sizeof(vs));
    if (std::isnan(vs.min) || std::isnan(vs.max)) {
      return Status::Corrupt("zone map entry contains NaN", at);
    }
    const bool empty_sentinel =
        vs.min == std::numeric_limits<double>::infinity() &&
        vs.max == -std::numeric_limits<double>::infinity();
    if (vs.min > vs.max && !empty_sentinel) {
      return Status::Corrupt("zone map entry has min > max", at);
    }
  }
  return Status::Ok();
}

/// Runs fn(i) for i in [0, n) and returns the lowest-indexed failure, so
/// the Status does not depend on \p pool. Inline (null pool) the loop stops
/// at that failure; on a pool every index runs.
template <typename Fn>
Status FirstFailure(ThreadPool* pool, size_t n, const Fn& fn) {
  if (pool == nullptr) {
    for (size_t i = 0; i < n; ++i) {
      Status s = fn(i);
      if (!s.ok()) return s;
    }
    return Status::Ok();
  }
  std::vector<Status> results(n);
  ParallelFor(pool, n, [&](size_t i) { results[i] = fn(i); });
  for (Status& r : results) {
    if (!r.ok()) return std::move(r);
  }
  return Status::Ok();
}

}  // namespace

/// Filled field by field by ParseVector (no initializers: the view is built
/// once per decoded vector); the ALP-only fields are unset for ALP_rd.
template <typename T>
struct ColumnReader<T>::VectorView {
  using Uint = typename AlpTraits<T>::Uint;
  size_t at;         ///< Offset of the vector header.
  size_t packed_at;  ///< Offset of the packed words (end of the header).
  size_t exc_at;     ///< Offset of the exception values.
  size_t end;        ///< One past the exception positions.
  unsigned n;
  uint16_t exc_count;
  unsigned width;  ///< ALP: FFOR/Delta width; ALP_rd: right + dict width.
  // ALP only.
  Combination c;
  uint8_t int_encoding;
  uint64_t base;  ///< FOR base / first delta value.
  // Streams, all inside the buffer.
  const Uint* packed;         ///< ALP_rd: right parts, then codes.
  const Uint* exc_bits;       ///< ALP exception value bits.
  const uint16_t* exc_lefts;  ///< ALP_rd exception left parts.
  const uint16_t* positions;  ///< Exception positions, each < n.
};

template <typename T>
Status ColumnReader<T>::ParseRowgroup(size_t rg, size_t offset, bool walk) {
  RowgroupInfo& info = rowgroups_[rg];
  if (data_ == nullptr || offset >= size_ || size_ - offset < sizeof(RowgroupHeader)) {
    return Status::Truncated("truncated rowgroup header", offset);
  }
  RowgroupHeader header;
  std::memcpy(&header, data_ + offset, sizeof(header));
  if (header.scheme > 1) return Status::Corrupt("unknown rowgroup scheme", offset);
  // Each rowgroup must hold exactly its share of the column's vectors.
  info.first_vector = rg * kRowgroupVectors;
  const size_t expected_vectors =
      std::min<size_t>(kRowgroupVectors, vector_count_ - info.first_vector);
  if (header.vector_count != expected_vectors) {
    return Status::Corrupt("rowgroup vector count inconsistent with value count",
                           offset);
  }
  info.byte_offset = offset;
  info.scheme = static_cast<Scheme>(header.scheme);
  info.vector_count = header.vector_count;

  size_t index_at = offset + sizeof(RowgroupHeader);
  if (info.scheme == Scheme::kAlpRd) {
    if (size_ - index_at < sizeof(RdHeader)) {
      return Status::Truncated("truncated ALP_rd header", index_at);
    }
    RdHeader rd;
    std::memcpy(&rd, data_ + index_at, sizeof(rd));
    // The encoder cuts at most kRdMaxLeftBits from the top, so right_bits
    // lies in [48, 64) for doubles and [16, 32) for floats; anything else
    // makes the glue shift undefined. Codes index an 8-entry dictionary.
    if (rd.right_bits < AlpTraits<T>::kValueBits - kRdMaxLeftBits ||
        rd.right_bits >= AlpTraits<T>::kValueBits) {
      return Status::Corrupt("ALP_rd cut position out of range", index_at);
    }
    if (rd.dict_size > kRdMaxDictSize || rd.dict_width > kRdMaxDictWidth) {
      return Status::Corrupt("ALP_rd dictionary too big", index_at);
    }
    info.rd.right_bits = rd.right_bits;
    info.rd.dict_width = rd.dict_width;
    info.rd.dict_size = rd.dict_size;
    std::memcpy(info.rd.dict, rd.dict, sizeof(info.rd.dict));
    RdDictShifted(info.rd, info.rd_dict_shifted);
    index_at += sizeof(RdHeader);
  }
  if (size_ - index_at < size_t{header.vector_count} * sizeof(uint32_t)) {
    return Status::Truncated("truncated vector offset index", index_at);
  }
  info.vector_offsets.resize(header.vector_count);
  for (uint32_t v = 0; v < header.vector_count; ++v) {
    const size_t entry_at = index_at + v * sizeof(uint32_t);
    uint32_t& vec_off = info.vector_offsets[v];
    std::memcpy(&vec_off, data_ + entry_at, sizeof(vec_off));
    if (vec_off % 8 != 0) return Status::Corrupt("misaligned vector offset", entry_at);
    if (v > 0 && vec_off <= info.vector_offsets[v - 1]) {
      return Status::Corrupt("vector offsets not increasing", entry_at);
    }
    // Room for the larger (ALP) vector header, which ParseVector relies on.
    const size_t vec_at = offset + vec_off;
    if (vec_at >= size_ || size_ - vec_at < sizeof(AlpVectorHeader)) {
      return Status::Corrupt("vector offset out of bounds", entry_at);
    }
  }
  if (!walk) return Status::Ok();
  VectorView view;
  for (uint32_t v = 0; v < header.vector_count; ++v) {
    Status s = ParseVector(info, v, &view);
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

template <typename T>
Status ColumnReader<T>::ParseVector(const RowgroupInfo& rg, size_t local_v,
                                    VectorView* view) const {
  using Uint = typename AlpTraits<T>::Uint;
  // One packed bit-width unit is a 1024-bit lane row: 128 bytes for both
  // lane types.
  constexpr size_t kRowBytes = fastlanes::kLanes<Uint> * sizeof(Uint);
  // ParseRowgroup checked that a full AlpVectorHeader fits at every offset.
  const size_t at = rg.byte_offset + rg.vector_offsets[local_v];
  const unsigned expect_n = VectorLength(rg.first_vector + local_v);
  size_t header_bytes;
  size_t exc_value_bytes;
  if (rg.scheme == Scheme::kAlp) {
    AlpVectorHeader header;
    std::memcpy(&header, data_ + at, sizeof(header));
    if (header.e > AlpTraits<T>::kMaxExponent || header.f > header.e) {
      return Status::Corrupt("ALP exponent/factor out of range", at);
    }
    if (header.width > AlpTraits<T>::kValueBits) {
      return Status::Corrupt("packed width out of range", at);
    }
    if (header.int_encoding > kIntDelta ||
        (header.int_encoding == kIntDelta && sizeof(T) != 8)) {
      return Status::Corrupt("unknown integer encoding", at);
    }
    if (header.n != expect_n || header.exc_count > header.n) {
      return Status::Corrupt("vector counts out of range", at);
    }
    view->exc_count = header.exc_count;
    view->width = header.width;
    view->c = Combination{header.e, header.f};
    view->int_encoding = header.int_encoding;
    view->base = header.base;
    header_bytes = sizeof(AlpVectorHeader);
    exc_value_bytes = sizeof(Uint);
  } else {
    RdVectorHeader header;
    std::memcpy(&header, data_ + at, sizeof(header));
    if (header.n != expect_n || header.exc_count > header.n) {
      return Status::Corrupt("vector counts out of range", at);
    }
    view->exc_count = header.exc_count;
    view->width = unsigned{rg.rd.right_bits} + rg.rd.dict_width;
    header_bytes = sizeof(RdVectorHeader);
    exc_value_bytes = sizeof(uint16_t);
  }
  const size_t exc = view->exc_count;
  view->at = at;
  view->n = expect_n;
  view->packed_at = at + header_bytes;
  view->exc_at = view->packed_at + view->width * kRowBytes;
  const size_t positions_at = view->exc_at + exc * exc_value_bytes;
  view->end = positions_at + exc * sizeof(uint16_t);
  if (view->end > size_) return Status::Truncated("vector payload truncated", at);
  // Positions index the decode output, so they are checked before anything
  // is patched: a branch-free max on the hot path (this runs on every
  // decode and packed view), and a second pass only to name the culprit.
  const uint16_t* positions = reinterpret_cast<const uint16_t*>(data_ + positions_at);
  uint16_t max_pos = 0;
  for (size_t i = 0; i < exc; ++i) max_pos = std::max(max_pos, positions[i]);
  if (max_pos >= expect_n) {  // expect_n >= 1 for every vector.
    const size_t i = std::find_if(positions, positions + exc,
                                  [&](uint16_t p) { return p >= expect_n; }) -
                     positions;
    return Status::Corrupt("exception position out of range",
                           positions_at + i * sizeof(uint16_t));
  }
  view->packed = reinterpret_cast<const Uint*>(data_ + view->packed_at);
  view->exc_bits = reinterpret_cast<const Uint*>(data_ + view->exc_at);
  view->exc_lefts = reinterpret_cast<const uint16_t*>(data_ + view->exc_at);
  view->positions = positions;
  return Status::Ok();
}

template <typename T>
Status ColumnReader<T>::Load(const uint8_t* data, size_t size, bool verify,
                             ThreadPool* pool, const OpContext* ctx) {
  StatusOr<IndexLayout> parsed = ParseColumnHeader<T>(data, size);
  if (!parsed.ok()) return parsed.status();
  const IndexLayout& layout = *parsed;
  // Check that all index sections fit before sizing any allocation by the
  // (still untrusted) counts.
  if (layout.payload_begin > size) {
    return Status::Truncated("truncated index sections", sizeof(ColumnHeader));
  }
  std::vector<uint64_t> offsets;
  Status s = ParseRowgroupIndex(data, size, layout, verify, &offsets);
  if (!s.ok()) return s;

  // Verification phases: checksums for all rowgroups, then the zone map,
  // then the structure of all rowgroups; within a phase the lowest-indexed
  // rowgroup's failure wins. Cancellation is polled once per rowgroup per
  // phase and shares that reduction.
  const auto poll = [ctx] { return ctx != nullptr ? ctx->Check() : Status::Ok(); };
  if (verify && layout.version >= 3) {
    s = FirstFailure(pool, offsets.size(), [&](size_t rg) {
      ALP_OBS_SPAN(checksum_span, "decompress.validate_checksum", 1);
      Status cs = poll();
      if (cs.ok()) cs = fault::Check("column.validate_checksum");
      return cs.ok() ? VerifyRowgroupChecksum(data, size, layout, offsets, rg) : cs;
    });
    if (!s.ok()) return s;
  }
  if (verify) {
    s = ValidateZoneMap(data, layout);
    if (!s.ok()) return s;
  }

  data_ = data;
  size_ = size;
  version_ = layout.version;
  value_count_ = layout.value_count;
  vector_count_ = layout.total_vectors;
  stats_.resize(vector_count_);
  if (!stats_.empty()) {
    std::memcpy(stats_.data(), data + layout.stats_at,
                stats_.size() * sizeof(VectorStats));
  }
  rowgroups_.resize(offsets.size());
  if (!verify) {
    return FirstFailure(nullptr, offsets.size(), [&](size_t rg) {
      return ParseRowgroup(rg, offsets[rg], /*walk=*/false);
    });
  }
  return FirstFailure(pool, offsets.size(), [&](size_t rg) {
    ALP_OBS_SPAN(structure_span, "decompress.validate_structure", 1);
    Status cs = poll();
    return cs.ok() ? ParseRowgroup(rg, offsets[rg], /*walk=*/true) : cs;
  });
}

template <typename T>
ColumnReader<T>::ColumnReader(const uint8_t* data, size_t size) {
  Status s = Load(data, size, /*verify=*/false, nullptr, nullptr);
  if (!s.ok()) *this = ColumnReader();  // Empty, never half-built.
  status_ = std::move(s);
}

template <typename T>
StatusOr<ColumnReader<T>> ColumnReader<T>::Open(const uint8_t* data, size_t size,
                                                ThreadPool* pool) {
  ColumnReader<T> reader;
  Status s = reader.Load(data, size, /*verify=*/true, pool, nullptr);
  if (!s.ok()) return s;
  reader.status_ = Status::Ok();
  return reader;
}

template <typename T>
StatusOr<ColumnReader<T>> ColumnReader<T>::OpenRowgroupChunk(
    const uint8_t* chunk, size_t chunk_size, uint64_t value_count) {
  if (value_count == 0 || value_count > kRowgroupSize) {
    return Status::Corrupt("rowgroup value count out of range");
  }
  // A chunk is rowgroup 0 of a one-rowgroup column starting at offset 0 —
  // the payload format is position-independent, so the rowgroup parse and
  // vector walk apply unchanged with chunk-relative offsets.
  ColumnReader<T> reader;
  reader.data_ = chunk;
  reader.size_ = chunk_size;
  reader.value_count_ = value_count;
  reader.vector_count_ = (value_count + kVectorSize - 1) / kVectorSize;
  reader.version_ = kColumnFormatVersion;
  reader.rowgroups_.resize(1);
  Status s = reader.ParseRowgroup(0, 0, /*walk=*/true);
  if (!s.ok()) return s;
  reader.status_ = Status::Ok();
  return reader;
}

template <typename T>
unsigned ColumnReader<T>::VectorLength(size_t v) const {
  const size_t begin = v * kVectorSize;
  return static_cast<unsigned>(std::min<size_t>(kVectorSize, value_count_ - begin));
}

template <typename T>
Scheme ColumnReader<T>::VectorScheme(size_t v) const {
  return rowgroups_[v / kRowgroupVectors].scheme;
}

template <typename T>
uint16_t ColumnReader<T>::VectorExceptionCount(size_t v) const {
  if (v >= vector_count_) return 0;
  const RowgroupInfo& rg = rowgroups_[v / kRowgroupVectors];
  VectorView view;
  return ParseVector(rg, v - rg.first_vector, &view).ok() ? view.exc_count : 0;
}

template <typename T>
bool ColumnReader<T>::GetPackedVectorView(size_t v, PackedVectorView* view) const {
  if (v >= vector_count_) return false;
  const RowgroupInfo& rg = rowgroups_[v / kRowgroupVectors];
  if (rg.scheme != Scheme::kAlp) return false;
  VectorView vv;
  if (!ParseVector(rg, v - rg.first_vector, &vv).ok()) return false;
  if (vv.int_encoding != kIntFfor) return false;  // Delta: no lane frame
  view->packed = vv.packed;
  view->exc_bits = vv.exc_bits;
  view->exc_positions = vv.positions;
  view->ffor.base = vv.base;
  view->ffor.width = vv.width;
  view->c = vv.c;
  view->n = vv.n;
  view->exc_count = vv.exc_count;
  return true;
}

template <typename T>
Status ColumnReader<T>::DecodeChecked(size_t v, T* out) const {
  if (v >= vector_count_) return Status::Corrupt("vector index out of range");
  const RowgroupInfo& rg = rowgroups_[v / kRowgroupVectors];
  VectorView view;
  Status s = ParseVector(rg, v - rg.first_vector, &view);
  if (!s.ok()) return s;

  const auto decode_full = [&](T* dst) {
    if (rg.scheme == Scheme::kAlp) {
      if (view.int_encoding == kIntDelta) {
        if constexpr (sizeof(T) == 8) {
          // Delta path: unpack + prefix sum, then the ALP_dec multiplies.
          fastlanes::DeltaParams delta;
          delta.first = static_cast<int64_t>(view.base);
          delta.width = view.width;
          int64_t ints[kVectorSize];
          fastlanes::DeltaDecode(view.packed, ints, delta);
          alp::DecodeVector<T>(ints, view.c, dst);
        }
      } else {
        fastlanes::FforParams ffor;
        ffor.base = view.base;
        ffor.width = view.width;
        kernels::DecodeAlpFused<T>(view.packed, ffor, view.c, dst);
      }
      kernels::PatchExceptionBits<T>(dst, view.exc_bits, view.positions,
                                     view.exc_count);
      return;
    }
    // Fused unpack-right || unpack-codes || dictionary-OR through the
    // dispatched kernel tier, then the (rare) left-part exception patches.
    const auto* codes = view.packed + size_t{rg.rd.right_bits} *
                                          fastlanes::kLanes<typename AlpTraits<T>::Uint>;
    kernels::RdDecodeFused<T>(view.packed, codes, rg.rd.right_bits,
                              rg.rd.dict_width, rg.rd_dict_shifted, dst);
    RdPatchExceptions(dst, view.exc_lefts, view.positions, view.exc_count,
                      rg.rd.right_bits);
  };
  // Kernels always produce 1024 lanes: full vectors decode straight into
  // out, the column's tail vector goes through scratch.
  if (view.n == kVectorSize) {
    decode_full(out);
  } else {
    alignas(64) T full[kVectorSize];
    decode_full(full);
    std::memcpy(out, full, view.n * sizeof(T));
  }
  return Status::Ok();
}

template <typename T>
void ColumnReader<T>::DecodeVector(size_t v, T* out) const {
  (void)DecodeChecked(v, out);
}

template <typename T>
Status ColumnReader<T>::TryDecodeVector(size_t v, T* out,
                                        const OpContext* ctx) const {
  if (!ok()) return status_;
  if (ctx != nullptr) {
    Status cs = ctx->Check();
    if (!cs.ok()) return cs;
  }
  ALP_FAULT("column.decode_vector");
  return DecodeChecked(v, out);
}

template <typename T>
Status ColumnReader<T>::TryDecodeAll(T* out, const OpContext* ctx,
                                     ThreadPool* pool) const {
  if (!ok()) return status_;
  // Rowgroup-sized blocks of global vector indexes: each block writes a
  // disjoint region of out and stops at its first failing vector.
  const size_t blocks = (vector_count_ + kRowgroupVectors - 1) / kRowgroupVectors;
  return FirstFailure(pool, blocks, [&](size_t b) {
    const size_t v_begin = b * kRowgroupVectors;
    const size_t v_end =
        std::min<size_t>((b + 1) * kRowgroupVectors, vector_count_);
    ALP_OBS_SPAN(rg_span, "decompress.rowgroup",
                 std::min<size_t>(v_end * kVectorSize, value_count_) -
                     v_begin * kVectorSize);
    ALP_OBS_ONLY({
      const int worker = ThreadPool::CurrentWorkerIndex();
      if (worker >= 0) {
        static obs::Histogram& by_worker =
            obs::MetricRegistry::Global().GetHistogram(
                "decompress.rowgroups_by_worker",
                {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
                "worker");
        by_worker.Record(static_cast<uint64_t>(worker));
      }
    });
    for (size_t v = v_begin; v < v_end; ++v) {
      Status s = TryDecodeVector(v, out + v * kVectorSize, ctx);
      if (!s.ok()) return s;
    }
    return Status::Ok();
  });
}

template <typename T>
Status ValidateColumnEx(const uint8_t* data, size_t size, const OpContext* ctx,
                        ThreadPool* pool) {
  ColumnReader<T> reader;
  return reader.Load(data, size, /*verify=*/true, pool, ctx);
}

template <typename T>
Status DecompressColumn(const std::vector<uint8_t>& buffer, T* out) {
  ColumnReader<T> reader(buffer.data(), buffer.size());
  return reader.TryDecodeAll(out);
}

namespace internal {

template <typename T>
StatusOr<size_t> ColumnIndexRegionSize(const uint8_t* header_bytes, size_t len) {
  StatusOr<IndexLayout> layout = ParseColumnHeader<T>(header_bytes, len);
  if (!layout.ok()) return layout.status();
  return layout->payload_begin;
}

template <typename T>
StatusOr<ColumnIndex> ParseColumnIndex(const uint8_t* region,
                                       size_t region_size, uint64_t file_size) {
  StatusOr<IndexLayout> parsed = ParseColumnHeader<T>(region, region_size);
  if (!parsed.ok()) return parsed.status();
  const IndexLayout& layout = *parsed;
  if (layout.payload_begin > region_size || region_size > file_size) {
    return Status::Truncated("truncated index sections", sizeof(ColumnHeader));
  }
  // Only bytes below payload_begin (all present in the region) are read;
  // the full file size bounds the rowgroup offsets exactly as it would for
  // an in-memory buffer.
  ColumnIndex index;
  Status s = ParseRowgroupIndex(region, file_size, layout, /*verify_checksum=*/true,
                                &index.rowgroup_offsets);
  if (!s.ok()) return s;
  s = ValidateZoneMap(region, layout);
  if (!s.ok()) return s;

  index.version = layout.version;
  index.value_count = layout.value_count;
  index.total_vectors = layout.total_vectors;
  index.payload_begin = layout.payload_begin;
  if (layout.version >= 3) {
    index.rowgroup_checksums.resize(index.rowgroup_offsets.size());
    std::memcpy(index.rowgroup_checksums.data(), region + layout.checksums_at,
                index.rowgroup_checksums.size() * sizeof(uint64_t));
  }
  index.stats.resize(layout.total_vectors);
  if (!index.stats.empty()) {
    std::memcpy(index.stats.data(), region + layout.stats_at,
                index.stats.size() * sizeof(VectorStats));
  }
  return index;
}

template StatusOr<size_t> ColumnIndexRegionSize<double>(const uint8_t*, size_t);
template StatusOr<size_t> ColumnIndexRegionSize<float>(const uint8_t*, size_t);
template StatusOr<ColumnIndex> ParseColumnIndex<double>(const uint8_t*, size_t,
                                                        uint64_t);
template StatusOr<ColumnIndex> ParseColumnIndex<float>(const uint8_t*, size_t,
                                                       uint64_t);

}  // namespace internal

// ---------------------------------------------------------------------------
// ColumnMetaCursor
// ---------------------------------------------------------------------------

template <typename T>
StatusOr<ColumnMetaCursor<T>> ColumnMetaCursor<T>::Open(const uint8_t* data,
                                                        size_t size) {
  StatusOr<ColumnReader<T>> reader = ColumnReader<T>::Open(data, size);
  if (!reader.ok()) return reader.status();
  ColumnMetaCursor<T> cursor(std::move(reader).value());

  // Belt and braces for the byte accounting: the parser guarantees every
  // read stays in bounds, but the accounting additionally needs the
  // rowgroups to tile the payload region — first rowgroup right after the
  // index sections, offsets ascending. A buffer that passes validation yet
  // breaks the tiling would silently unbalance the explain report, so it is
  // rejected here instead.
  const ColumnReader<T>& r = cursor.reader_;
  const size_t payload_begin = ParseColumnHeader<T>(data, size)->payload_begin;
  if (!r.rowgroups_.empty() && r.rowgroups_.front().byte_offset != payload_begin) {
    return Status::Corrupt("first rowgroup does not start at payload begin",
                           r.rowgroups_.front().byte_offset);
  }
  if (r.rowgroups_.empty() && payload_begin != size) {
    return Status::Corrupt("empty column with trailing bytes", payload_begin);
  }
  for (size_t rg = 0; rg + 1 < r.rowgroups_.size(); ++rg) {
    if (r.rowgroups_[rg + 1].byte_offset <= r.rowgroups_[rg].byte_offset) {
      return Status::Corrupt("rowgroup offsets not strictly ascending",
                             r.rowgroups_[rg + 1].byte_offset);
    }
  }
  return cursor;
}

template <typename T>
size_t ColumnMetaCursor<T>::column_header_bytes() const {
  return sizeof(ColumnHeader);
}

template <typename T>
size_t ColumnMetaCursor<T>::rowgroup_index_bytes() const {
  return reader_.rowgroups_.size() * sizeof(uint64_t);
}

template <typename T>
size_t ColumnMetaCursor<T>::checksum_bytes() const {
  if (reader_.format_version() < 3) return 0;
  return reader_.rowgroups_.size() * sizeof(uint64_t) + sizeof(uint64_t);
}

template <typename T>
size_t ColumnMetaCursor<T>::zone_map_bytes() const {
  return reader_.vector_count_ * sizeof(VectorStats);
}

template <typename T>
size_t ColumnMetaCursor<T>::RowgroupExtent(size_t rg) const {
  const auto& rowgroups = reader_.rowgroups_;
  const size_t end = rg + 1 < rowgroups.size() ? rowgroups[rg + 1].byte_offset
                                               : reader_.size_;
  return end - rowgroups[rg].byte_offset;
}

template <typename T>
StatusOr<RowgroupMeta> ColumnMetaCursor<T>::Rowgroup(size_t rg) const {
  if (rg >= reader_.rowgroups_.size()) {
    return Status::Corrupt("rowgroup index out of range");
  }
  const auto& info = reader_.rowgroups_[rg];
  RowgroupMeta meta;
  meta.index = rg;
  meta.byte_offset = info.byte_offset;
  meta.byte_extent = RowgroupExtent(rg);
  meta.scheme = info.scheme;
  meta.vector_count = info.vector_count;
  meta.first_vector = info.first_vector;
  // Everything before the first vector is rowgroup-level header: the
  // RowgroupHeader, the RdHeader when present, the vector offset index and
  // its alignment pad. The 0-vector rowgroup of an empty column is all
  // header.
  meta.header_bytes =
      info.vector_count > 0 ? info.vector_offsets[0] : meta.byte_extent;
  if (meta.header_bytes > meta.byte_extent) {
    return Status::Corrupt("rowgroup header overruns rowgroup extent",
                           info.byte_offset);
  }
  if (info.scheme == Scheme::kAlpRd) {
    meta.rd_right_bits = info.rd.right_bits;
    meta.rd_dict_width = info.rd.dict_width;
    meta.rd_dict_size = info.rd.dict_size;
  }
  return meta;
}

template <typename T>
StatusOr<VectorMeta> ColumnMetaCursor<T>::Vector(size_t v) const {
  if (v >= reader_.vector_count_) {
    return Status::Corrupt("vector index out of range");
  }
  const size_t rg = v / kRowgroupVectors;
  const auto& info = reader_.rowgroups_[rg];
  const size_t local_v = v - info.first_vector;
  const size_t rg_extent = RowgroupExtent(rg);
  const uint32_t vec_off = info.vector_offsets[local_v];
  const size_t vec_end = local_v + 1 < info.vector_count
                             ? info.vector_offsets[local_v + 1]
                             : rg_extent;
  if (vec_end < vec_off || vec_end > rg_extent) {
    return Status::Corrupt("vector offsets not ascending within rowgroup",
                           info.byte_offset + vec_off);
  }
  typename ColumnReader<T>::VectorView view;
  Status s = reader_.ParseVector(info, local_v, &view);
  if (!s.ok()) return s;

  VectorMeta meta;
  meta.index = v;
  meta.rowgroup = rg;
  meta.scheme = info.scheme;
  meta.n = view.n;
  meta.byte_offset = view.at;
  meta.byte_extent = vec_end - vec_off;
  if (info.scheme == Scheme::kAlp) {
    meta.e = view.c.e;
    meta.f = view.c.f;
    meta.int_encoding = view.int_encoding;
    meta.base = view.base;
  }
  meta.bit_width = view.width;
  meta.exc_count = view.exc_count;
  meta.header_bytes = view.packed_at - view.at;
  meta.packed_bytes = view.exc_at - view.packed_at;
  meta.exception_bytes = view.end - view.exc_at;  // Values + positions.

  const size_t used = view.end - view.at;
  if (used > meta.byte_extent) {
    return Status::Corrupt("vector streams overrun vector extent",
                           meta.byte_offset);
  }
  meta.padding_bytes = meta.byte_extent - used;
  if (meta.padding_bytes >= 8) {
    // Streams are 8-aligned with at most 7 pad bytes; more means the offset
    // index left a hole the accounting cannot attribute.
    return Status::Corrupt("unaccounted gap after vector streams",
                           meta.byte_offset + used);
  }
  return meta;
}

template <typename T>
Status ColumnMetaCursor<T>::ReadExceptionPositions(
    const VectorMeta& vm, std::vector<uint16_t>* out) const {
  out->clear();
  if (vm.index >= reader_.vector_count_) {
    return Status::Corrupt("vector index out of range");
  }
  const auto& info = reader_.rowgroups_[vm.index / kRowgroupVectors];
  typename ColumnReader<T>::VectorView view;
  Status s = reader_.ParseVector(info, vm.index - info.first_vector, &view);
  if (!s.ok()) return s;
  out->assign(view.positions, view.positions + view.exc_count);
  return Status::Ok();
}

template std::vector<uint8_t> CompressColumn<double>(const double*, size_t,
                                                     const SamplerConfig&,
                                                     CompressionInfo*, ThreadPool*);
template std::vector<uint8_t> CompressColumn<float>(const float*, size_t,
                                                    const SamplerConfig&,
                                                    CompressionInfo*, ThreadPool*);
template class ColumnReader<double>;
template class ColumnReader<float>;
template class ColumnMetaCursor<double>;
template class ColumnMetaCursor<float>;
template Status ValidateColumnEx<double>(const uint8_t*, size_t,
                                         const OpContext*, ThreadPool*);
template Status ValidateColumnEx<float>(const uint8_t*, size_t,
                                        const OpContext*, ThreadPool*);
template Status DecompressColumn<double>(const std::vector<uint8_t>&, double*);
template Status DecompressColumn<float>(const std::vector<uint8_t>&, float*);

}  // namespace alp
