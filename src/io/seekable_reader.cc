#include "io/seekable_reader.h"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "alp/constants.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/checksum.h"
#include "util/fault_injection.h"

namespace alp::io {
namespace {

/// Cache-key namespace allocator: every opened reader gets a fresh id, so
/// cache entries can never alias across readers (or across re-opens of the
/// same file — a reopened column starts cold, which is the conservative
/// choice when the file may have been rewritten in between).
std::atomic<uint64_t> g_next_column_id{1};

/// sizeof(ColumnHeader): the fixed prefix that sizes the index region.
constexpr size_t kColumnHeaderBytes = 24;

/// Chunk-open and chunk-decode Statuses carry chunk-relative offsets;
/// rebase them onto the file so diagnostics match the in-memory reader's.
Status RebaseOffset(Status s, uint64_t chunk_base) {
  if (s.ok() || s.offset() == Status::kNoOffset) return s;
  return Status(s.code(), s.message(), s.offset() + chunk_base);
}

#if ALP_OBS
obs::Counter& ChunkReadCounter() {
  static obs::Counter& c =
      obs::MetricRegistry::Global().GetCounter("io.chunk.reads");
  return c;
}
obs::Counter& ChunkBytesCounter() {
  static obs::Counter& c =
      obs::MetricRegistry::Global().GetCounter("io.chunk.bytes");
  return c;
}
#endif

}  // namespace

template <typename T>
StatusOr<std::shared_ptr<SeekableReader<T>>> SeekableReader<T>::Open(
    std::shared_ptr<RandomAccessSource> source, SeekableReaderOptions options) {
  if (source == nullptr) return Status::Io("null source");
  const uint64_t file_size = source->size();
  if (file_size < kColumnHeaderBytes) {
    return Status::Truncated("buffer smaller than the column header");
  }
  uint8_t header[kColumnHeaderBytes];
  Status s = source->ReadAt(0, sizeof(header), header);
  if (!s.ok()) return s;
  StatusOr<size_t> region_size =
      alp::internal::ColumnIndexRegionSize<T>(header, sizeof(header));
  if (!region_size.ok()) return region_size.status();
  if (*region_size > file_size) {
    return Status::Truncated("truncated index sections", kColumnHeaderBytes);
  }
  std::vector<uint8_t> region(*region_size);
  s = source->ReadAt(0, region.size(), region.data());
  if (!s.ok()) return s;
  StatusOr<alp::internal::ColumnIndex> index =
      alp::internal::ParseColumnIndex<T>(region.data(), region.size(),
                                         file_size);
  if (!index.ok()) return index.status();
  return std::shared_ptr<SeekableReader<T>>(new SeekableReader<T>(
      std::move(source), options, std::move(*index)));
}

template <typename T>
SeekableReader<T>::SeekableReader(std::shared_ptr<RandomAccessSource> source,
                                  SeekableReaderOptions options,
                                  alp::internal::ColumnIndex index)
    : source_(std::move(source)),
      options_(std::move(options)),
      index_(std::move(index)),
      column_id_(g_next_column_id.fetch_add(1, std::memory_order_relaxed)) {
#if ALP_OBS
  if (!options_.column_label.empty()) {
    auto& registry = obs::MetricRegistry::Global();
    labeled_cache_hits_ = &registry.GetCounter(obs::LabeledName(
        "io.cache.hit", {{"column", options_.column_label}}));
    labeled_cache_misses_ = &registry.GetCounter(obs::LabeledName(
        "io.cache.miss", {{"column", options_.column_label}}));
  }
#endif
}

template <typename T>
unsigned SeekableReader<T>::VectorLength(size_t v) const {
  const uint64_t begin = uint64_t{v} * kVectorSize;
  return static_cast<unsigned>(
      std::min<uint64_t>(kVectorSize, index_.value_count - begin));
}

template <typename T>
uint64_t SeekableReader<T>::RowgroupValueCount(size_t rg) const {
  const uint64_t first = uint64_t{rg} * kRowgroupSize;
  if (first >= index_.value_count) return 0;
  return std::min<uint64_t>(kRowgroupSize, index_.value_count - first);
}

template <typename T>
Status SeekableReader<T>::LoadChunk(size_t rg,
                                   std::vector<uint8_t>* bytes) const {
  ALP_FAULT("io.chunk_read");
  const uint64_t begin = index_.rowgroup_offsets[rg];
  const uint64_t end = rg + 1 < index_.rowgroup_offsets.size()
                           ? index_.rowgroup_offsets[rg + 1]
                           : source_->size();
  {
    ALP_OBS_SPAN(fetch_span, "io.chunk_fetch", end - begin);
    bytes->resize(end - begin);
    Status s = source_->ReadAt(begin, bytes->size(), bytes->data());
    if (!s.ok()) return s;
  }
  ALP_OBS_ONLY({
    ChunkReadCounter().Increment();
    ChunkBytesCounter().Add(end - begin);
  });
  // Verify before anything downstream touches the bytes (v3; a v2 file has
  // no per-rowgroup checksums and relies on the structural walk alone).
  if (!index_.rowgroup_checksums.empty() &&
      Checksum64(bytes->data(), bytes->size()) != index_.rowgroup_checksums[rg]) {
    return Status::ChecksumMismatch("rowgroup payload checksum mismatch", begin);
  }
  return Status::Ok();
}

template <typename T>
SeekableReader<T>::RowgroupCursor::RowgroupCursor(
    const SeekableReader& reader, size_t rg, const OpContext* ctx)
    : reader_(reader),
      rg_(rg),
      ctx_(ctx),
      caching_(reader.options_.cache != nullptr &&
               reader.options_.cache->capacity_bytes() > 0) {
  // Per-request attribution: every cache decision, chunk fetch and decode
  // on this path is credited to the owning request's flight recorder.
  if (ctx != nullptr && ctx->request != nullptr) {
    recorder_ = ctx->request->recorder;
  }
}

template <typename T>
Status SeekableReader<T>::RowgroupCursor::Fetch(size_t v, const T** values) {
  *values = nullptr;
  if (ctx_ != nullptr) {
    Status cs = ctx_->Check();
    if (!cs.ok()) return cs;
  }
  if (caching_) {
    hit_ = reader_.options_.cache->Lookup(reader_.column_id_, v);
    if (hit_ != nullptr) {
      ALP_OBS_ONLY({
        if (reader_.labeled_cache_hits_ != nullptr) {
          reader_.labeled_cache_hits_->Increment();
        }
        if (recorder_ != nullptr) recorder_->Count("io.cache.hit");
      });
      *values = reinterpret_cast<const T*>(hit_->data());
      return Status::Ok();
    }
    ALP_OBS_ONLY({
      if (reader_.labeled_cache_misses_ != nullptr) {
        reader_.labeled_cache_misses_->Increment();
      }
      if (recorder_ != nullptr) recorder_->Count("io.cache.miss");
    });
  }
  if (chunk_reader_.has_value()) return Status::Ok();
  Status s = reader_.LoadChunk(rg_, &chunk_);
  if (!s.ok()) return s;
  ALP_OBS_ONLY({
    if (recorder_ != nullptr) {
      recorder_->Count("io.chunk.reads");
      recorder_->Count("io.chunk.bytes", chunk_.size());
    }
  });
  StatusOr<ColumnReader<T>> opened = ColumnReader<T>::OpenRowgroupChunk(
      chunk_.data(), chunk_.size(), reader_.RowgroupValueCount(rg_));
  if (!opened.ok()) {
    return RebaseOffset(opened.status(), reader_.index_.rowgroup_offsets[rg_]);
  }
  chunk_reader_.emplace(std::move(*opened));
  return Status::Ok();
}

template <typename T>
Status SeekableReader<T>::RowgroupCursor::Decode(size_t v, T* out,
                                                 bool publish) {
  // Fetch polled ctx for this vector; the decode does not poll it again.
  const size_t lv = v % kRowgroupVectors;
  Status ds = chunk_reader_->TryDecodeVector(lv, out);
  if (!ds.ok()) {
    return RebaseOffset(std::move(ds), reader_.index_.rowgroup_offsets[rg_]);
  }
  ALP_OBS_ONLY({
    if (recorder_ != nullptr) {
      // ALP exceptions patched in this vector — the per-request cousin of
      // the aggregate exceptions-per-vector histogram. The header is
      // re-read only for recorded requests.
      recorder_->Count("decode.exceptions",
                       chunk_reader_->VectorExceptionCount(lv));
    }
  });
  if (publish && caching_) {
    // Published only after a fully successful decode: the cache never
    // holds bytes that did not verify end-to-end.
    const uint8_t* raw = reinterpret_cast<const uint8_t*>(out);
    reader_.options_.cache->Insert(
        reader_.column_id_, v,
        std::make_shared<const std::vector<uint8_t>>(
            raw, raw + size_t{reader_.VectorLength(v)} * sizeof(T)));
  }
  return Status::Ok();
}

template <typename T>
Status SeekableReader<T>::ScanRowgroup(size_t rg, const Visitor& visit,
                                       const OpContext* ctx) const {
  const size_t first_vector = rg * kRowgroupVectors;
  const size_t end_vector =
      first_vector + (RowgroupValueCount(rg) + kVectorSize - 1) / kVectorSize;
  RowgroupCursor cursor(*this, rg, ctx);
  // Full-width scratch: tail vectors still unpack kVectorSize lanes.
  T scratch[kVectorSize];
  for (size_t v = first_vector; v < end_vector; ++v) {
    const T* values;
    Status s = cursor.Fetch(v, &values);
    if (s.ok() && values == nullptr) {
      s = cursor.Decode(v, scratch);
      values = scratch;
    }
    // A visitor error does not un-decode (or un-publish) the vector.
    if (s.ok()) s = visit(v, values, VectorLength(v));
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

template <typename T>
Status SeekableReader<T>::TryDecodeVector(size_t v, T* out,
                                          const OpContext* ctx) const {
  if (ctx != nullptr) {
    Status cs = ctx->Check();
    if (!cs.ok()) return cs;
  }
  if (v >= vector_count()) {
    return Status::Corrupt("vector index out of range");
  }
  RowgroupCursor cursor(*this, v / kRowgroupVectors, ctx);
  const T* values;
  Status s = cursor.Fetch(v, &values);
  // Full-width scratch: a tail vector still unpacks kVectorSize lanes.
  T scratch[kVectorSize];
  if (s.ok() && values == nullptr) {
    s = cursor.Decode(v, scratch);
    values = scratch;
  }
  if (!s.ok()) return s;
  std::memcpy(out, values, size_t{VectorLength(v)} * sizeof(T));
  return Status::Ok();
}

template <typename T>
Status SeekableReader<T>::TryDecodeRowgroup(size_t rg, T* out,
                                            const OpContext* ctx) const {
  if (rg >= rowgroup_count()) {
    return Status::Corrupt("rowgroup index out of range");
  }
  const size_t first_vector = rg * kRowgroupVectors;
  const Visitor copy_out = [out, first_vector](size_t v, const T* values,
                                               unsigned len) {
    std::memcpy(out + (v - first_vector) * kVectorSize, values,
                size_t{len} * sizeof(T));
    return Status::Ok();
  };
  return ScanRowgroup(rg, copy_out, ctx);
}

template <typename T>
Status SeekableReader<T>::TryDecodeAll(T* out, const OpContext* ctx) const {
  const Visitor copy_out = [out](size_t v, const T* values, unsigned len) {
    std::memcpy(out + v * kVectorSize, values, size_t{len} * sizeof(T));
    return Status::Ok();
  };
  return Scan(copy_out, ctx);
}

template <typename T>
Status SeekableReader<T>::Scan(const Visitor& visit,
                               const OpContext* ctx) const {
  ALP_OBS_SPAN(scan_span, "io.scan", index_.value_count);
  for (size_t rg = 0; rg < rowgroup_count(); ++rg) {
    Status s = ScanRowgroup(rg, visit, ctx);
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

template class SeekableReader<double>;
template class SeekableReader<float>;

}  // namespace alp::io
