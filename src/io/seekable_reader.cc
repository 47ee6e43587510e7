#include "io/seekable_reader.h"

#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <optional>
#include <unordered_map>

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
obs::Counter& PrefetchIssuedCounter() {
  static obs::Counter& c =
      obs::MetricRegistry::Global().GetCounter("io.prefetch.issued");
  return c;
}
obs::Counter& PrefetchFallbackCounter() {
  static obs::Counter& c =
      obs::MetricRegistry::Global().GetCounter("io.prefetch.sync_fallback");
  return c;
}
obs::Gauge& PrefetchDepthGauge() {
  static obs::Gauge& g =
      obs::MetricRegistry::Global().GetGauge("io.prefetch.depth");
  return g;
}
#endif

}  // namespace

/// One in-flight background chunk read. The task owns a shared_ptr, so a
/// slot abandoned by a cancelled scan stays valid until the task finishes;
/// the task captures only the source and this slot — never the reader —
/// so reader teardown cannot race it either.
template <typename T>
struct SeekableReader<T>::PrefetchSlot {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  Status status;
  std::vector<uint8_t> bytes;
};

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
void SeekableReader<T>::ChunkExtent(size_t rg, uint64_t* begin,
                                    uint64_t* end) const {
  *begin = index_.rowgroup_offsets[rg];
  *end = rg + 1 < index_.rowgroup_offsets.size()
             ? index_.rowgroup_offsets[rg + 1]
             : source_->size();
}

template <typename T>
Status SeekableReader<T>::LoadChunk(
    size_t rg, const std::shared_ptr<PrefetchSlot>& prefetched,
    std::vector<uint8_t>* bytes) const {
  // The fault site fires on the consume path whether the prefetcher or the
  // caller fetched the bytes, so injected chunk-read failures are
  // deterministic per touched rowgroup regardless of prefetch timing.
  ALP_FAULT("io.chunk_read");
  uint64_t begin, end;
  ChunkExtent(rg, &begin, &end);
  if (prefetched != nullptr) {
    std::unique_lock<std::mutex> lock(prefetched->mu);
    prefetched->cv.wait(lock, [&] { return prefetched->done; });
    if (!prefetched->status.ok()) return prefetched->status;
    *bytes = std::move(prefetched->bytes);
  } else {
    ALP_OBS_SPAN(fetch_span, "io.chunk_fetch", end - begin);
    bytes->resize(end - begin);
    Status s = source_->ReadAt(begin, bytes->size(), bytes->data());
    if (!s.ok()) return s;
    ALP_OBS_ONLY({
      ChunkReadCounter().Increment();
      ChunkBytesCounter().Add(end - begin);
    });
  }
  // Verify before anything downstream touches the bytes (v3; a v2 file has
  // no per-rowgroup checksums and relies on the structural walk alone).
  if (!index_.rowgroup_checksums.empty() &&
      Checksum64(bytes->data(), bytes->size()) != index_.rowgroup_checksums[rg]) {
    return Status::ChecksumMismatch("rowgroup payload checksum mismatch", begin);
  }
  return Status::Ok();
}

template <typename T>
std::shared_ptr<typename SeekableReader<T>::PrefetchSlot>
SeekableReader<T>::SchedulePrefetch(size_t rg) const {
  if (options_.prefetch_pool == nullptr || options_.prefetch_rowgroups == 0) {
    return nullptr;
  }
  uint64_t begin, end;
  ChunkExtent(rg, &begin, &end);
  auto slot = std::make_shared<PrefetchSlot>();
  std::shared_ptr<RandomAccessSource> source = source_;
  std::function<void()> task = [source, slot, begin, end] {
    ALP_OBS_SPAN(fetch_span, "io.chunk_fetch", end - begin);
    std::vector<uint8_t> bytes(end - begin);
    Status s = source->ReadAt(begin, bytes.size(), bytes.data());
    ALP_OBS_ONLY({
      if (s.ok()) {
        ChunkReadCounter().Increment();
        ChunkBytesCounter().Add(end - begin);
      }
    });
    std::lock_guard<std::mutex> lock(slot->mu);
    slot->status = std::move(s);
    if (slot->status.ok()) slot->bytes = std::move(bytes);
    slot->done = true;
    slot->cv.notify_all();
  };
  if (!options_.prefetch_pool->TrySubmit(&task, options_.prefetch_queue_limit)) {
    // Saturated (or shutting down) pool: degrade to a synchronous read on
    // first touch instead of queueing unbounded.
    ALP_OBS_ONLY(PrefetchFallbackCounter().Increment());
    return nullptr;
  }
  const int64_t depth =
      prefetch_outstanding_.fetch_add(1, std::memory_order_relaxed) + 1;
  (void)depth;
  ALP_OBS_ONLY({
    PrefetchIssuedCounter().Increment();
    PrefetchDepthGauge().Set(depth);
  });
  return slot;
}

template <typename T>
bool SeekableReader<T>::RowgroupWanted(size_t rg,
                                       const VectorFilter* want) const {
  const uint64_t rg_values = RowgroupValueCount(rg);
  if (rg_values == 0) return false;
  if (want == nullptr) return true;
  const size_t first_vector = rg * kRowgroupVectors;
  const size_t vectors = (rg_values + kVectorSize - 1) / kVectorSize;
  for (size_t lv = 0; lv < vectors; ++lv) {
    if ((*want)(first_vector + lv)) return true;
  }
  return false;
}

template <typename T>
Status SeekableReader<T>::VisitRowgroupImpl(
    size_t rg, const std::shared_ptr<PrefetchSlot>& prefetched,
    const Visitor& visit, const OpContext* ctx,
    const VectorFilter* want) const {
  const uint64_t rg_values = RowgroupValueCount(rg);
  if (rg_values == 0) return Status::Ok();
  const size_t first_vector = rg * kRowgroupVectors;
  const size_t vectors =
      static_cast<size_t>((rg_values + kVectorSize - 1) / kVectorSize);
  uint64_t chunk_base, chunk_end;
  ChunkExtent(rg, &chunk_base, &chunk_end);

  DecodedVectorCache* cache = options_.cache;
  const bool caching = cache != nullptr && cache->capacity_bytes() > 0;

  // Per-request attribution: every cache decision, chunk fetch and decode
  // on this path is credited to the owning request's flight recorder.
  // Compiled out with the rest of the IO instrumentation under
  // -DALP_OBS=OFF; one null check per vector otherwise.
#if ALP_OBS
  obs::FlightRecorder* recorder =
      ctx != nullptr && ctx->request != nullptr ? ctx->request->recorder
                                                : nullptr;
#endif

  std::vector<uint8_t> chunk;
  std::optional<ColumnReader<T>> chunk_reader;
  std::vector<T> scratch;

  for (size_t lv = 0; lv < vectors; ++lv) {
    const size_t v = first_vector + lv;
    if (want != nullptr && !(*want)(v)) continue;
    if (ctx != nullptr) {
      Status cs = ctx->Check();
      if (!cs.ok()) return cs;
    }
    const unsigned len = VectorLength(v);
    if (caching) {
      if (DecodedVectorCache::Value hit = cache->Lookup(column_id_, v)) {
        ALP_OBS_ONLY({
          if (labeled_cache_hits_ != nullptr) labeled_cache_hits_->Increment();
          if (recorder != nullptr) recorder->Count("io.cache.hit");
        });
        Status vs = visit(v, reinterpret_cast<const T*>(hit->data()), len);
        if (!vs.ok()) return vs;
        continue;
      }
      ALP_OBS_ONLY({
        if (labeled_cache_misses_ != nullptr) {
          labeled_cache_misses_->Increment();
        }
        if (recorder != nullptr) recorder->Count("io.cache.miss");
      });
    }
    if (!chunk_reader.has_value()) {
      Status s = LoadChunk(rg, prefetched, &chunk);
      if (!s.ok()) return s;
      ALP_OBS_ONLY({
        if (recorder != nullptr) {
          recorder->Count("io.chunk.reads");
          recorder->Count("io.chunk.bytes", chunk.size());
        }
      });
      StatusOr<ColumnReader<T>> opened = ColumnReader<T>::OpenRowgroupChunk(
          chunk.data(), chunk.size(), rg_values);
      if (!opened.ok()) return RebaseOffset(opened.status(), chunk_base);
      chunk_reader.emplace(std::move(*opened));
    }
    // Decode into a full-width scratch vector (tail vectors still unpack
    // kVectorSize lanes), then publish exactly len values.
    scratch.resize(kVectorSize);
    Status ds = chunk_reader->TryDecodeVector(lv, scratch.data(), ctx);
    if (!ds.ok()) return RebaseOffset(std::move(ds), chunk_base);
    ALP_OBS_ONLY({
      if (recorder != nullptr) {
        // ALP exceptions patched in this vector — the per-request cousin of
        // the aggregate exceptions-per-vector histogram. The header is
        // re-read only for recorded requests.
        recorder->Count("decode.exceptions",
                        chunk_reader->VectorExceptionCount(lv));
      }
    });
    if (caching) {
      const uint8_t* raw = reinterpret_cast<const uint8_t*>(scratch.data());
      auto entry = std::make_shared<const std::vector<uint8_t>>(
          raw, raw + size_t{len} * sizeof(T));
      // Publish after a fully successful decode and before the visitor:
      // the cache never holds bytes that did not verify end-to-end, and a
      // visitor error does not un-decode the vector.
      cache->Insert(column_id_, v, entry);
      Status vs = visit(v, reinterpret_cast<const T*>(entry->data()), len);
      if (!vs.ok()) return vs;
    } else {
      Status vs = visit(v, scratch.data(), len);
      if (!vs.ok()) return vs;
    }
  }
  return Status::Ok();
}

template <typename T>
Status SeekableReader<T>::VisitRowgroup(size_t rg, const Visitor& visit,
                                        const OpContext* ctx,
                                        const VectorFilter* want) const {
  if (rg >= rowgroup_count()) {
    return Status::Corrupt("rowgroup index out of range");
  }
  return VisitRowgroupImpl(rg, nullptr, visit, ctx, want);
}

template <typename T>
Status SeekableReader<T>::FilterSumRowgroup(size_t rg,
                                            const TranslatedPredicate& pred,
                                            double* sum,
                                            pushdown::VectorCounters* counters,
                                            const OpContext* ctx) const {
  if (rg >= rowgroup_count()) {
    return Status::Corrupt("rowgroup index out of range");
  }
  if constexpr (sizeof(T) != 8) {
    (void)pred;
    (void)sum;
    (void)counters;
    (void)ctx;
    return Status::InvalidArgument(
        "compressed-domain filter requires a double column");
  } else {
    const uint64_t rg_values = RowgroupValueCount(rg);
    if (rg_values == 0) return Status::Ok();
    const size_t first_vector = rg * kRowgroupVectors;
    const size_t vectors =
        static_cast<size_t>((rg_values + kVectorSize - 1) / kVectorSize);
    uint64_t chunk_base, chunk_end;
    ChunkExtent(rg, &chunk_base, &chunk_end);

    DecodedVectorCache* cache = options_.cache;
    const bool caching = cache != nullptr && cache->capacity_bytes() > 0;
#if ALP_OBS
    obs::FlightRecorder* recorder =
        ctx != nullptr && ctx->request != nullptr ? ctx->request->recorder
                                                  : nullptr;
#endif

    std::vector<uint8_t> chunk;
    std::optional<ColumnReader<T>> chunk_reader;
    pushdown::EvalScratch scratch;

    for (size_t lv = 0; lv < vectors; ++lv) {
      const size_t v = first_vector + lv;
      if (ctx != nullptr) {
        Status cs = ctx->Check();
        if (!cs.ok()) return cs;
      }
      const unsigned len = VectorLength(v);
      // Zone-map push-down from the resident index region: a vector (or a
      // whole rowgroup) whose [min, max] misses the closed envelope is
      // never fetched, let alone decoded.
      if (!index_.stats[v].MayContain(pred.pred().lo, pred.pred().hi)) {
        ++counters->skipped;
        pushdown::NoteSkippedVectors(1);
        continue;
      }
      if (caching) {
        if (DecodedVectorCache::Value hit = cache->Lookup(column_id_, v)) {
          ALP_OBS_ONLY({
            if (labeled_cache_hits_ != nullptr) {
              labeled_cache_hits_->Increment();
            }
            if (recorder != nullptr) recorder->Count("io.cache.hit");
          });
          // Already materialized: filter the cached doubles (the oracle
          // loop, so the result cannot depend on cache state).
          const double* values = reinterpret_cast<const double*>(hit->data());
          ++counters->decoded;
          pushdown::SurvivorSum ss;
          for (unsigned i = 0; i < len; ++i) {
            const double x = values[i];
            ss.AddPredicated(x, pred.Matches(x));
          }
          *sum += ss.Reduce();
          continue;
        }
        ALP_OBS_ONLY({
          if (labeled_cache_misses_ != nullptr) {
            labeled_cache_misses_->Increment();
          }
          if (recorder != nullptr) recorder->Count("io.cache.miss");
        });
      }
      if (!chunk_reader.has_value()) {
        Status s = LoadChunk(rg, nullptr, &chunk);
        if (!s.ok()) return s;
        ALP_OBS_ONLY({
          if (recorder != nullptr) {
            recorder->Count("io.chunk.reads");
            recorder->Count("io.chunk.bytes", chunk.size());
          }
        });
        StatusOr<ColumnReader<T>> opened = ColumnReader<T>::OpenRowgroupChunk(
            chunk.data(), chunk.size(), rg_values);
        if (!opened.ok()) return RebaseOffset(opened.status(), chunk_base);
        chunk_reader.emplace(std::move(*opened));
      }
      // Full-inside fast path: the resident zone map proves every value
      // qualifies (valid only for ALP vectors with zero exceptions — see
      // pushdown::ZoneFullInside); decode and sum without the predicate.
      if (chunk_reader->VectorScheme(lv) == Scheme::kAlp &&
          pushdown::ZoneFullInside(index_.stats[v], pred.pred()) &&
          chunk_reader->VectorExceptionCount(lv) == 0) {
        ++counters->full_inside;
        pushdown::NoteFullInsideVector();
        Status ds = chunk_reader->TryDecodeVector(lv, scratch.values, ctx);
        if (!ds.ok()) return RebaseOffset(std::move(ds), chunk_base);
        *sum += pushdown::StripedSumAll(scratch.values, len);
        continue;
      }
      // Packed-lane evaluation (or per-vector decode-then-filter fallback)
      // inside the verified chunk, through the same checked per-vector
      // parser OpenRowgroupChunk already walked.
      pushdown::FilterSumVector(*chunk_reader, lv, pred, &scratch, sum,
                                counters);
    }
    return Status::Ok();
  }
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
  const VectorFilter only_v = [v](size_t cand) { return cand == v; };
  const Visitor copy_out = [out](size_t, const T* values, unsigned len) {
    std::memcpy(out, values, size_t{len} * sizeof(T));
    return Status::Ok();
  };
  return VisitRowgroupImpl(v / kRowgroupVectors, nullptr, copy_out, ctx,
                           &only_v);
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
  return VisitRowgroupImpl(rg, nullptr, copy_out, ctx, nullptr);
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
Status SeekableReader<T>::Scan(const Visitor& visit, const OpContext* ctx,
                               const VectorFilter* want) const {
  ALP_OBS_SPAN(scan_span, "io.scan", index_.value_count);
  const size_t rowgroups = rowgroup_count();
  const size_t window =
      options_.prefetch_pool != nullptr ? options_.prefetch_rowgroups : 0;

  std::unordered_map<size_t, std::shared_ptr<PrefetchSlot>> inflight;
  const auto drop_outstanding = [this] {
    const int64_t depth =
        prefetch_outstanding_.fetch_sub(1, std::memory_order_relaxed) - 1;
    ALP_OBS_ONLY(PrefetchDepthGauge().Set(depth));
    (void)depth;
  };

  Status result;
  size_t horizon = 0;  ///< Rowgroups [0, horizon) already considered.
  for (size_t rg = 0; rg < rowgroups; ++rg) {
    if (!RowgroupWanted(rg, want)) continue;
    if (window > 0) {
      // Keep the next `window` wanted rowgroups beyond rg in flight.
      if (horizon < rg + 1) horizon = rg + 1;
      const size_t limit = std::min(rowgroups, rg + window + 1);
      for (; horizon < limit; ++horizon) {
        if (!RowgroupWanted(horizon, want)) continue;
        std::shared_ptr<PrefetchSlot> slot = SchedulePrefetch(horizon);
        if (slot != nullptr) inflight.emplace(horizon, std::move(slot));
      }
    }
    std::shared_ptr<PrefetchSlot> slot;
    auto it = inflight.find(rg);
    if (it != inflight.end()) {
      slot = std::move(it->second);
      inflight.erase(it);
      drop_outstanding();
    }
    Status s = VisitRowgroupImpl(rg, slot, visit, ctx, want);
    if (!s.ok()) {
      result = std::move(s);
      break;
    }
  }
  // Abandoned slots (early exit): their tasks own everything they touch,
  // so dropping our references here is safe even while they still run.
  for (size_t i = 0; i < inflight.size(); ++i) drop_outstanding();
  inflight.clear();
  return result;
}

template class SeekableReader<double>;
template class SeekableReader<float>;

}  // namespace alp::io
