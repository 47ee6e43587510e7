#include "engine/operators.h"

#include <atomic>
#include <bit>
#include <limits>
#include <mutex>
#include <vector>

#include "alp/pushdown.h"
#include "obs/flight_recorder.h"
#include "util/aligned_buffer.h"
#include "util/cycle_clock.h"
#include "util/fault_injection.h"

namespace alp::engine {
namespace {

/// Runs \p per_rowgroup over all rowgroups with morsel-driven parallelism
/// and returns the per-thread double results summed together. The callback
/// signature is Status(rg, buffer, acc): it adds its contribution to *acc
/// and reports decode failures (the out-of-core path is fallible — chunk
/// reads can hit I/O errors, checksum mismatches and fault sites).
///
/// Cancellation/faults: before claiming each morsel a worker polls \p ctx
/// and the engine.rowgroup fault site, and the morsel body's own Status
/// feeds the same machinery. The first worker to observe a failure raises
/// the abort flag so the others stop claiming morsels; when several morsels
/// fail in one sweep the lowest-indexed one's Status is reported (matching
/// the first failure a serial scan would see).
template <typename PerRowgroup>
QueryResult RunParallel(const StoredColumn& column, ThreadPool& pool,
                        const OpContext* ctx, const PerRowgroup& per_rowgroup) {
  const size_t rowgroups = column.rowgroup_count();
  std::atomic<size_t> next{0};
  std::vector<double> partials(pool.size(), 0.0);
  std::atomic<bool> abort{false};
  std::mutex fail_mu;
  size_t fail_rg = ~size_t{0};
  Status fail_status;

  const uint64_t start = CycleNow();
  pool.Run([&](unsigned worker) {
    double local = 0.0;
    // Each worker gets a private decode buffer (vector-at-a-time consumers
    // in Tectorwise own their vector chunk). Cache-line aligned so the
    // dispatched decode kernels take their aligned-store path: every
    // vector lands at a multiple of 1024 values from the aligned start.
    AlignedBuffer<double> buffer(kRowgroupSize);
    while (!abort.load(std::memory_order_relaxed)) {
      const size_t rg = next.fetch_add(1, std::memory_order_relaxed);
      if (rg >= rowgroups) break;
      Status s = ctx != nullptr ? ctx->Check() : Status::Ok();
      if (s.ok()) s = fault::Check("engine.rowgroup");
      if (s.ok()) s = per_rowgroup(rg, buffer.data(), &local);
      if (!s.ok()) {
        std::lock_guard<std::mutex> lock(fail_mu);
        if (rg < fail_rg) {
          fail_rg = rg;
          fail_status = std::move(s);
        }
        abort.store(true, std::memory_order_relaxed);
        break;
      }
    }
    partials[worker] = local;
  });
  const uint64_t cycles = CycleNow() - start;

#if ALP_OBS
  // Flight-recorder attribution happens here, after the join, from the
  // orchestrating thread only: the recorder is single-writer and the pool
  // workers above must never touch it (they also run without the ambient
  // attribution TLS, so their ScopedTimers stay recorder-free).
  if (ctx != nullptr && ctx->request != nullptr &&
      ctx->request->recorder != nullptr) {
    obs::FlightRecorder* recorder = ctx->request->recorder;
    recorder->Annotate("engine.rowgroups", rowgroups);
    recorder->Annotate("engine.threads", pool.size());
    recorder->Span("engine.parallel", start, start + cycles,
                   column.value_count());
  }
#endif

  QueryResult result;
  result.status = std::move(fail_status);
  for (double p : partials) result.sum += p;
  result.cycles = cycles;
  result.tuples = column.value_count();
  result.threads = pool.size();
  return result;
}

}  // namespace

QueryResult RunScan(const StoredColumn& column, ThreadPool& pool,
                    const OpContext* ctx) {
  return RunParallel(
      column, pool, ctx, [&](size_t rg, double* buffer, double* acc) {
        const unsigned len = column.RowgroupLength(rg);
        Status s = column.TryDecodeRowgroup(rg, buffer, ctx);
        if (!s.ok()) return s;
        // Touch one value per vector so the decode cannot be elided; this
        // is the "scan operator produced a vector" hand-off point.
        double checksum = 0.0;
        for (unsigned v = 0; v < len; v += kVectorSize) checksum += buffer[v];
        *acc += checksum;
        return Status::Ok();
      });
}

QueryResult RunSum(const StoredColumn& column, ThreadPool& pool,
                   const OpContext* ctx) {
  const ColumnReader<double>* alp_reader = column.AlpReader();
  if (alp_reader != nullptr && column.Seekable() == nullptr) {
    // In-memory ALP/ALP_rd: decode one vector into the buffer's first
    // kVectorSize slots and reduce it before decoding the next, so the sum
    // reads 8 KB from L1 rather than a whole rowgroup buffer from L2.
    return RunParallel(
        column, pool, ctx, [&](size_t rg, double* buffer, double* acc) {
          const size_t first_vector = rg * kRowgroupVectors;
          const size_t vectors =
              (column.RowgroupLength(rg) + kVectorSize - 1) / kVectorSize;
          double sum = 0.0;
          for (size_t v = first_vector; v < first_vector + vectors; ++v) {
            alp_reader->DecodeVector(v, buffer);
            sum += pushdown::StripedSumAll(buffer, alp_reader->VectorLength(v));
          }
          *acc += sum;
          return Status::Ok();
        });
  }
  // Uncompressed columns sum in place (no buffer-pool copy); seekable and
  // block-codec columns decode the rowgroup first. Either way the fold is
  // the same per-vector striped sum as above.
  return RunParallel(
      column, pool, ctx, [&](size_t rg, double* buffer, double* acc) {
        const double* data = column.RowgroupPointer(rg);
        if (data == nullptr) {
          Status s = column.TryDecodeRowgroup(rg, buffer, ctx);
          if (!s.ok()) return s;
          data = buffer;
        }
        const unsigned len = column.RowgroupLength(rg);
        double sum = 0.0;
        for (unsigned v0 = 0; v0 < len; v0 += kVectorSize) {
          sum += pushdown::StripedSumAll(
              data + v0, std::min<unsigned>(kVectorSize, len - v0));
        }
        *acc += sum;
        return Status::Ok();
      });
}

QueryResult RunFilterSum(const StoredColumn& column, double lo, double hi,
                         ThreadPool& pool, const OpContext* ctx) {
  return RunFilterSum(column, Predicate::Between(lo, hi), pool, ctx);
}

QueryResult RunFilterSum(const StoredColumn& column, const Predicate& pred,
                         ThreadPool& pool, const OpContext* ctx,
                         FilterMode mode) {
  const ColumnReader<double>* alp_reader = column.AlpReader();
  std::atomic<size_t> skipped{0};
  std::atomic<size_t> packed_eval{0};
  std::atomic<size_t> full_inside{0};
  // Translated once per query (immutable, shared by all workers). The zone
  // map is still consulted with the closed envelope [lo, hi] — a superset
  // of the open variants, so skipping stays conservative.
  const TranslatedPredicate tp(pred);

  QueryResult result;
  const io::SeekableReader<double>* seekable = column.Seekable();
  if (seekable != nullptr && mode == FilterMode::kAuto) {
    // Out-of-core compressed-domain push-down: the zone map (resident
    // index region) drops vectors before any chunk is fetched, and the
    // fetched chunk's surviving vectors are filtered on their packed lanes
    // without decoding (cache hits filter the already-decoded values).
    result = RunParallel(
        column, pool, ctx, [&](size_t rg, double*, double* acc) {
          double sum = 0.0;
          pushdown::VectorCounters counters;
          Status s = seekable->FilterSumRowgroup(rg, tp, &sum, &counters, ctx);
          if (!s.ok()) return s;
          skipped.fetch_add(counters.skipped, std::memory_order_relaxed);
          packed_eval.fetch_add(counters.packed_eval,
                                std::memory_order_relaxed);
          full_inside.fetch_add(counters.full_inside,
                                std::memory_order_relaxed);
          *acc += sum;
          return Status::Ok();
        });
  } else if (seekable != nullptr) {
    // Oracle mode over the out-of-core path: decode every surviving vector
    // through the chunked reader and run the predicated loop.
    result = RunParallel(
        column, pool, ctx, [&](size_t rg, double*, double* acc) {
          const size_t first_vector = rg * kRowgroupVectors;
          const size_t vectors =
              (column.RowgroupLength(rg) + kVectorSize - 1) / kVectorSize;
          size_t local_skipped = 0;
          for (size_t v = first_vector; v < first_vector + vectors; ++v) {
            if (!seekable->VectorMayContain(v, pred.lo, pred.hi)) {
              ++local_skipped;
            }
          }
          skipped.fetch_add(local_skipped, std::memory_order_relaxed);
          pushdown::NoteSkippedVectors(local_skipped);
          double sum = 0.0;
          const io::SeekableReader<double>::VectorFilter want = [&](size_t v) {
            return seekable->VectorMayContain(v, pred.lo, pred.hi);
          };
          Status s = seekable->VisitRowgroup(
              rg,
              [&](size_t, const double* values, unsigned len) {
                pushdown::SurvivorSum ss;
                for (unsigned i = 0; i < len; ++i) {
                  const double x = values[i];
                  ss.AddPredicated(x, pred.Matches(x));
                }
                sum += ss.Reduce();
                return Status::Ok();
              },
              ctx, &want);
          if (!s.ok()) return s;
          *acc += sum;
          return Status::Ok();
        });
  } else if (alp_reader != nullptr) {
    // In-memory push-down: the zone map skips disjoint vectors; survivors
    // are evaluated on their packed lanes (kAuto) or decoded into the
    // oracle's predicated loop (kDecodeThenFilter).
    result = RunParallel(
        column, pool, ctx, [&](size_t rg, double* buffer, double* acc) {
          const size_t first_vector = rg * kRowgroupVectors;
          const size_t vectors =
              (column.RowgroupLength(rg) + kVectorSize - 1) / kVectorSize;
          double sum = 0.0;
          size_t local_skipped = 0;
          pushdown::VectorCounters counters;
          pushdown::EvalScratch scratch;
          for (size_t v = 0; v < vectors; ++v) {
            const size_t vec = first_vector + v;
            if (!alp_reader->VectorMayContain(vec, pred.lo, pred.hi)) {
              ++local_skipped;
              continue;
            }
            if (mode == FilterMode::kAuto) {
              if (pushdown::CanSumWholeVector(*alp_reader, vec, pred)) {
                // Zone map proves every value qualifies: striped sum with
                // no predicate (bit-identical — the oracle would select
                // every value, giving the same survivor sequence).
                ++counters.full_inside;
                alp_reader->DecodeVector(vec, buffer);
                const unsigned len = alp_reader->VectorLength(vec);
                sum += pushdown::StripedSumAll(buffer, len);
                continue;
              }
              pushdown::FilterSumVector(*alp_reader, vec, tp, &scratch, &sum,
                                        &counters);
              continue;
            }
            alp_reader->DecodeVector(vec, buffer);
            const unsigned len = alp_reader->VectorLength(vec);
            pushdown::SurvivorSum ss;
            for (unsigned i = 0; i < len; ++i) {
              const double x = buffer[i];
              ss.AddPredicated(x, pred.Matches(x));  // Predicated.
            }
            sum += ss.Reduce();
          }
          skipped.fetch_add(local_skipped, std::memory_order_relaxed);
          pushdown::NoteSkippedVectors(local_skipped);
          packed_eval.fetch_add(counters.packed_eval,
                                std::memory_order_relaxed);
          full_inside.fetch_add(counters.full_inside,
                                std::memory_order_relaxed);
          *acc += sum;
          return Status::Ok();
        });
  } else if (column.RowgroupPointer(0) != nullptr) {
    result = RunParallel(
        column, pool, ctx, [&](size_t rg, double*, double* acc) {
          const double* data = column.RowgroupPointer(rg);
          const unsigned len = column.RowgroupLength(rg);
          double sum = 0.0;
          // The oracle stripes per vector, so every storage scheme chunks
          // the same way regardless of rowgroup shape.
          for (unsigned v0 = 0; v0 < len; v0 += kVectorSize) {
            const unsigned n = std::min<unsigned>(kVectorSize, len - v0);
            pushdown::SurvivorSum ss;
            for (unsigned i = 0; i < n; ++i) {
              const double x = data[v0 + i];
              ss.AddPredicated(x, pred.Matches(x));
            }
            sum += ss.Reduce();
          }
          *acc += sum;
          return Status::Ok();
        });
  } else {
    // Block-based storage: the whole rowgroup must be decompressed before
    // the predicate can run (the paper's Zstd disadvantage).
    result = RunParallel(
        column, pool, ctx, [&](size_t rg, double* buffer, double* acc) {
          Status s = column.TryDecodeRowgroup(rg, buffer, ctx);
          if (!s.ok()) return s;
          const unsigned len = column.RowgroupLength(rg);
          double sum = 0.0;
          for (unsigned v0 = 0; v0 < len; v0 += kVectorSize) {
            const unsigned n = std::min<unsigned>(kVectorSize, len - v0);
            pushdown::SurvivorSum ss;
            for (unsigned i = 0; i < n; ++i) {
              const double x = buffer[v0 + i];
              ss.AddPredicated(x, pred.Matches(x));
            }
            sum += ss.Reduce();
          }
          *acc += sum;
          return Status::Ok();
        });
  }
  result.vectors_skipped = skipped.load();
  result.vectors_packed_eval = packed_eval.load();
  result.vectors_full_inside = full_inside.load();
  return result;
}

QueryResult RunMinMax(const StoredColumn& column, ThreadPool& pool, double* min_out,
                      double* max_out, const OpContext* ctx) {
  const ColumnReader<double>* alp_reader = column.AlpReader();
  double min = std::numeric_limits<double>::infinity();
  double max = -min;

  if (alp_reader != nullptr) {
    // Zone maps are exact per-vector min/max: the aggregate needs no
    // decoding at all (and finishes in microseconds, so one up-front
    // cancellation check suffices).
    QueryResult result;
    if (ctx != nullptr) {
      result.status = ctx->Check();
      if (!result.status.ok()) return result;
    }
    const uint64_t start = CycleNow();
    for (size_t v = 0; v < alp_reader->vector_count(); ++v) {
      const VectorStats& stats = alp_reader->Stats(v);
      min = stats.min < min ? stats.min : min;
      max = stats.max > max ? stats.max : max;
    }
    result.cycles = CycleNow() - start;
    result.tuples = column.value_count();
    result.threads = pool.size();
    result.vectors_skipped = alp_reader->vector_count();
    *min_out = min;
    *max_out = max;
    result.sum = min;
    return result;
  }

  // Lock-free folds over the rowgroup-local minima/maxima (NaNs fail the
  // improvement comparison and are ignored, SQL-style).
  std::atomic<uint64_t> min_cell{std::bit_cast<uint64_t>(min)};
  std::atomic<uint64_t> max_cell{std::bit_cast<uint64_t>(max)};
  const auto fold = [](std::atomic<uint64_t>& cell, double value, bool is_min) {
    uint64_t expected = cell.load(std::memory_order_relaxed);
    while (true) {
      const double current = std::bit_cast<double>(expected);
      const bool improves = is_min ? value < current : value > current;
      if (!improves) return;
      if (cell.compare_exchange_weak(expected, std::bit_cast<uint64_t>(value),
                                     std::memory_order_relaxed)) {
        return;
      }
    }
  };

  QueryResult result = RunParallel(
      column, pool, ctx, [&](size_t rg, double* buffer, double*) {
        const double* data = column.RowgroupPointer(rg);
        if (data == nullptr) {
          Status s = column.TryDecodeRowgroup(rg, buffer, ctx);
          if (!s.ok()) return s;
          data = buffer;
        }
        const unsigned len = column.RowgroupLength(rg);
        double local_min = std::numeric_limits<double>::infinity();
        double local_max = -local_min;
        for (unsigned i = 0; i < len; ++i) {
          local_min = data[i] < local_min ? data[i] : local_min;
          local_max = data[i] > local_max ? data[i] : local_max;
        }
        fold(min_cell, local_min, true);
        fold(max_cell, local_max, false);
        return Status::Ok();
      });
  min = std::bit_cast<double>(min_cell.load());
  max = std::bit_cast<double>(max_cell.load());
  *min_out = min;
  *max_out = max;
  result.sum = min;
  return result;
}

QueryResult RunCompression(const StoredColumn& column, const double* data, size_t n) {
  QueryResult result;
  result.tuples = n;
  result.threads = 1;
  const uint64_t start = CycleNow();
  if (column.scheme() == "Uncompressed") {
    result.cycles = 0;
    return result;
  }
  if (column.scheme() == "ALP") {
    const auto buffer = CompressColumn(data, n);
    result.sum = static_cast<double>(buffer.size());
  } else {
    // Rebuild with the same codec, rowgroup blocks like MakeCodec.
    StoredColumn rebuilt = StoredColumn::MakeCodec(
        [&]() -> std::unique_ptr<codecs::DoubleCodec> {
          for (auto& codec : codecs::AllDoubleCodecs()) {
            if (codec->name() == column.scheme()) return std::move(codec);
          }
          return codecs::MakeAlpCodec();
        }(),
        data, n);
    result.sum = static_cast<double>(rebuilt.compressed_bytes());
  }
  result.cycles = CycleNow() - start;
  return result;
}

}  // namespace alp::engine
