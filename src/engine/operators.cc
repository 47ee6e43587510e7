#include "engine/operators.h"

#include <atomic>
#include <bit>
#include <limits>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "alp/pushdown.h"
#include "engine/table.h"
#include "util/cycle_clock.h"
#include "util/fault_injection.h"

namespace alp::engine {
namespace {

/// Runs \p per_rowgroup over all rowgroups of \p column with morsel-driven
/// parallelism and returns the per-thread double results summed together.
/// Each worker builds its own state with \p make_worker (a VectorSource or
/// several); the callback signature is Status(state, rg, acc): it adds its
/// contribution to *acc and reports read failures (the out-of-core path is
/// fallible — chunk reads can hit I/O errors, checksum mismatches and fault
/// sites).
///
/// Cancellation/faults: before claiming each morsel a worker polls \p ctx
/// and the engine.rowgroup fault site, and the morsel body's own Status
/// feeds the same machinery. The first worker to observe a failure raises
/// the abort flag so the others stop claiming morsels; when several morsels
/// fail in one sweep the lowest-indexed one's Status is reported (matching
/// the first failure a serial scan would see).
template <typename MakeWorker, typename PerRowgroup>
QueryResult RunParallel(const StoredColumn& column, ThreadPool& pool,
                        const OpContext* ctx, const MakeWorker& make_worker,
                        const PerRowgroup& per_rowgroup) {
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
    auto state = make_worker();
    while (!abort.load(std::memory_order_relaxed)) {
      const size_t rg = next.fetch_add(1, std::memory_order_relaxed);
      if (rg >= rowgroups) break;
      Status s = ctx != nullptr ? ctx->Check() : Status::Ok();
      if (s.ok()) s = fault::Check("engine.rowgroup");
      if (s.ok()) s = per_rowgroup(state, rg, &local);
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

  QueryResult result;
  result.status = std::move(fail_status);
  for (double p : partials) result.sum += p;
  result.cycles = cycles;
  result.tuples = column.value_count();
  result.threads = pool.size();
  return result;
}

/// The single-column form: one VectorSource per worker.
template <typename PerRowgroup>
QueryResult RunParallel(const StoredColumn& column, ThreadPool& pool,
                        const OpContext* ctx, const PerRowgroup& per_rowgroup) {
  return RunParallel(
      column, pool, ctx, [&] { return VectorSource(column, ctx); },
      per_rowgroup);
}

/// One past rowgroup \p rg's last vector.
size_t EndVector(const VectorSource& source, size_t rg) {
  return std::min((rg + 1) * kRowgroupVectors, source.vector_count());
}

/// Late materialization: compacts vector \p v's survivors per \p bitmap
/// into out[] in ascending index order — straight from memory when the
/// values are there, else through the gather kernel on the owning reader.
Status GatherSurvivors(VectorSource& source, size_t v, const uint64_t* bitmap,
                       pushdown::EvalScratch* scratch, double* out,
                       pushdown::VectorCounters* counters) {
  VectorSource::Vector vec;
  Status s = source.Fetch(v, &vec);
  if (!s.ok()) return s;
  if (vec.values == nullptr) {
    return pushdown::GatherVector(*vec.reader, vec.local, bitmap, scratch, out,
                                  counters);
  }
  pushdown::CompactSelected(vec.values, vec.len, bitmap, out);
  return Status::Ok();
}

}  // namespace

Status RowgroupSum(VectorSource& source, size_t rg, double* sum) {
  for (size_t v = rg * kRowgroupVectors, end = EndVector(source, rg); v < end;
       ++v) {
    VectorSource::Vector vec;
    Status s = source.Values(v, &vec);
    if (!s.ok()) return s;
    *sum += pushdown::StripedSumAll(vec.values, vec.len);
  }
  return Status::Ok();
}

Status RowgroupFilterSum(VectorSource& source, size_t rg,
                         const TranslatedPredicate& pred, FilterMode mode,
                         double* sum, pushdown::VectorCounters* counters) {
  const Predicate& p = pred.pred();
  pushdown::EvalScratch scratch;
  size_t skipped = 0;
  Status s;
  for (size_t v = rg * kRowgroupVectors, end = EndVector(source, rg);
       s.ok() && v < end; ++v) {
    // The zone map is consulted with the closed envelope [lo, hi] — a
    // superset of the open variants, so skipping stays conservative. A
    // skipped vector is never fetched, let alone decoded.
    const VectorStats* stats = source.Stats(v);
    if (stats != nullptr && !stats->MayContain(p.lo, p.hi)) {
      ++skipped;
      continue;
    }
    VectorSource::Vector vec;
    s = source.Fetch(v, &vec);
    if (!s.ok()) break;
    if (vec.values == nullptr && mode == FilterMode::kAuto) {
      const ColumnReader<double>& reader = *vec.reader;
      if (reader.VectorScheme(vec.local) == Scheme::kAlp &&
          pushdown::ZoneFullInside(*stats, p) &&
          reader.VectorExceptionCount(vec.local) == 0) {
        // The zone map proves every value qualifies (ALP, no exceptions):
        // striped sum with no predicate, bit-identical to the oracle.
        ++counters->full_inside;
        pushdown::NoteFullInsideVector();
        s = source.Decode(v, &vec, /*publish=*/false);
        if (s.ok()) *sum += pushdown::StripedSumAll(vec.values, vec.len);
      } else {
        s = pushdown::FilterSumVector(reader, vec.local, pred, &scratch, sum,
                                      counters);
      }
      continue;
    }
    // Values in memory, or the oracle mode: the predicated striped loop.
    s = source.Decode(v, &vec);
    if (!s.ok()) break;
    *sum += pushdown::FilterSumValues(vec.values, vec.len, p);
  }
  counters->skipped += skipped;
  pushdown::NoteSkippedVectors(skipped);
  return s;
}

QueryResult RunScan(const StoredColumn& column, ThreadPool& pool,
                    const OpContext* ctx) {
  return RunParallel(
      column, pool, ctx, [](VectorSource& source, size_t rg, double* acc) {
        for (size_t v = rg * kRowgroupVectors, end = EndVector(source, rg);
             v < end; ++v) {
          VectorSource::Vector vec;
          Status s = source.Materialize(v, &vec);
          if (!s.ok()) return s;
          // Touch one value per vector so the decode cannot be elided; this
          // is the "scan operator produced a vector" hand-off point.
          *acc += vec.values[0];
        }
        return Status::Ok();
      });
}

QueryResult RunSum(const StoredColumn& column, ThreadPool& pool,
                   const OpContext* ctx) {
  return RunParallel(
      column, pool, ctx, [](VectorSource& source, size_t rg, double* acc) {
        double sum = 0.0;
        Status s = RowgroupSum(source, rg, &sum);
        *acc += sum;
        return s;
      });
}

QueryResult RunFilterSum(const StoredColumn& column, double lo, double hi,
                         ThreadPool& pool, const OpContext* ctx) {
  return RunFilterSum(column, Predicate::Between(lo, hi), pool, ctx);
}

QueryResult RunFilterSum(const StoredColumn& column, const Predicate& pred,
                         ThreadPool& pool, const OpContext* ctx,
                         FilterMode mode) {
  std::atomic<size_t> skipped{0};
  std::atomic<size_t> packed_eval{0};
  std::atomic<size_t> full_inside{0};
  // Translated once per query (immutable, shared by all workers).
  const TranslatedPredicate tp(pred);
  QueryResult result = RunParallel(
      column, pool, ctx, [&](VectorSource& source, size_t rg, double* acc) {
        double sum = 0.0;
        pushdown::VectorCounters counters;
        Status s = RowgroupFilterSum(source, rg, tp, mode, &sum, &counters);
        skipped.fetch_add(counters.skipped, std::memory_order_relaxed);
        packed_eval.fetch_add(counters.packed_eval, std::memory_order_relaxed);
        full_inside.fetch_add(counters.full_inside, std::memory_order_relaxed);
        *acc += sum;
        return s;
      });
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
      column, pool, ctx, [&](VectorSource& source, size_t rg, double*) {
        double local_min = std::numeric_limits<double>::infinity();
        double local_max = -local_min;
        for (size_t v = rg * kRowgroupVectors, end = EndVector(source, rg);
             v < end; ++v) {
          VectorSource::Vector vec;
          Status s = source.Values(v, &vec);
          if (!s.ok()) return s;
          for (unsigned i = 0; i < vec.len; ++i) {
            const double x = vec.values[i];
            local_min = x < local_min ? x : local_min;
            local_max = x > local_max ? x : local_max;
          }
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

QueryResult RunFilteredDotSum(const Table& table, std::string_view filter_column,
                              const Predicate& pred, std::string_view a_column,
                              std::string_view b_column, ThreadPool& pool,
                              FilterMode mode) {
  const StoredColumn* filter = table.Column(filter_column);
  const StoredColumn* a = table.Column(a_column);
  const StoredColumn* b = table.Column(b_column);
  QueryResult result;
  for (const auto& [column, name] : {std::pair{filter, filter_column},
                                     std::pair{a, a_column},
                                     std::pair{b, b_column}}) {
    if (column == nullptr) {
      result.status = Status::NotFound("unknown column: " + std::string(name));
      return result;
    }
    if (column->value_count() != filter->value_count()) {
      result.status = Status::InvalidArgument(
          "column length differs from the filter column's: " +
          std::string(name));
      return result;
    }
  }

  // One translation serves every vector of the query: the integer bounds
  // depend only on (e, f), not on vector contents.
  const TranslatedPredicate tp(pred);
  std::atomic<size_t> skipped{0};
  std::atomic<size_t> packed_eval{0};
  struct Worker {
    VectorSource f, a, b;
    pushdown::EvalScratch scratch;
  };
  result = RunParallel(
      *filter, pool, nullptr,
      [&] {
        return Worker{VectorSource(*filter), VectorSource(*a), VectorSource(*b), {}};
      },
      [&](Worker& w, size_t rg, double* acc) {
        pushdown::VectorCounters counters;
        uint64_t bitmap[kVectorSize / 64];
        alignas(64) double a_buf[kVectorSize];
        alignas(64) double b_buf[kVectorSize];
        Status s;
        for (size_t v = rg * kRowgroupVectors, end = EndVector(w.f, rg);
             s.ok() && v < end; ++v) {
          // The closed [lo, hi] envelope check is a superset of the open
          // variants, so skipping on it is safe for any bound shape.
          const VectorStats* stats = w.f.Stats(v);
          if (stats != nullptr && !stats->MayContain(pred.lo, pred.hi)) {
            ++counters.skipped;  // No column decodes at all for this vector.
            continue;
          }
          // FILTER: selection bitmap over the filter column — on packed
          // lanes when possible, else from the values (the oracle).
          VectorSource::Vector fv;
          s = w.f.Fetch(v, &fv);
          if (!s.ok()) break;
          unsigned count = 0;
          if (mode == FilterMode::kAuto && fv.values == nullptr) {
            s = pushdown::SelectVector(*fv.reader, fv.local, tp, &w.scratch,
                                       bitmap, &count, &counters);
            if (!s.ok()) break;
          } else {
            s = w.f.Decode(v, &fv);
            if (!s.ok()) break;
            count = pushdown::SelectValues(fv.values, fv.len, pred, bitmap);
          }
          if (count == 0) continue;  // Nothing survives: a/b never touched.
          // PROJECT: late-materialize only the survivors of each projected
          // column, in ascending index order (the bit-identity contract).
          s = GatherSurvivors(w.a, v, bitmap, &w.scratch, a_buf, &counters);
          if (s.ok()) {
            s = GatherSurvivors(w.b, v, bitmap, &w.scratch, b_buf, &counters);
          }
          // AGGREGATE over the compacted survivor arrays: the striped
          // per-vector oracle (pushdown.h), fed survivor products.
          if (s.ok()) *acc += pushdown::StripedDotAll(a_buf, b_buf, count);
        }
        skipped.fetch_add(counters.skipped, std::memory_order_relaxed);
        packed_eval.fetch_add(counters.packed_eval, std::memory_order_relaxed);
        pushdown::NoteSkippedVectors(counters.skipped);
        return s;
      });
  result.vectors_skipped = skipped.load();
  result.vectors_packed_eval = packed_eval.load();
  return result;
}

QueryResult RunFilteredDotSum(const Table& table, std::string_view filter_column,
                              double lo, double hi, std::string_view a_column,
                              std::string_view b_column, ThreadPool& pool) {
  return RunFilteredDotSum(table, filter_column, Predicate::Between(lo, hi),
                           a_column, b_column, pool);
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
