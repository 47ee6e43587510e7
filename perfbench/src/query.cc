// Workload `query`: in-memory scans on one engine worker. A fixed set of
// four queries repeats over StoredColumn::MakeAlp columns — City-Temp
// (ALP) and POI-lat (ALP_rd): FILTER+SUM at ~0.1% and ~5% selectivity on
// City-Temp and a plain SUM on each column. Decode kernels, exception
// patching, pushdown and the operators do the work; there is no io, cache,
// server or encoder on the measured path.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "alp/column.h"
#include "alp/kernel_dispatch.h"
#include "alp/predicate.h"
#include "alp/pushdown.h"
#include "bench.h"
#include "engine/column_store.h"
#include "engine/operators.h"
#include "util/aligned_buffer.h"

namespace perfbench {
namespace {

using alp::engine::FilterMode;
using alp::engine::QueryResult;
using alp::engine::StoredColumn;

constexpr size_t kCityValues = 40 * alp::kRowgroupSize;  // ~4.1M values.
constexpr size_t kPoiValues = 10 * alp::kRowgroupSize;   // ~1.0M values.
/// Vectors the zone map lets through, as a share of City-Temp's vectors,
/// for the ~0.1% and ~5% selectivity filters.
constexpr double kSparseSurvivors = 0.075;
constexpr double kMidSurvivors = 0.14;

/// Queries per batch (see RunQuery); a cycle of four batches takes
/// ~0.15 s. Estimators (see stats.h): a query kind's latency is the p50 of
/// each batch, then the 10th percentile across batches; throughput is the
/// 90th percentile of per-cycle rates.
constexpr size_t kBlock = 25;
constexpr double kLatencyPick = 0.10;
constexpr double kRatePick = 0.90;

enum QueryKind { kFilterSparse, kFilterMid, kSumAlp, kSumRd, kQueryKinds };
constexpr const char* kUnitName[kQueryKinds] = {
    "unit.filter_sparse", "unit.filter_mid", "unit.sum_alp", "unit.sum_rd"};
constexpr const char* kMetricName[kQueryKinds] = {
    "filter_sparse_p50_us", "filter_mid_p50_us", "sum_alp_p50_us", "sum_rd_p50_us"};

struct State {
  std::vector<double> city_values, poi_values;
  StoredColumn city = StoredColumn::MakeUncompressed({});
  StoredColumn poi = StoredColumn::MakeUncompressed({});
  alp::Predicate band[2];       ///< Sparse and mid filters on City-Temp.
  double selectivity[2] = {};
  double expected[kQueryKinds] = {};
  uint64_t compressed_bytes = 0;
};

QueryResult RunKind(const State& s, QueryKind kind, alp::engine::ThreadPool& pool,
                    FilterMode mode = FilterMode::kAuto) {
  switch (kind) {
    case kFilterSparse:
    case kFilterMid:
      return alp::engine::RunFilterSum(s.city, s.band[kind], pool, nullptr, mode);
    case kSumAlp:
      return alp::engine::RunSum(s.city, pool);
    default:
      return alp::engine::RunSum(s.poi, pool);
  }
}

std::unique_ptr<State> MakeState(uint64_t seed, alp::engine::ThreadPool& pool) {
  auto s = std::make_unique<State>();
  s->city_values = GenerateColumn("City-Temp", kCityValues / alp::kRowgroupSize, seed);
  s->poi_values = GenerateColumn("POI-lat", kPoiValues / alp::kRowgroupSize, seed);
  s->city = StoredColumn::MakeAlp(s->city_values.data(), s->city_values.size());
  s->poi = StoredColumn::MakeAlp(s->poi_values.data(), s->poi_values.size());
  s->compressed_bytes = s->city.compressed_bytes() + s->poi.compressed_bytes();
  if (s->poi.AlpReader()->VectorScheme(0) != alp::Scheme::kAlpRd) {
    WrongAnswer("query: the POI-lat column did not take ALP_rd");
  }
  s->band[kFilterSparse] = BandsWithSurvivors(s->city_values, 0.001, kSparseSurvivors, 1)[0];
  s->band[kFilterMid] = BandsWithSurvivors(s->city_values, 0.05, kMidSurvivors, 1)[0];

  // Oracles: the same queries over the uncompressed columns on the same
  // single-worker pool, and every filter also in decode-then-filter mode.
  const StoredColumn city_raw = StoredColumn::MakeUncompressed(s->city_values);
  const StoredColumn poi_raw = StoredColumn::MakeUncompressed(s->poi_values);
  for (int f = 0; f < 2; ++f) {
    const QueryResult r = alp::engine::RunFilterSum(city_raw, s->band[f], pool);
    s->expected[f] = r.sum;
    size_t hits = 0;
    for (double x : s->city_values) hits += s->band[f].Matches(x) ? 1 : 0;
    s->selectivity[f] = static_cast<double>(hits) / static_cast<double>(kCityValues);
    const QueryResult dtf =
        RunKind(*s, static_cast<QueryKind>(f), pool, FilterMode::kDecodeThenFilter);
    if (!dtf.status.ok() || !SameBits(dtf.sum, r.sum)) {
      WrongAnswer("query: decode-then-filter disagrees with the uncompressed oracle");
    }
  }
  s->expected[kSumAlp] = alp::engine::RunSum(city_raw, pool).sum;
  s->expected[kSumRd] = alp::engine::RunSum(poi_raw, pool).sum;
  return s;
}

/// Counters the layer replay accumulates next to its spans.
struct LayerCounts {
  uint64_t kernel_values = 0;
  uint64_t rd_values = 0;
  uint64_t filter_vectors = 0;  ///< Vectors given to FilterSumVector.
  uint64_t filter_total_vectors = 0;
  uint64_t skipped = 0, packed_eval = 0, full_inside = 0;
  uint64_t probe_values = 0;
  double sink = 0.0;
};

/// SUM over an ALP column, replayed as the trusted decode path runs it:
/// vector header parse, fused unpack + convert kernel, exception patch,
/// then the operator's aggregation loop.
void ReplaySumAlp(Tracer* tracer, uint32_t root, uint64_t unit,
                  const alp::ColumnReader<double>& reader, double* buffer,
                  LayerCounts* counts) {
  using View = alp::ColumnReader<double>::PackedVectorView;
  std::vector<View> views(alp::kRowgroupVectors);
  std::vector<uint8_t> has_view(alp::kRowgroupVectors);
  const alp::kernels::DecodeKernels& k = alp::kernels::Active();
  const size_t rowgroups = (reader.vector_count() + alp::kRowgroupVectors - 1) /
                           alp::kRowgroupVectors;
  for (size_t rg = 0; rg < rowgroups; ++rg) {
    const size_t first = rg * alp::kRowgroupVectors;
    const size_t vectors = std::min<size_t>(alp::kRowgroupVectors,
                                            reader.vector_count() - first);
    size_t len = 0;
    {
      ScopedSpan span(tracer, "alp.column", root, unit);
      for (size_t v = 0; v < vectors; ++v) {
        has_view[v] = reader.GetPackedVectorView(first + v, &views[v]);
        // Vectors without a packed view (Delta) decode whole here.
        if (!has_view[v]) reader.DecodeVector(first + v, buffer + v * alp::kVectorSize);
        len += reader.VectorLength(first + v);
      }
    }
    {
      ScopedSpan span(tracer, "alp.kernels", root, unit);
      for (size_t v = 0; v < vectors; ++v) {
        if (!has_view[v]) continue;
        const View& w = views[v];
        k.alp_fused64(w.packed, w.ffor.base, w.ffor.width,
                      alp::AlpTraits<double>::kF10[w.c.f],
                      alp::AlpTraits<double>::kIF10[w.c.e],
                      buffer + v * alp::kVectorSize);
      }
    }
    {
      ScopedSpan span(tracer, "alp.column.patch", root, unit);
      for (size_t v = 0; v < vectors; ++v) {
        if (!has_view[v]) continue;
        k.patch64(buffer + v * alp::kVectorSize, views[v].exc_bits,
                  views[v].exc_positions, views[v].exc_count);
      }
    }
    {
      ScopedSpan span(tracer, "engine.operators", root, unit);
      double sum = 0.0;
      for (size_t i = 0; i < len; ++i) sum += buffer[i];
      counts->sink += sum;
    }
    counts->kernel_values += len;
  }
}

/// SUM over an ALP_rd column: trusted vector decode, then aggregation.
void ReplaySumRd(Tracer* tracer, uint32_t root, uint64_t unit,
                 const alp::ColumnReader<double>& reader, double* buffer,
                 LayerCounts* counts) {
  for (size_t first = 0; first < reader.vector_count();
       first += alp::kRowgroupVectors) {
    const size_t vectors = std::min<size_t>(alp::kRowgroupVectors,
                                            reader.vector_count() - first);
    size_t len = 0;
    {
      ScopedSpan span(tracer, "alp.column.rd_decode", root, unit);
      for (size_t v = 0; v < vectors; ++v) {
        reader.DecodeVector(first + v, buffer + v * alp::kVectorSize);
        len += reader.VectorLength(first + v);
      }
    }
    {
      ScopedSpan span(tracer, "engine.operators", root, unit);
      double sum = 0.0;
      for (size_t i = 0; i < len; ++i) sum += buffer[i];
      counts->sink += sum;
    }
    counts->rd_values += len;
  }
}

/// FILTER+SUM replayed per rowgroup: the operator's zone-map pass, packed
/// evaluation of surviving vectors, and whole-vector sums where the zone
/// map proves every value qualifies.
void ReplayFilter(Tracer* tracer, uint32_t root, uint64_t unit,
                  const alp::ColumnReader<double>& reader, const alp::Predicate& pred,
                  double* buffer, LayerCounts* counts) {
  const alp::TranslatedPredicate tp(pred);
  static alp::pushdown::EvalScratch scratch;
  alp::pushdown::VectorCounters vc;
  std::vector<size_t> eval, whole;
  for (size_t first = 0; first < reader.vector_count();
       first += alp::kRowgroupVectors) {
    const size_t end = std::min<size_t>(first + alp::kRowgroupVectors,
                                        reader.vector_count());
    eval.clear();
    whole.clear();
    {
      ScopedSpan span(tracer, "engine.operators", root, unit);
      for (size_t v = first; v < end; ++v) {
        if (!reader.VectorMayContain(v, pred.lo, pred.hi)) continue;
        (alp::pushdown::CanSumWholeVector(reader, v, pred) ? whole : eval).push_back(v);
      }
    }
    double sum = 0.0;
    {
      ScopedSpan span(tracer, "alp.pushdown", root, unit);
      for (size_t v : eval) {
        alp::pushdown::FilterSumVector(reader, v, tp, &scratch, &sum, &vc);
      }
    }
    if (!whole.empty()) {
      {
        ScopedSpan span(tracer, "alp.column", root, unit);
        for (size_t i = 0; i < whole.size(); ++i) {
          reader.DecodeVector(whole[i], buffer + i * alp::kVectorSize);
        }
      }
      ScopedSpan span(tracer, "engine.operators", root, unit);
      for (size_t i = 0; i < whole.size(); ++i) {
        sum += alp::pushdown::StripedSumAll(buffer + i * alp::kVectorSize,
                                            reader.VectorLength(whole[i]));
      }
    }
    counts->filter_vectors += eval.size();
    counts->sink += sum;
  }
}

/// Per-layer probes outside the ledger: trusted vs checked decode of one
/// City-Temp rowgroup (rotating), each as its own span.
void ProbeDecode(Tracer* tracer, uint64_t unit, const alp::ColumnReader<double>& reader,
                 double* buffer, LayerCounts* counts) {
  const size_t rowgroups = (reader.vector_count() + alp::kRowgroupVectors - 1) /
                           alp::kRowgroupVectors;
  const size_t first = (unit % rowgroups) * alp::kRowgroupVectors;
  const size_t end = std::min<size_t>(first + alp::kRowgroupVectors, reader.vector_count());
  const uint32_t root = tracer->Begin("probe.decode", 0, unit);
  {
    ScopedSpan span(tracer, "alp.column.decode", root, unit);
    for (size_t v = first; v < end; ++v) {
      reader.DecodeVector(v, buffer + (v - first) * alp::kVectorSize);
    }
  }
  {
    ScopedSpan span(tracer, "alp.column.checked_decode", root, unit);
    for (size_t v = first; v < end; ++v) {
      if (!reader.TryDecodeVector(v, buffer + (v - first) * alp::kVectorSize).ok()) {
        WrongAnswer("query: checked decode failed on a verified column");
      }
    }
  }
  tracer->End(root);
  for (size_t v = first; v < end; ++v) counts->probe_values += reader.VectorLength(v);
}

}  // namespace

Outcome RunQuery(const Options& options, Tracer* tracer) {
  Outcome out;
  alp::engine::ThreadPool pool(1);
  out.threads = 1;
  const auto make = [&] { return MakeState(options.seed, pool); };
  std::vector<double> setup_times;
  const std::unique_ptr<State> state = TimedSetup(make, &setup_times);
  const State& s = *state;
  const alp::ColumnReader<double>& city = *s.city.AlpReader();
  const alp::ColumnReader<double>& poi = *s.poi.AlpReader();
  alp::AlignedBuffer<double> buffer(alp::kRowgroupSize);

  // Queries run in batches of kBlock of one kind, a cycle being one batch
  // of each kind. Within a batch the vectors a filter touches stay in the
  // core's own cache, as they would for a query repeated over hot data;
  // with the kinds interleaved, the SUMs' scans would evict them every
  // time and the filters would time the shared cache that neighbours on
  // the host contend for.
  std::vector<double> latency_us[kQueryKinds];     // Untraced queries.
  std::vector<double> cycle_us, cycle_work, cycle_s;
  std::vector<double> untraced_s, traced_s;
  LayerCounts counts;
  uint64_t unit = 0;
  const uint64_t t_end = NowNs() + static_cast<uint64_t>(options.seconds * 1e9);
  while (NowNs() < t_end && !(options.trace && tracer->full())) {
    NextCpu();
    double round_us = 0.0, work = 0.0, secs = 0.0;
    for (int q = 0; q < kQueryKinds; ++q) {
      const QueryKind kind = static_cast<QueryKind>(q);
      const size_t batch_begin = latency_us[q].size();
      for (size_t i = 0; i < kBlock; ++i, ++unit) {
        const bool traced = options.trace && i % 2 == 1 && !tracer->full();
        const uint32_t root = traced ? tracer->Begin(kUnitName[q], 0, unit) : 0;
        const uint64_t t0 = NowNs();
        const QueryResult r = RunKind(s, kind, pool);
        const double dt = static_cast<double>(NowNs() - t0) / 1e9;
        if (traced) tracer->End(root);
        if (!out.Count(r.status.ok())) continue;
        if (!SameBits(r.sum, s.expected[q])) {
          WrongAnswer(std::string("query: ") + kMetricName[q] +
                      " sum differs from the uncompressed oracle");
        }
        work += static_cast<double>(r.tuples);
        secs += dt;
        if (!traced) latency_us[q].push_back(dt * 1e6);
        if (!options.trace) continue;
        (traced ? traced_s : untraced_s).push_back(dt);
        if (!traced) continue;
        if (kind == kFilterSparse || kind == kFilterMid) {
          ReplayFilter(tracer, root, unit, city, s.band[q], buffer.data(), &counts);
          counts.filter_total_vectors += city.vector_count();
          counts.skipped += r.vectors_skipped;
          counts.packed_eval += r.vectors_packed_eval;
          counts.full_inside += r.vectors_full_inside;
        } else if (kind == kSumAlp) {
          ReplaySumAlp(tracer, root, unit, city, buffer.data(), &counts);
          ProbeDecode(tracer, unit, city, buffer.data(), &counts);
        } else {
          ReplaySumRd(tracer, root, unit, poi, buffer.data(), &counts);
        }
      }
      if (latency_us[q].size() > batch_begin) {
        round_us += Quantile(std::vector<double>(latency_us[q].begin() + batch_begin,
                                                 latency_us[q].end()),
                             0.5);
      }
    }
    cycle_us.push_back(round_us);
    cycle_work.push_back(work);
    cycle_s.push_back(secs);
  }

  char line[160];
  std::snprintf(line, sizeof(line),
                "filters on City-Temp: sparse selectivity %.5f, mid %.5f; "
                "%zu + %zu values",
                s.selectivity[0], s.selectivity[1], kCityValues, kPoiValues);
  out.notes.push_back(line);
  // Per-query latencies come from the untraced rounds only; with
  // --trace 1 they are per-layer figures, with --trace 0 they are printed.
  std::vector<Metric> per_query;
  for (int q = 0; q < kQueryKinds; ++q) {
    const Estimate e = BlockQuantile(latency_us[q], kBlock, 0.5, kLatencyPick);
    per_query.push_back({kMetricName[q], e.value, "us", e.samples,
                         "p10 of per-batch p50s, batches of 25 queries"});
  }
  if (!options.trace) {
    for (const Metric& m : per_query) {
      std::snprintf(line, sizeof(line), "%s %.1f us over %zu samples", m.name.c_str(),
                    m.value, m.samples);
      out.notes.push_back(line);
    }
    out.Add("peak_rss_mb", PeakRssMb(), "MiB", 1, "one set-up and the measured run");
    out.Add("setup_s", MedianSetupS(make, &setup_times), "s", kSetupRepeats,
            "median of set-ups");
    out.Add("bits_per_value",
            static_cast<double>(s.compressed_bytes) * 8.0 /
                static_cast<double>(kCityValues + kPoiValues),
            "bits", kCityValues + kPoiValues);
    Estimate rate = BlockRate(cycle_work, cycle_s, 1, kRatePick);
    rate.value /= 1e6;
    out.Add("mvalues_per_s", rate, "Mvalues/s", "p90 of per-cycle rates");
    Estimate round = BlockQuantile(cycle_us, 1, 0.5, kLatencyPick);
    round.samples *= kBlock * kQueryKinds;
    out.Add("op_p50_us", round, "us",
            "one query of each kind: p10 over cycles of the sum of batch p50s");
    return out;
  }
  for (const Metric& m : per_query) out.metrics.push_back(m);

  if (counts.sink == 1.0) std::fputc(' ', stderr);  // Keeps replay sums live.
  const auto ns = [&](const char* name) { return tracer->TotalNs(name); };
  out.Add("alp.kernels.alp_ns_per_value", Ratio(ns("alp.kernels"), counts.kernel_values),
          "ns/value", counts.kernel_values);
  out.Add("alp.column.patch_ns_per_value",
          Ratio(ns("alp.column.patch"), counts.kernel_values), "ns/value",
          counts.kernel_values);
  out.Add("alp.column.decode_ns_per_value",
          Ratio(ns("alp.column.decode"), counts.probe_values), "ns/value",
          counts.probe_values);
  out.Add("alp.column.checked_decode_ns_per_value",
          Ratio(ns("alp.column.checked_decode"), counts.probe_values), "ns/value",
          counts.probe_values);
  out.Add("alp.column.rd_decode_ns_per_value",
          Ratio(ns("alp.column.rd_decode"), counts.rd_values), "ns/value",
          counts.rd_values);
  out.Add("alp.pushdown.filter_ns_per_vector",
          Ratio(ns("alp.pushdown"), counts.filter_vectors), "ns/vector",
          counts.filter_vectors);
  out.Add("alp.pushdown.skipped_frac", Ratio(counts.skipped, counts.filter_total_vectors),
          "ratio", counts.filter_total_vectors);
  out.Add("alp.pushdown.packed_eval_frac",
          Ratio(counts.packed_eval, counts.filter_total_vectors), "ratio",
          counts.filter_total_vectors);
  out.Add("alp.pushdown.full_inside_frac",
          Ratio(counts.full_inside, counts.filter_total_vectors), "ratio",
          counts.filter_total_vectors);
  out.Add("engine.operators.ns_per_value",
          Ratio(ns("engine.operators"), counts.kernel_values + counts.rd_values),
          "ns/value", counts.kernel_values + counts.rd_values);
  AddLedgerMetrics(*tracer, OverheadFrac(untraced_s, traced_s), traced_s.size(), &out);
  return out;
}

}  // namespace perfbench
