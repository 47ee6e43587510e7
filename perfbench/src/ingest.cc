// Workload `ingest`: the write path. One thread streams a fixed corpus of
// one-rowgroup columns through alp::ColumnAppender, then opens each result
// with ColumnReader::Open (checksum verification + structural walk).
// Sampler, encoder, ALP_rd, FFOR packing and checksums do the work; decode
// kernels, pushdown, io and the server do none.

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "alp/appender.h"
#include "alp/column.h"
#include "alp/encoder.h"
#include "alp/rd.h"
#include "alp/sampler.h"
#include "bench.h"
#include "fastlanes/ffor.h"
#include "util/checksum.h"

namespace perfbench {
namespace {

/// City-Temp, Stocks-USA and Food-prices encode as ALP; POI-lat's
/// full-precision values force every rowgroup onto ALP_rd.
constexpr const char* kCorpus[] = {"City-Temp", "Stocks-USA", "Food-prices",
                                   "POI-lat"};
constexpr size_t kDatasets = sizeof(kCorpus) / sizeof(kCorpus[0]);
constexpr size_t kPoiLat = 3;
/// Rowgroups per dataset; each one is ingested as a column of its own.
constexpr size_t kRowgroups[kDatasets] = {16, 16, 16, 32};

/// POI-lat rowgroups that take another ALP_rd cut than the commonest one
/// (about 1 in 6 do when drawn freely; see PoiLatRowgroups), and the most
/// candidates drawn to find them.
constexpr size_t kRdOtherCuts = 5;
constexpr size_t kRdCandidates = 128;

/// The estimator: every unit's 10th-percentile time over the passes,
/// summed over the corpus. On a shared host slow phases come in bursts
/// shorter than a pass as well as in phases of a CPU lasting minutes; the
/// run moves to the next CPU at each pass (NextCpu), and each unit takes
/// its time from the calm moments it met.
constexpr double kUnitPick = 0.10;

/// One one-rowgroup column: the measured unit.
struct Unit {
  size_t dataset = 0;
  std::vector<double> values;
  std::vector<uint8_t> reference;  ///< The verified column bytes.
  /// [begin, end) of every rowgroup in `reference`: what the checksums cover.
  std::vector<std::pair<size_t, size_t>> extents;
};

struct State {
  std::vector<Unit> units;
  uint64_t values = 0;
  uint64_t bytes = 0;
};

/// The measured unit: stream one column through the appender and open the
/// result. Returns false when Open rejects the bytes.
bool IngestColumn(const std::vector<double>& values, std::vector<uint8_t>* out) {
  alp::ColumnAppender<double> appender;
  for (size_t off = 0; off < values.size(); off += alp::kRowgroupSize) {
    const size_t n = std::min<size_t>(alp::kRowgroupSize, values.size() - off);
    appender.AppendBatch(values.data() + off, n);
  }
  *out = appender.Finish();
  return alp::ColumnReader<double>::Open(out->data(), out->size()).ok();
}

/// The POI-lat rowgroups of the corpus, by GenerateRowgroup index.
/// ALP_rd picks its cut per rowgroup from a sample. On POI-lat's uniform
/// values two cuts come out nearly tied (a 55-bit right part with a
/// one-entry dictionary, and a 52-bit one with eight entries), the pick
/// flips with the sample, and a rowgroup that takes the eight-entry cut
/// costs several times as much to encode. Drawn freely, the number of
/// rowgroups taking it would move the pass time of one seed against
/// another by about 10%. So candidates are taken in index order until
/// \p count - kRdOtherCuts share the commonest cut and kRdOtherCuts do not;
/// past kRdCandidates (a sampler that always picks one cut) the first
/// candidates fill the rest.
std::vector<size_t> PoiLatRowgroups(uint64_t seed, size_t count) {
  using Cut = std::pair<unsigned, unsigned>;  // (right bits, dictionary size)
  const alp::SamplerConfig config;
  std::vector<Cut> cuts;
  std::map<Cut, size_t> tally;
  const auto commonest = [&] {
    return std::max_element(tally.begin(), tally.end(), [](const auto& a, const auto& b) {
             return a.second < b.second;
           })->first;
  };
  while (cuts.size() < kRdCandidates) {
    const std::vector<double> v = GenerateRowgroup(kCorpus[kPoiLat], seed, cuts.size());
    const alp::RdParams<double> params = alp::RdAnalyzeRowgroup(v.data(), v.size(), config);
    cuts.emplace_back(params.right_bits, params.dict_size);
    ++tally[cuts.back()];
    const size_t top = tally[commonest()];
    if (top >= count - kRdOtherCuts && cuts.size() - top >= kRdOtherCuts) break;
  }
  const Cut top = commonest();
  size_t want[2] = {kRdOtherCuts, count - kRdOtherCuts};  // [other, commonest]
  std::vector<bool> keep(cuts.size(), false);
  size_t kept = 0;
  for (size_t i = 0; i < cuts.size(); ++i) {
    size_t& w = want[cuts[i] == top ? 1 : 0];
    if (w > 0) {
      --w;
      keep[i] = true;
      ++kept;
    }
  }
  for (size_t i = 0; i < cuts.size() && kept < count; ++i) {
    if (!keep[i]) {
      keep[i] = true;
      ++kept;
    }
  }
  std::vector<size_t> out;
  for (size_t i = 0; i < cuts.size(); ++i) {
    if (keep[i]) out.push_back(i);
  }
  return out;
}

std::unique_ptr<State> MakeState(uint64_t seed) {
  auto state = std::make_unique<State>();
  for (size_t d = 0; d < kDatasets; ++d) {
    std::vector<size_t> rowgroups;
    if (d == kPoiLat) {
      rowgroups = PoiLatRowgroups(seed, kRowgroups[d]);
    } else {
      for (size_t rg = 0; rg < kRowgroups[d]; ++rg) rowgroups.push_back(rg);
    }
    for (const size_t rg : rowgroups) {
      Unit unit;
      unit.dataset = d;
      unit.values = GenerateRowgroup(kCorpus[d], seed, rg);
      if (!IngestColumn(unit.values, &unit.reference)) {
        WrongAnswer(std::string("ingest: Open rejected a column of ") + kCorpus[d]);
      }
      // The oracle: the column decodes bit-for-bit to its input.
      auto reader = alp::ColumnReader<double>::Open(unit.reference.data(),
                                                    unit.reference.size());
      std::vector<double> back(unit.values.size());
      if (!reader.ok() || !reader->TryDecodeAll(back.data()).ok() ||
          std::memcmp(back.data(), unit.values.data(),
                      back.size() * sizeof(double)) != 0) {
        WrongAnswer(std::string("ingest: a column of ") + kCorpus[d] +
                    " does not decode to its input");
      }
      auto cursor = alp::ColumnMetaCursor<double>::Open(unit.reference.data(),
                                                        unit.reference.size());
      for (size_t i = 0; cursor.ok() && i < cursor->rowgroup_count(); ++i) {
        auto meta = cursor->Rowgroup(i);
        if (meta.ok()) {
          unit.extents.emplace_back(meta->byte_offset,
                                    meta->byte_offset + meta->byte_extent);
        }
      }
      state->values += unit.values.size();
      state->bytes += unit.reference.size();
      state->units.push_back(std::move(unit));
    }
  }
  return state;
}

/// Counters the layer replay accumulates next to its spans.
struct LayerCounts {
  uint64_t values = 0;
  uint64_t alp_values = 0;
  uint64_t rd_values = 0;
  uint64_t rowgroups = 0;
  uint64_t rowgroups_rd = 0;
  uint64_t alp_vectors = 0;
  uint64_t exceptions = 0;
  uint64_t checksum_bytes = 0;
  alp::SamplerStats sampler;
};

/// Replays one column's ingest through the layer functions, one call at a
/// time, as children of unit span \p root.
void ReplayColumn(Tracer* tracer, uint32_t root, uint64_t unit,
                  const Unit& column, LayerCounts* counts) {
  static std::vector<alp::EncodedVector<double>> encoded(alp::kRowgroupVectors);
  static std::vector<uint64_t> packed(size_t{alp::kRowgroupVectors} * alp::kVectorSize);
  alp::RdEncodedVector<double> rd_encoded;
  alp::Combination combos[alp::kRowgroupVectors];
  const alp::SamplerConfig config;
  const double* values = column.values.data();

  for (size_t off = 0; off < column.values.size(); off += alp::kRowgroupSize) {
    const size_t n = std::min<size_t>(alp::kRowgroupSize, column.values.size() - off);
    const unsigned vectors =
        static_cast<unsigned>((n + alp::kVectorSize - 1) / alp::kVectorSize);
    const auto len = [&](unsigned v) {
      return static_cast<unsigned>(
          std::min<size_t>(alp::kVectorSize, n - size_t{v} * alp::kVectorSize));
    };
    alp::RowgroupAnalysis analysis;
    {
      ScopedSpan span(tracer, "alp.sampler", root, unit);
      analysis = alp::AnalyzeRowgroup(values + off, n, config);
      if (analysis.scheme == alp::Scheme::kAlp) {
        for (unsigned v = 0; v < vectors; ++v) {
          combos[v] = alp::ChooseForVector(values + off + v * alp::kVectorSize,
                                           len(v), analysis.combinations,
                                           config, &counts->sampler);
        }
      }
    }
    ++counts->rowgroups;
    counts->values += n;
    if (analysis.scheme == alp::Scheme::kAlp) {
      {
        ScopedSpan span(tracer, "alp.encoder", root, unit);
        for (unsigned v = 0; v < vectors; ++v) {
          alp::EncodeVector(values + off + v * alp::kVectorSize, len(v),
                            combos[v], &encoded[v]);
        }
      }
      {
        ScopedSpan span(tracer, "fastlanes.ffor", root, unit);
        for (unsigned v = 0; v < vectors; ++v) {
          alp::fastlanes::FforEncode(encoded[v].encoded,
                                     packed.data() + size_t{v} * alp::kVectorSize,
                                     encoded[v].ffor);
        }
      }
      for (unsigned v = 0; v < vectors; ++v) counts->exceptions += encoded[v].exc_count;
      counts->alp_vectors += vectors;
      counts->alp_values += n;
    } else {
      ScopedSpan span(tracer, "alp.rd", root, unit);
      const alp::RdParams<double> params =
          alp::RdAnalyzeRowgroup(values + off, n, config);
      for (unsigned v = 0; v < vectors; ++v) {
        alp::RdEncodeVector(values + off + v * alp::kVectorSize, len(v), params,
                            &rd_encoded);
      }
      ++counts->rowgroups_rd;
      counts->rd_values += n;
    }
  }
  // Finish computes every rowgroup checksum; Open verifies them again as
  // part of its structural walk, so that pass is Open's child.
  const auto checksums = [&](uint32_t parent) {
    ScopedSpan span(tracer, "util.checksum", parent, unit);
    uint64_t sink = 0;
    for (const auto& [begin, end] : column.extents) {
      sink ^= alp::Checksum64(column.reference.data() + begin, end - begin);
      counts->checksum_bytes += end - begin;
    }
    if (sink == 1) std::fputc(' ', stderr);  // Keeps the hashes live.
  };
  checksums(root);
  const uint32_t open = tracer->Begin("alp.column.open", root, unit);
  const bool opened =
      alp::ColumnReader<double>::Open(column.reference.data(), column.reference.size()).ok();
  tracer->End(open);
  if (!opened) WrongAnswer("ingest: replayed Open rejected a verified column");
  checksums(open);
}

}  // namespace

Outcome RunIngest(const Options& options, Tracer* tracer) {
  Outcome out;
  const auto make = [&] { return MakeState(options.seed); };
  std::vector<double> setup_times;
  const std::unique_ptr<State> state = TimedSetup(make, &setup_times);

  // Untraced: every pass is timed. Traced: passes alternate between
  // untraced and traced (unit span + layer replay), and a pair shares a
  // CPU, so the overhead pairs see the same host phases.
  const size_t units = state->units.size();
  std::vector<std::vector<double>> unit_s(units);  // Per unit, one per pass.
  std::vector<double> untraced_s, traced_s;        // Overhead pairs.
  LayerCounts counts;
  std::vector<uint8_t> bytes;
  const uint64_t t_end = NowNs() + static_cast<uint64_t>(options.seconds * 1e9);
  for (uint64_t pass = 0; NowNs() < t_end; ++pass) {
    const bool traced = options.trace && pass % 2 == 1 && !tracer->full();
    if (options.trace && pass % 2 == 1 && !traced) break;
    if (!options.trace || pass % 2 == 0) NextCpu();
    for (size_t u = 0; u < units; ++u) {
      const Unit& unit = state->units[u];
      const uint64_t id = pass * units + u;
      const uint32_t root = traced ? tracer->Begin("unit.ingest", 0, id) : 0;
      const uint64_t t0 = NowNs();
      const bool opened = IngestColumn(unit.values, &bytes);
      const double dt = static_cast<double>(NowNs() - t0) / 1e9;
      if (traced) tracer->End(root);
      if (!out.Count(opened)) continue;
      if (bytes != unit.reference) {
        WrongAnswer(std::string("ingest: a column of ") + kCorpus[unit.dataset] +
                    " differs from its verified encoding");
      }
      if (!traced) unit_s[u].push_back(dt);
      if (options.trace) {
        (traced ? traced_s : untraced_s).push_back(dt);
        if (traced) ReplayColumn(tracer, root, id, unit, &counts);
      }
    }
  }

  out.notes.push_back("corpus: one-rowgroup columns, City-Temp, Stocks-USA, Food-prices "
                      "x 16, POI-lat x 32; " + std::to_string(state->values) + " values");
  if (!options.trace) {
    out.Add("peak_rss_mb", PeakRssMb(), "MiB", 1, "one set-up and the measured run");
    out.Add("setup_s", MedianSetupS(make, &setup_times), "s", kSetupRepeats,
            "median of set-ups");
    out.Add("bits_per_value",
            static_cast<double>(state->bytes) * 8.0 / static_cast<double>(state->values),
            "bits", state->values);
    double pass_s = 0.0;
    size_t samples = 0;
    for (const std::vector<double>& times : unit_s) {
      pass_s += Quantile(times, kUnitPick);
      samples += times.size();
    }
    out.Add("mvalues_per_s", static_cast<double>(state->values) / pass_s / 1e6,
            "Mvalues/s", samples, "corpus values / op_p50_us");
    out.Add("op_p50_us", pass_s * 1e6, "us", samples,
            "one corpus pass: every column's p10 over the passes, summed");
    return out;
  }

  const auto ns = [&](const char* name) { return tracer->TotalNs(name); };
  const uint64_t alp_vectors_sampled = counts.sampler.vectors + counts.sampler.vectors_skipped;
  out.Add("alp.sampler.ns_per_value", Ratio(ns("alp.sampler"), counts.values),
          "ns/value", counts.values);
  out.Add("alp.sampler.combinations_per_vector",
          Ratio(counts.sampler.combinations_tried, alp_vectors_sampled),
          "count", alp_vectors_sampled);
  out.Add("alp.encoder.ns_per_value", Ratio(ns("alp.encoder"), counts.alp_values),
          "ns/value", counts.alp_values);
  out.Add("alp.encoder.exceptions_per_vector",
          Ratio(counts.exceptions, counts.alp_vectors), "count", counts.alp_vectors);
  out.Add("alp.rd.ns_per_value", Ratio(ns("alp.rd"), counts.rd_values), "ns/value",
          counts.rd_values);
  out.Add("alp.rd.rowgroup_frac", Ratio(counts.rowgroups_rd, counts.rowgroups),
          "ratio", counts.rowgroups);
  out.Add("fastlanes.ffor.pack_ns_per_value",
          Ratio(ns("fastlanes.ffor"), counts.alp_values), "ns/value", counts.alp_values);
  out.Add("util.checksum.ns_per_byte", Ratio(ns("util.checksum"), counts.checksum_bytes),
          "ns/byte", counts.checksum_bytes);
  AddLedgerMetrics(*tracer, OverheadFrac(untraced_s, traced_s), traced_s.size(), &out);
  return out;
}

}  // namespace perfbench
