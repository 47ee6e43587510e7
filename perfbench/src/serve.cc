// Workload `serve`: a server::Server with two workers serves the `query`
// columns (City-Temp as ALP, POI-lat as ALP_rd) from a decoded-vector
// cache sized to a quarter of the catalog's decoded bytes, driven by one
// generator thread. Phase 1 is an open loop at a fixed rate: 9 in 10
// requests are point lookups, power-law skewed over the vectors of both
// columns, and every 10th a filtered SUM over a 1% band of City-Temp that
// moves. Phase 2 is a closed loop with a fixed number of requests in
// flight. The chunk fetch → XXH64 verify → structural open path, the cache
// and the server queue do most of the work; each lookup decodes one vector.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "alp/column.h"
#include "alp/kernel_dispatch.h"
#include "alp/predicate.h"
#include "alp/pushdown.h"
#include "bench.h"
#include "engine/column_store.h"
#include "io/decoded_vector_cache.h"
#include "io/random_access_source.h"
#include "io/seekable_reader.h"
#include "server/server.h"
#include "util/checksum.h"

namespace perfbench {
namespace {

using alp::server::QueryClass;
using alp::server::Request;
using alp::server::Response;

constexpr size_t kColumnValues[2] = {40 * alp::kRowgroupSize,   // City-Temp
                                     10 * alp::kRowgroupSize};  // POI-lat
constexpr const char* kColumnName[2] = {"city", "poi"};
constexpr unsigned kWorkers = 2;
constexpr double kOfferedRps = 3000.0;  ///< Phase 1, fixed for every host.
constexpr uint64_t kAggEvery = 10;      ///< Every 10th request is a filtered SUM.
constexpr double kZipfExponent = 1.0;
constexpr size_t kBands = 20;           ///< Distinct 1% bands the SUMs cycle.
constexpr double kAggSurvivors = 0.09;  ///< Share of vectors each band reaches.
constexpr size_t kClosedInFlight = 4;   ///< Phase 2 requests in flight.
constexpr double kOpenShare = 0.5;      ///< Share of the run in phase 1.
constexpr double kWarmupSeconds = 1.0;  ///< Untimed open loop before phase 1.

/// Estimators (see stats.h): p50 within blocks of about 0.35 s of
/// requests of one class, then the 5th (lookups) or 25th (aggregates)
/// percentile across blocks; closed-loop rate over blocks of 500
/// completions, then the 90th percentile.
constexpr size_t kLookupBlock = 1000, kAggBlock = 100, kCapacityBlock = 500;
constexpr double kLookupPick = 0.05, kAggPick = 0.25, kRatePick = 0.90;

struct State {
  std::vector<double> values[2];
  std::unique_ptr<alp::server::Server> server;
  std::vector<alp::Predicate> bands;  ///< On City-Temp.
  std::vector<double> band_sum;       ///< Oracle answer per band.
  std::vector<double> cdf;            ///< Power law over popularity ranks.
  std::vector<std::pair<int, size_t>> rank_target;  ///< Rank → (column, vector).
  size_t cache_bytes = 0;
  uint64_t compressed_bytes = 0;  ///< The catalog, both columns.
};

/// SplitMix64: the request stream is a pure function of the seed.
struct Rng {
  uint64_t state;
  uint64_t Next() {
    uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
};

struct Planned {
  bool agg = false;
  int column = 0;
  size_t vector = 0;
  size_t band = 0;
};

std::unique_ptr<State> MakeState(uint64_t seed) {
  auto s = std::make_unique<State>();
  const char* datasets[2] = {"City-Temp", "POI-lat"};
  alp::server::ServerConfig config;
  config.workers = kWorkers;
  size_t decoded = 0;
  for (int c = 0; c < 2; ++c) {
    s->values[c] = GenerateColumn(datasets[c], kColumnValues[c] / alp::kRowgroupSize, seed);
    decoded += s->values[c].size() * sizeof(double);
  }
  config.cache_bytes = s->cache_bytes = decoded / 4;
  s->server = std::make_unique<alp::server::Server>(config);
  for (int c = 0; c < 2; ++c) {
    alp::engine::StoredColumn column =
        alp::engine::StoredColumn::MakeAlp(s->values[c].data(), s->values[c].size());
    s->compressed_bytes += column.compressed_bytes();
    const alp::Status st = s->server->AddColumn(kColumnName[c], std::move(column));
    if (!st.ok()) WrongAnswer("serve: AddColumn failed: " + st.ToString());
  }

  // Bands: 1% of City-Temp's values each, at kBands positions that let
  // the same number of vectors through the zone map. The oracle adds every
  // vector's striped survivor sum in index order, the definition every
  // filtered-SUM path must match bitwise (pushdown.h).
  const std::vector<double>& city = s->values[0];
  s->bands = BandsWithSurvivors(city, 0.01, kAggSurvivors, kBands);
  for (const alp::Predicate& pred : s->bands) {
    double sum = 0.0;
    for (size_t v = 0; v * alp::kVectorSize < city.size(); ++v) {
      alp::pushdown::SurvivorSum ss;
      const size_t end = std::min(city.size(), (v + 1) * alp::kVectorSize);
      for (size_t i = v * alp::kVectorSize; i < end; ++i) {
        ss.AddPredicated(city[i], pred.Matches(city[i]));
      }
      sum += ss.Reduce();
    }
    s->band_sum.push_back(sum);
  }

  // Lookup popularity: a power law over ranks, with ranks dealt to the
  // vectors of both columns by a seeded shuffle.
  Rng rng{seed ^ 0x5EEDull};
  for (int c = 0; c < 2; ++c) {
    const size_t n = (s->values[c].size() + alp::kVectorSize - 1) / alp::kVectorSize;
    for (size_t v = 0; v < n; ++v) s->rank_target.emplace_back(c, v);
  }
  for (size_t i = s->rank_target.size() - 1; i > 0; --i) {
    std::swap(s->rank_target[i], s->rank_target[rng.Next() % (i + 1)]);
  }
  double total = 0.0;
  for (size_t r = 0; r < s->rank_target.size(); ++r) {
    total += std::pow(static_cast<double>(r + 1), -kZipfExponent);
    s->cdf.push_back(total);
  }
  for (double& x : s->cdf) x /= total;
  return s;
}

/// The next request of the stream; \p sent counts the requests planned.
/// The class follows a fixed interleave, so every block of requests has
/// the same mix; lookup targets are drawn from \p rng.
Planned Plan(const State& s, Rng* rng, uint64_t* sent) {
  Planned p;
  const uint64_t i = (*sent)++;
  if (i % kAggEvery == kAggEvery - 1) {
    p.agg = true;
    p.band = (i / kAggEvery) % kBands;
    return p;
  }
  const size_t rank = static_cast<size_t>(
      std::upper_bound(s.cdf.begin(), s.cdf.end(), rng->Uniform()) - s.cdf.begin());
  const auto& [column, vector] = s.rank_target[std::min(rank, s.cdf.size() - 1)];
  p.column = column;
  p.vector = vector;
  return p;
}

Request MakeRequest(const State& s, const Planned& p) {
  Request r;
  r.column = kColumnName[p.column];
  if (p.agg) {
    r.query_class = QueryClass::kAggregate;
    r.has_filter = true;
    r.filter_lo = s.bands[p.band].lo;
    r.filter_hi = s.bands[p.band].hi;
  } else {
    r.query_class = QueryClass::kPointLookup;
    r.vector_index = p.vector;
  }
  return r;
}

/// Checks one answer against the oracle. Returns false for a request the
/// server failed (counted, not fatal); a wrong answer ends the run.
bool Check(const State& s, const Planned& p, const Response& r) {
  if (!r.status.ok()) return false;
  if (p.agg) {
    if (!SameBits(r.sum, s.band_sum[p.band])) {
      WrongAnswer("serve: filtered SUM differs from the oracle, band " +
                  std::to_string(p.band));
    }
    return true;
  }
  const std::vector<double>& col = s.values[p.column];
  const size_t begin = p.vector * alp::kVectorSize;
  const size_t len = std::min<size_t>(alp::kVectorSize, col.size() - begin);
  if (r.values.size() != len ||
      std::memcmp(r.values.data(), col.data() + begin, len * sizeof(double)) != 0) {
    WrongAnswer("serve: lookup of " + std::string(kColumnName[p.column]) +
                " vector " + std::to_string(p.vector) + " differs from its input");
  }
  return true;
}

/// Spins until \p due. A sleeping generator overshoots by the timer slack
/// and, on a virtual machine, sometimes by milliseconds while its halted
/// virtual CPU waits to be scheduled again; that would read as generator
/// lateness. The generator owns its core.
void WaitUntil(uint64_t due) {
  while (NowNs() < due) {
  }
}

/// Values a request covers: a lookup its vector, a filtered SUM the column.
double ValuesCovered(const State& s, const Planned& p) {
  if (p.agg) return static_cast<double>(s.values[0].size());
  const size_t n = s.values[p.column].size() - p.vector * alp::kVectorSize;
  return static_cast<double>(std::min<size_t>(alp::kVectorSize, n));
}

/// Per-request outcomes of the generator loops.
struct Samples {
  std::vector<double> lookup_us, agg_us;            ///< From the due time.
  std::vector<double> lookup_queue_us, lookup_exec_us, agg_exec_us;
  std::vector<double> late_us;
  std::vector<double> gap_s, gap_values;            ///< Closed loop.
  uint64_t completed = 0;                           ///< Open loop.
  double open_seconds = 0.0;
};

/// Phase 1: open loop at kOfferedRps for \p seconds.
void OpenLoop(const State& s, Rng* rng, uint64_t* sent, double seconds, Samples* out,
              Outcome* outcome) {
  struct InFlight {
    Planned p;
    uint64_t late_ns;
    std::future<Response> f;
  };
  std::deque<InFlight> inflight;
  const auto finish = [&](InFlight& x) {
    const Response r = x.f.get();
    if (!outcome->Count(Check(s, x.p, r))) return;
    ++out->completed;
    const double us = static_cast<double>(x.late_ns + r.queue_ns + r.exec_ns) / 1e3;
    if (x.p.agg) {
      out->agg_us.push_back(us);
      out->agg_exec_us.push_back(static_cast<double>(r.exec_ns) / 1e3);
    } else {
      out->lookup_us.push_back(us);
      out->lookup_queue_us.push_back(static_cast<double>(r.queue_ns) / 1e3);
      out->lookup_exec_us.push_back(static_cast<double>(r.exec_ns) / 1e3);
    }
  };
  const double period_ns = 1e9 / kOfferedRps;
  const uint64_t t0 = NowNs() + 1000000;
  const uint64_t requests = static_cast<uint64_t>(seconds * kOfferedRps);
  for (uint64_t i = 0; i < requests; ++i) {
    const uint64_t due = t0 + static_cast<uint64_t>(period_ns * static_cast<double>(i));
    while (!inflight.empty() && inflight.front().f.wait_for(std::chrono::seconds(0)) ==
                                    std::future_status::ready) {
      finish(inflight.front());
      inflight.pop_front();
    }
    const Planned p = Plan(s, rng, sent);
    Request request = MakeRequest(s, p);
    WaitUntil(due);
    const uint64_t now = NowNs();
    inflight.push_back({p, now - due, s.server->Submit(std::move(request))});
    out->late_us.push_back(static_cast<double>(now - due) / 1e3);
  }
  for (InFlight& x : inflight) finish(x);
  out->open_seconds = static_cast<double>(NowNs() - t0) / 1e9;
}

/// Phase 2: closed loop, kClosedInFlight requests outstanding.
void ClosedLoop(const State& s, Rng* rng, uint64_t* sent, double seconds, Samples* out,
                Outcome* outcome) {
  std::deque<std::pair<Planned, std::future<Response>>> inflight;
  const auto submit = [&] {
    const Planned p = Plan(s, rng, sent);
    inflight.emplace_back(p, s.server->Submit(MakeRequest(s, p)));
  };
  for (size_t i = 0; i < kClosedInFlight; ++i) submit();
  const uint64_t t_end = NowNs() + static_cast<uint64_t>(seconds * 1e9);
  uint64_t last = NowNs();
  bool running = true;
  while (!inflight.empty()) {
    auto [p, f] = std::move(inflight.front());
    inflight.pop_front();
    const Response r = f.get();
    const uint64_t now = NowNs();
    outcome->Count(Check(s, p, r));
    if (running) {
      out->gap_s.push_back(static_cast<double>(now - last) / 1e9);
      out->gap_values.push_back(ValuesCovered(s, p));
      last = now;
      running = now < t_end;
      if (running) submit();
    }
  }
}

// ---------------------------------------------------------------------------
// Traced run: requests one at a time through Server::Execute, each followed
// by a replay of the layer calls it made.
// ---------------------------------------------------------------------------

struct Replay {
  // Declared before the readers, which point into them.
  std::vector<uint8_t> bytes[2];
  std::unique_ptr<alp::io::DecodedVectorCache> warm_cache, scratch_cache;
  std::vector<uint64_t> offsets[2];  ///< Rowgroup chunk starts.
  std::shared_ptr<alp::io::SeekableReader<double>> cold[2], warm[2];

  /// [begin, end) of rowgroup \p rg's chunk in column \p c.
  std::pair<uint64_t, uint64_t> Chunk(int c, size_t rg) const {
    const uint64_t end = rg + 1 < offsets[c].size() ? offsets[c][rg + 1] : bytes[c].size();
    return {offsets[c][rg], end};
  }
};

std::unique_ptr<Replay> MakeReplay(const State& s) {
  auto rp = std::make_unique<Replay>();
  size_t decoded = 0;
  for (int c = 0; c < 2; ++c) decoded += s.values[c].size() * sizeof(double);
  rp->warm_cache = std::make_unique<alp::io::DecodedVectorCache>(2 * decoded);
  rp->scratch_cache = std::make_unique<alp::io::DecodedVectorCache>(s.cache_bytes);
  for (int c = 0; c < 2; ++c) {
    rp->bytes[c] = alp::CompressColumn(s.values[c].data(), s.values[c].size());
    const auto source = std::make_shared<alp::io::MemorySource>(rp->bytes[c].data(),
                                                                 rp->bytes[c].size());
    alp::io::SeekableReaderOptions cold_options, warm_options;
    warm_options.cache = rp->warm_cache.get();
    auto cold = alp::io::SeekableReader<double>::Open(source, cold_options);
    auto warm = alp::io::SeekableReader<double>::Open(source, warm_options);
    if (!cold.ok() || !warm.ok()) WrongAnswer("serve: replay reader failed to open");
    rp->cold[c] = *cold;
    rp->warm[c] = *warm;
    rp->offsets[c] = rp->cold[c]->index().rowgroup_offsets;
    std::vector<double> all(s.values[c].size());
    if (!rp->warm[c]->TryDecodeAll(all.data()).ok() ||
        std::memcmp(all.data(), s.values[c].data(), all.size() * sizeof(double)) != 0) {
      WrongAnswer("serve: replay column does not decode to its input");
    }
  }
  return rp;
}

struct LayerCounts {
  uint64_t checksum_bytes = 0;
  uint64_t kernel_values = 0;
  std::vector<double> untraced_hit_s, traced_hit_s;
};

/// Fetch → verify → open of one chunk, as children of \p parent.
alp::StatusOr<alp::ColumnReader<double>> ReplayChunk(
    Tracer* tracer, uint32_t parent, uint64_t id, const Replay& rp, int c, size_t rg,
    std::vector<uint8_t>* chunk, LayerCounts* counts) {
  const auto [begin, end] = rp.Chunk(c, rg);
  chunk->resize(end - begin);
  {
    ScopedSpan span(tracer, "io.seekable_reader", parent, id);
    const alp::io::MemorySource source(rp.bytes[c].data(), rp.bytes[c].size());
    if (!source.ReadAt(begin, chunk->size(), chunk->data()).ok()) {
      WrongAnswer("serve: replay chunk read failed");
    }
  }
  {
    ScopedSpan span(tracer, "util.checksum", parent, id);
    if (alp::Checksum64(chunk->data(), chunk->size()) !=
        rp.cold[c]->index().rowgroup_checksums[rg]) {
      WrongAnswer("serve: replay chunk checksum mismatch");
    }
  }
  counts->checksum_bytes += chunk->size();
  ScopedSpan span(tracer, "alp.column.open", parent, id);
  const size_t values = rp.cold[c]->RowgroupValueCount(rg);
  return alp::ColumnReader<double>::OpenRowgroupChunk(chunk->data(), chunk->size(), values);
}

void ReplayLookup(Tracer* tracer, uint32_t exec, uint64_t id, const Replay& rp,
                  const Planned& p, bool hit, LayerCounts* counts) {
  alignas(64) double out[alp::kVectorSize];
  if (hit) {
    ScopedSpan span(tracer, "io.cache", exec, id);
    if (!rp.warm[p.column]->TryDecodeVector(p.vector, out).ok()) {
      WrongAnswer("serve: warm replay lookup failed");
    }
    return;
  }
  std::vector<uint8_t> chunk;
  const size_t rg = p.vector / alp::kRowgroupVectors;
  const size_t lv = p.vector % alp::kRowgroupVectors;
  auto reader = ReplayChunk(tracer, exec, id, rp, p.column, rg, &chunk, counts);
  if (!reader.ok()) WrongAnswer("serve: replay chunk failed to open");
  {
    const uint32_t decode = tracer->Begin("alp.column", exec, id);
    if (!reader->TryDecodeVector(lv, out).ok()) WrongAnswer("serve: replay decode failed");
    tracer->End(decode);
    alp::ColumnReader<double>::PackedVectorView view;
    if (reader->GetPackedVectorView(lv, &view)) {
      ScopedSpan span(tracer, "alp.kernels", decode, id);
      alp::kernels::Active().alp_fused64(view.packed, view.ffor.base, view.ffor.width,
                                         alp::AlpTraits<double>::kF10[view.c.f],
                                         alp::AlpTraits<double>::kIF10[view.c.e], out);
      counts->kernel_values += alp::kVectorSize;
    }
  }
  ScopedSpan span(tracer, "io.cache", exec, id);
  auto entry = std::make_shared<std::vector<uint8_t>>(sizeof(out));
  std::memcpy(entry->data(), out, sizeof(out));
  rp.scratch_cache->Insert(static_cast<uint64_t>(p.column) + 1, p.vector, std::move(entry));
}

void ReplayAgg(Tracer* tracer, uint32_t exec, uint64_t id, const Replay& rp,
               const State& s, const Planned& p, LayerCounts* counts) {
  const alp::Predicate& pred = s.bands[p.band];
  const alp::TranslatedPredicate tp(pred);
  const alp::io::SeekableReader<double>& index = *rp.cold[0];
  static alp::pushdown::EvalScratch scratch;
  alp::pushdown::VectorCounters vc;
  std::vector<uint8_t> chunk;
  double sum = 0.0;
  for (size_t rg = 0; rg < index.rowgroup_count(); ++rg) {
    const size_t first = rg * alp::kRowgroupVectors;
    const size_t end = std::min<size_t>(first + alp::kRowgroupVectors, index.vector_count());
    std::vector<size_t> survivors;
    for (size_t v = first; v < end; ++v) {
      if (index.VectorMayContain(v, pred.lo, pred.hi)) survivors.push_back(v - first);
    }
    if (survivors.empty()) continue;
    auto reader = ReplayChunk(tracer, exec, id, rp, 0, rg, &chunk, counts);
    if (!reader.ok()) WrongAnswer("serve: replay chunk failed to open");
    ScopedSpan span(tracer, "alp.pushdown", exec, id);
    for (size_t lv : survivors) {
      alp::pushdown::FilterSumVector(*reader, lv, tp, &scratch, &sum, &vc);
    }
  }
  if (sum == 0.5) std::fputc(' ', stderr);  // Keeps the replay sum live.
}

/// Runs \p seconds of requests one at a time, alternating untimed-span and
/// traced units; traced ones get unit/queue/exec spans and a replay.
void SequentialTraced(const State& s, Rng* rng, uint64_t* sent, double seconds,
                      Tracer* tracer, Outcome* out, LayerCounts* counts) {
  const std::unique_ptr<Replay> rp = MakeReplay(s);
  const uint64_t t_end = NowNs() + static_cast<uint64_t>(seconds * 1e9);
  for (uint64_t i = 0; NowNs() < t_end && !tracer->full(); ++i) {
    const bool traced = i % 2 == 1;
    const Planned p = Plan(s, rng, sent);
    const uint64_t hits_before = s.server->cache_stats().hits;
    const uint64_t t0 = NowNs();
    const Response r = s.server->Execute(MakeRequest(s, p));
    const uint64_t t1 = NowNs();
    if (!out->Count(Check(s, p, r))) continue;
    const bool hit = !p.agg && s.server->cache_stats().hits > hits_before;
    if (hit) {
      (traced ? counts->traced_hit_s : counts->untraced_hit_s)
          .push_back(static_cast<double>(t1 - t0) / 1e9);
    }
    if (!traced) continue;
    const uint32_t root = tracer->Add(p.agg ? "unit.agg" : "unit.lookup", 0, r.trace_id, t0, t1);
    tracer->Add("server.queue", root, r.trace_id, t0, t0 + r.queue_ns);
    const uint32_t exec = tracer->Add("server.exec", root, r.trace_id, t0 + r.queue_ns,
                                      t0 + r.queue_ns + r.exec_ns);
    if (p.agg) {
      ReplayAgg(tracer, exec, r.trace_id, *rp, s, p, counts);
    } else {
      ReplayLookup(tracer, exec, r.trace_id, *rp, p, hit, counts);
      // Probes outside the ledger: the same lookup on a cacheless and on a
      // fully warm reader.
      alignas(64) double buf[alp::kVectorSize];
      const uint32_t probe = tracer->Begin("probe.lookup", 0, r.trace_id);
      {
        ScopedSpan span(tracer, "io.seekable_reader.cold", probe, r.trace_id);
        if (!rp->cold[p.column]->TryDecodeVector(p.vector, buf).ok()) {
          WrongAnswer("serve: cold probe failed");
        }
      }
      {
        ScopedSpan span(tracer, "io.seekable_reader.warm", probe, r.trace_id);
        if (!rp->warm[p.column]->TryDecodeVector(p.vector, buf).ok()) {
          WrongAnswer("serve: warm probe failed");
        }
      }
      tracer->End(probe);
    }
  }
}

std::vector<double> DurationsUs(const Tracer& tracer, const char* name) {
  std::vector<double> out;
  for (const Span& sp : tracer.spans()) {
    if (std::string(sp.name) == name) out.push_back(static_cast<double>(sp.duration_ns()) / 1e3);
  }
  return out;
}

}  // namespace

Outcome RunServe(const Options& options, Tracer* tracer) {
  Outcome out;
  out.threads = kWorkers + 1;
  const auto make = [&] { return MakeState(options.seed); };
  std::vector<double> setup_times;
  const std::unique_ptr<State> state = TimedSetup(make, &setup_times);
  const State& s = *state;
  Rng rng{options.seed};
  uint64_t sent = 0;

  // Warm-up, untimed: the open loop's stream fills the cache first.
  Samples warmup;
  OpenLoop(s, &rng, &sent, kWarmupSeconds, &warmup, &out);

  Samples smp;
  const double open_s = options.trace ? 0.5 * options.seconds : kOpenShare * options.seconds;
  const auto cache0 = s.server->cache_stats();
  const auto stats0 = s.server->stats();
  OpenLoop(s, &rng, &sent, open_s, &smp, &out);
  const auto cache1 = s.server->cache_stats();
  const auto stats1 = s.server->stats();
  const double achieved = static_cast<double>(smp.completed) / smp.open_seconds;
  char line[200];
  std::snprintf(line, sizeof(line),
                "open loop: offered %.0f req/s, achieved %.1f req/s; generator late "
                "p99 %.1f us over %zu requests; cache %zu bytes",
                kOfferedRps, achieved, Quantile(smp.late_us, 0.99), smp.late_us.size(),
                s.cache_bytes);
  out.notes.push_back(line);
  // Per-class figures of the open loop. The tails follow the host's
  // scheduling stalls on a shared virtual machine (milliseconds at a time),
  // so, like the aggregate median, they are per-layer figures.
  const Metric open_loop[3] = {
      {"lookup_p99_us", Quantile(smp.lookup_us, 0.99), "us", smp.lookup_us.size(),
       "from due time, whole open loop"},
      {"agg_p50_us", BlockQuantile(smp.agg_us, kAggBlock, 0.5, kAggPick).value, "us",
       smp.agg_us.size(), "from due time; p25 of per-block p50s, blocks of 100"},
      {"agg_p99_us", Quantile(smp.agg_us, 0.99), "us", smp.agg_us.size(),
       "from due time, whole open loop"}};

  if (!options.trace) {
    ClosedLoop(s, &rng, &sent, options.seconds - open_s, &smp, &out);
    for (const Metric& m : open_loop) {
      std::snprintf(line, sizeof(line), "%s %.1f us over %zu samples", m.name.c_str(),
                    m.value, m.samples);
      out.notes.push_back(line);
    }
    const std::vector<double> ones(smp.gap_s.size(), 1.0);
    std::snprintf(line, sizeof(line), "closed loop, %zu in flight: capacity %.0f req/s",
                  kClosedInFlight, BlockRate(ones, smp.gap_s, kCapacityBlock, kRatePick).value);
    out.notes.push_back(line);
    out.Add("peak_rss_mb", PeakRssMb(), "MiB", 1, "one set-up and the measured run");
    out.Add("setup_s", MedianSetupS(make, &setup_times), "s", kSetupRepeats,
            "median of set-ups");
    out.Add("bits_per_value",
            static_cast<double>(s.compressed_bytes) * 8.0 /
                static_cast<double>(s.values[0].size() + s.values[1].size()),
            "bits", s.values[0].size() + s.values[1].size());
    Estimate rate = BlockRate(smp.gap_values, smp.gap_s, kCapacityBlock, kRatePick);
    rate.value /= 1e6;
    out.Add("mvalues_per_s", rate, "Mvalues/s",
            "closed loop, values the requests cover; p90 of per-block rates, "
            "blocks of 500");
    out.Add("op_p50_us", BlockQuantile(smp.lookup_us, kLookupBlock, 0.5, kLookupPick),
            "us", "lookup from due time; p5 of per-block p50s, blocks of 1000");
    return out;
  }
  for (const Metric& m : open_loop) out.metrics.push_back(m);

  LayerCounts counts;
  SequentialTraced(s, &rng, &sent, options.seconds - open_s, tracer, &out, &counts);
  const auto ns = [&](const char* name) { return tracer->TotalNs(name); };
  const double requests = static_cast<double>(stats1.submitted - stats0.submitted);
  const double lookups = static_cast<double>(cache1.hits + cache1.misses) -
                         static_cast<double>(cache0.hits + cache0.misses);
  out.Add("util.checksum.ns_per_byte", Ratio(ns("util.checksum"), counts.checksum_bytes),
          "ns/byte", counts.checksum_bytes);
  out.Add("alp.kernels.alp_ns_per_value", Ratio(ns("alp.kernels"), counts.kernel_values),
          "ns/value", counts.kernel_values);
  const auto opens = DurationsUs(*tracer, "alp.column.open");
  out.Add("alp.column.open_chunk_us", MedianOr0(opens), "us", opens.size());
  const auto cold = DurationsUs(*tracer, "io.seekable_reader.cold");
  const auto warm = DurationsUs(*tracer, "io.seekable_reader.warm");
  out.Add("io.seekable_reader.cold_lookup_us", MedianOr0(cold), "us", cold.size());
  out.Add("io.seekable_reader.warm_lookup_us", MedianOr0(warm), "us", warm.size());
  out.Add("io.cache.hit_ratio",
          Ratio(static_cast<double>(cache1.hits - cache0.hits), lookups), "ratio",
          static_cast<size_t>(lookups), "open loop, lookups and aggregates");
  out.Add("io.cache.evictions_per_request",
          Ratio(static_cast<double>(cache1.evictions - cache0.evictions), requests), "count",
          static_cast<size_t>(requests));
  out.Add("server.queue_p99_us",
          smp.lookup_queue_us.empty() ? 0.0 : Quantile(smp.lookup_queue_us, 0.99), "us",
          smp.lookup_queue_us.size(), "open loop, lookups");
  out.Add("server.lookup_exec_p50_us", MedianOr0(smp.lookup_exec_us), "us",
          smp.lookup_exec_us.size());
  out.Add("server.agg_exec_p50_us", MedianOr0(smp.agg_exec_us), "us",
          smp.agg_exec_us.size());
  out.Add("server.shed_frac",
          Ratio(static_cast<double>(stats1.SheddedTotal() - stats0.SheddedTotal()), requests),
          "ratio", static_cast<size_t>(requests));
  out.Add("bench.generator_late_p99_us",
          smp.late_us.empty() ? 0.0 : Quantile(smp.late_us, 0.99), "us", smp.late_us.size());
  out.Add("bench.achieved_rps", achieved, "1/s", smp.completed,
          "open loop; offered " + std::to_string(static_cast<int>(kOfferedRps)));
  AddLedgerMetrics(*tracer,
                   counts.untraced_hit_s.empty() || counts.traced_hit_s.empty()
                       ? 0.0
                       : Quantile(counts.traced_hit_s, 0.5) /
                                 Quantile(counts.untraced_hit_s, 0.5) -
                             1.0,
                   counts.traced_hit_s.size(), &out);
  return out;
}

}  // namespace perfbench
