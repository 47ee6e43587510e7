#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <cstring>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "alp/predicate.h"
#include "stats.h"
#include "trace.h"

/// \file bench.h
/// What the three workloads (ingest.cc, query.cc, serve.cc) share: the
/// run options, the metric list each one fills in, the wrong-answer exit,
/// and the set-up timers.

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< Span file the traced run writes (may be empty).
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  size_t samples = 0;  ///< Samples behind the figure (1 for a single count).
  std::string note;    ///< How it was estimated; printed, not in the JSON.
};

/// What one workload run reports.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<uint64_t> failed_at;  ///< Attempt index of every failure.
  unsigned threads = 1;        ///< Threads the workload runs on, in total.
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< Extra report lines (run context).

  void Add(std::string name, double value, std::string unit, size_t samples,
           std::string note = {}) {
    metrics.push_back({std::move(name), value, std::move(unit), samples,
                       std::move(note)});
  }
  void Add(std::string name, const Estimate& e, std::string unit,
           std::string note = {}) {
    Add(std::move(name), e.value, std::move(unit), e.samples, std::move(note));
  }
  /// Counts one attempted operation that failed (\p ok false) or not;
  /// returns \p ok.
  bool Count(bool ok) {
    if (!ok) {
      failed_at.push_back(attempted);
      ++failed;
    }
    ++attempted;
    return ok;
  }
};

Outcome RunIngest(const Options& options, Tracer* tracer);
Outcome RunQuery(const Options& options, Tracer* tracer);
Outcome RunServe(const Options& options, Tracer* tracer);

/// Reports a wrong answer on stderr and ends the process with exit code 3
/// at once (no result line is printed): a wrong answer is never counted as
/// a slow one.
[[noreturn]] void WrongAnswer(const std::string& what);

/// Bitwise equality of two doubles (distinguishes -0.0, keeps NaN payloads).
inline bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Set-up repetitions per run; setup_s is their median.
inline constexpr int kSetupRepeats = 5;

/// Returns \p make()'s result and appends its build time, in seconds, to
/// \p times.
template <typename Make>
auto TimedSetup(Make make, std::vector<double>* times) {
  const uint64_t t0 = NowNs();
  auto state = make();
  times->push_back(static_cast<double>(NowNs() - t0) / 1e9);
  return state;
}

/// Builds and discards the state until \p times holds kSetupRepeats
/// set-up times, and returns their median. Workloads call it after the
/// measured run and after reading peak_rss_mb: each extra build lands in a
/// heap the previous ones fragmented, by amounts that vary from seed to
/// seed, and would raise the peak by as much.
template <typename Make>
double MedianSetupS(Make make, std::vector<double>* times) {
  while (times->size() < static_cast<size_t>(kSetupRepeats)) TimedSetup(make, times);
  return Quantile(*times, 0.5);
}

/// Peak resident set of this process so far, in MiB.
double PeakRssMb();

/// Moves the calling thread to the next CPU it may run on, round robin;
/// `ingest` calls it at each pass and `query` at each cycle. On a shared
/// virtual machine each virtual CPU goes through slow phases of its own
/// (a busy neighbour on the same physical core) lasting up to minutes; a
/// run that stayed on one CPU would report that CPU's phase, while one that
/// visits them all has calm blocks for the block estimators to find.
void NextCpu();

/// \p rowgroups rowgroups of the named dataset surrogate, each generated
/// from its own sub-seed of \p seed. Time-series surrogates are random
/// walks, so one long walk would give every seed a different value range,
/// bit width and zone-map layout, and with them different costs; many
/// short independent walks average that out while the values stay a
/// function of the seed.
std::vector<double> GenerateColumn(const char* dataset, size_t rowgroups, uint64_t seed);

/// Rowgroup \p rowgroup of GenerateColumn(\p dataset, n, \p seed), for any
/// n above \p rowgroup.
std::vector<double> GenerateRowgroup(const char* dataset, uint64_t seed, size_t rowgroup);

/// The \p count bands [lo, hi] that each hold about \p share of \p v's
/// values and let closest to \p survivors (a share of the 1024-value
/// vectors) through a zone map, in value order; chosen among 181 positions.
/// A filter's cost follows the vectors that survive the zone map, and where
/// one fixed quantile lands on a random walk changes that count several-fold
/// from seed to seed; fixing the count keeps the cost a property of the
/// workload rather than of the seed.
std::vector<alp::Predicate> BandsWithSurvivors(const std::vector<double>& v, double share,
                                               double survivors, size_t count);

/// Median of \p v, or 0 for an empty sample (per-layer figures only).
inline double MedianOr0(const std::vector<double>& v) {
  return v.empty() ? 0.0 : Quantile(v, 0.5);
}

/// a / b, or 0 when b is 0 (per-layer ratios only).
inline double Ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

/// Median over pairs of traced / untraced unit times, minus 1: the cost of
/// recording spans, with slow phases hitting both sides of each pair.
inline double OverheadFrac(const std::vector<double>& untraced,
                           const std::vector<double>& traced) {
  std::vector<double> ratios;
  for (size_t i = 0; i < untraced.size() && i < traced.size(); ++i) {
    if (untraced[i] > 0.0) ratios.push_back(traced[i] / untraced[i]);
  }
  return ratios.empty() ? 0.0 : Quantile(ratios, 0.5) - 1.0;
}

/// Adds the ledger rows every traced run reports: unattributed_frac and
/// trace.overhead_frac.
void AddLedgerMetrics(const Tracer& tracer, double overhead_frac,
                      size_t overhead_pairs, Outcome* out);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
