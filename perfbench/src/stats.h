#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

/// \file stats.h
/// The benchmark's estimators. Header-only and free of library
/// dependencies so tests/test_stats.cc can check them in isolation.
///
/// Why blocks: on a shared host, interference arrives in phases that last
/// seconds, and a whole-run percentile moves with however many slow phases
/// a run happened to catch. The block estimators split a run's
/// time-ordered samples into consecutive blocks, compute the statistic per
/// block, and report a fixed quantile of the block statistics, so a run
/// that caught a few slow phases reports the same figure as one that did
/// not.

namespace perfbench {

/// Quantile \p q (in [0, 1]) of \p v by linear interpolation between the
/// closest ranks (R's type 7, numpy's default). NaN for an empty sample.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// One estimated figure and what backs it.
struct Estimate {
  double value = std::numeric_limits<double>::quiet_NaN();
  size_t samples = 0;  ///< Samples inside the blocks used.
  size_t blocks = 0;
};

/// Quantile \p q of each block of \p block consecutive samples of
/// \p series, then quantile \p pick across the block values. A partial
/// last block is dropped unless it is the only one. For a latency,
/// a \p pick below 0.5 keeps the figure on the side of the run that slow
/// phases did not touch.
inline Estimate BlockQuantile(const std::vector<double>& series, size_t block,
                              double q, double pick) {
  Estimate e;
  if (series.empty()) return e;
  if (block == 0 || block > series.size()) block = series.size();
  std::vector<double> per_block;
  for (size_t b = 0; b + block <= series.size(); b += block) {
    per_block.push_back(Quantile(
        std::vector<double>(series.begin() + static_cast<std::ptrdiff_t>(b),
                            series.begin() + static_cast<std::ptrdiff_t>(b + block)),
        q));
  }
  e.blocks = per_block.size();
  e.samples = e.blocks * block;
  e.value = Quantile(per_block, pick);
  return e;
}

/// Work per second over blocks of \p block consecutive operations: a
/// block's rate is its summed \p work over its summed \p seconds, and the
/// result is quantile \p pick of the block rates (above 0.5 for a
/// throughput, for the same reason as BlockQuantile).
inline Estimate BlockRate(const std::vector<double>& work,
                          const std::vector<double>& seconds, size_t block,
                          double pick) {
  Estimate e;
  const size_t n = std::min(work.size(), seconds.size());
  if (n == 0) return e;
  if (block == 0 || block > n) block = n;
  std::vector<double> rates;
  for (size_t b = 0; b + block <= n; b += block) {
    double w = 0.0, s = 0.0;
    for (size_t i = b; i < b + block; ++i) {
      w += work[i];
      s += seconds[i];
    }
    if (s > 0.0) rates.push_back(w / s);
  }
  e.blocks = rates.size();
  e.samples = e.blocks * block;
  e.value = Quantile(rates, pick);
  return e;
}

/// Upper end of the 95% Wilson score interval for failed / attempted.
/// Never 0: a run in which nothing failed still states how many attempts
/// back that (about 3.84 / attempted), so fewer attempts read as a weaker
/// claim. 1 when nothing was attempted.
inline double ErrorRateUpper(uint64_t failed, uint64_t attempted) {
  if (attempted == 0) return 1.0;
  const double z = 1.959963984540054;
  const double n = static_cast<double>(attempted);
  const double p = static_cast<double>(std::min(failed, attempted)) / n;
  const double z2 = z * z;
  const double centre = p + z2 / (2.0 * n);
  const double margin = z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n));
  return std::min(1.0, (centre + margin) / (1.0 + z2 / n));
}

/// The reported error rate: ErrorRateUpper of each block of \p block
/// consecutive attempts, and the worst block. \p failed_at lists the
/// (0-based) attempt index of every failure. A partial last block is taken
/// as a whole one (its failures over \p block attempts), so a run with no
/// failures reads ErrorRateUpper(0, block) whatever its length, and any
/// failure raises the figure above that. Fewer than \p block attempts make
/// one block of all of them.
inline double WorstBlockErrorRate(const std::vector<uint64_t>& failed_at,
                                  uint64_t attempted, uint64_t block) {
  if (attempted == 0) return 1.0;
  if (block == 0 || block > attempted) block = attempted;
  std::vector<uint64_t> failures((attempted + block - 1) / block, 0);
  for (uint64_t f : failed_at) ++failures[std::min<uint64_t>(f / block, failures.size() - 1)];
  return ErrorRateUpper(*std::max_element(failures.begin(), failures.end()), block);
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
