// Out-of-core scan benchmark: cold vs warm throughput and random-access
// tail latency through io::SeekableReader over a file-backed column, in
// alp-bench-v1 JSON for the CI regression gate.
//
// What is measured (all through PreadSource, the deployment shape where
// the column does not fit in the process's memory budget):
//   cold scan      full-column Scan with caching off: every rowgroup chunk
//                  is fetched, checksum-verified and decoded.
//   warm scan      the same Scan against a DecodedVectorCache sized for
//                  the whole column, after a warming pass: every vector is
//                  served from cache — no fetch, no verify, no decode.
//   random access  p50/p99 latency of single-vector point lookups, cold
//                  (each lookup fetches + verifies + decodes its whole
//                  rowgroup chunk) vs warm (cache hit, a memcpy). The
//                  committed baseline pins warm p99 at >= 5x better than
//                  cold — that gap IS the cache's reason to exist, so
//                  losing it is a regression the gate must catch.
//
// Flags: --json=<path>, --trace=<path>, --lookups=N (default 512).
// ALP_BENCH_VALUES overrides the column size (default 8 rowgroups).

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "alp/alp.h"
#include "bench_common.h"
#include "data/datasets.h"
#include "io/decoded_vector_cache.h"
#include "io/random_access_source.h"
#include "io/seekable_reader.h"
#include "util/checksum.h"
#include "util/file_io.h"

namespace {

using Clock = std::chrono::steady_clock;
using alp::io::DecodedVectorCache;
using alp::io::PreadSource;
using alp::io::SeekableReader;
using alp::io::SeekableReaderOptions;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::shared_ptr<SeekableReader<double>> OpenOrDie(
    std::shared_ptr<alp::io::RandomAccessSource> source,
    const SeekableReaderOptions& options) {
  auto reader = SeekableReader<double>::Open(std::move(source), options);
  if (!reader.ok()) {
    std::fprintf(stderr, "FAIL: seekable open: %s\n",
                 reader.status().ToString().c_str());
    std::exit(1);
  }
  return *reader;
}

/// One full-column scan; returns values/second. The visitor's checksum
/// accumulation keeps the decoded bytes observed (and is asserted equal
/// across every configuration — a benchmark that returns wrong bytes
/// measures nothing).
double TimedScan(const SeekableReader<double>& reader, uint64_t* checksum) {
  alp::Checksum64Stream stream;
  const auto t0 = Clock::now();
  const alp::Status s = reader.Scan(
      [&stream](size_t, const double* values, unsigned len) {
        stream.Update(values, size_t{len} * sizeof(double));
        return alp::Status::Ok();
      });
  const double wall_s = SecondsSince(t0);
  if (!s.ok()) {
    std::fprintf(stderr, "FAIL: scan: %s\n", s.ToString().c_str());
    std::exit(1);
  }
  *checksum = stream.Finish();
  return static_cast<double>(reader.value_count()) / wall_s;
}

/// Per-lookup latencies (ns) of \p lookups random single-vector decodes,
/// the same seeded index sequence for every configuration.
std::vector<uint64_t> TimedLookups(const SeekableReader<double>& reader,
                                   size_t lookups) {
  std::mt19937_64 rng(12345);
  std::vector<double> out(alp::kVectorSize);
  std::vector<uint64_t> ns;
  ns.reserve(lookups);
  for (size_t i = 0; i < lookups; ++i) {
    const size_t v = rng() % reader.vector_count();
    const auto t0 = Clock::now();
    const alp::Status s = reader.TryDecodeVector(v, out.data());
    ns.push_back(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
            .count()));
    if (!s.ok()) {
      std::fprintf(stderr, "FAIL: lookup: %s\n", s.ToString().c_str());
      std::exit(1);
    }
  }
  return ns;
}

double PercentileUs(std::vector<uint64_t>& ns, double p) {
  if (ns.empty()) return 0.0;
  std::sort(ns.begin(), ns.end());
  return static_cast<double>(ns[static_cast<size_t>(p * (ns.size() - 1))]) /
         1e3;
}

/// Hardware-counter rates over one extra (untimed) full scan — run after
/// the timed passes so the counter reads never perturb the throughput
/// numbers. Invalid (and later skipped by AddPerf) without perf_event.
alp::bench::PerfRates ScanPerfRates(const SeekableReader<double>& reader) {
  if (!alp::obs::PerfAvailable()) return {};
  alp::obs::PerfScope perf;
  perf.Arm();
  uint64_t checksum = 0;
  TimedScan(reader, &checksum);
  return alp::bench::PerfRatesOf(perf.Finish(),
                                 static_cast<double>(reader.value_count()));
}

}  // namespace

int main(int argc, char** argv) {
  auto trace = alp::bench::TraceSession::FromArgs(argc, argv);
  auto report = alp::bench::JsonReport::FromArgs(argc, argv, "outofcore_scan");
  alp::bench::ReportPerfProbe();

  size_t lookups = 512;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--lookups=", 10) == 0) {
      lookups = static_cast<size_t>(std::atoll(argv[i] + 10));
    }
  }

  // 8 rowgroups of the City-Temp surrogate: enough chunks that eviction
  // has something to do, small enough for CI seconds.
  const size_t n = alp::bench::ValuesPerDataset(8 * alp::kRowgroupSize);
  const auto values =
      alp::data::Generate(*alp::data::FindDataset("City-Temp"), n);
  const std::vector<uint8_t> buffer =
      alp::CompressColumn(values.data(), values.size());

  // File-backed on purpose: PreadSource is the out-of-core deployment
  // shape, and it keeps the page-cache/syscall cost inside the measurement.
  const char* tmpdir = std::getenv("TMPDIR");
  const std::string path = std::string(tmpdir != nullptr ? tmpdir : "/tmp") +
                           "/alp_bench_outofcore.alp";
  if (!alp::WriteFileBytes(path, buffer.data(), buffer.size())) {
    std::fprintf(stderr, "FAIL: cannot write %s\n", path.c_str());
    return 1;
  }
  auto source = PreadSource::Open(path);
  if (!source.ok()) {
    std::fprintf(stderr, "FAIL: %s\n", source.status().ToString().c_str());
    return 1;
  }

  std::printf("out-of-core scan: %zu values, %zu compressed bytes, %zu "
              "rowgroups (%s)\n",
              n, buffer.size(), (n + alp::kRowgroupSize - 1) / alp::kRowgroupSize,
              path.c_str());

  const size_t cache_bytes = n * sizeof(double) + (8u << 20);

  // --- cold scan (no cache) ----------------------------------------------
  uint64_t cold_checksum = 0;
  double cold_vps = 0.0;
  alp::bench::PerfRates cold_perf;
  {
    auto reader = OpenOrDie(*source, {});
    cold_vps = TimedScan(*reader, &cold_checksum);
    // Best-of-3 to shave scheduler noise; the chunks are page-cache-hot
    // after the first pass.
    for (int i = 0; i < 2; ++i) {
      uint64_t checksum = 0;
      cold_vps = std::max(cold_vps, TimedScan(*reader, &checksum));
    }
    cold_perf = ScanPerfRates(*reader);
  }

  // --- warm scan (cache sized for the whole column) ----------------------
  DecodedVectorCache cache(cache_bytes);
  SeekableReaderOptions cached_options;
  cached_options.cache = &cache;
  auto cached_reader = OpenOrDie(*source, cached_options);
  {
    uint64_t checksum = 0;
    TimedScan(*cached_reader, &checksum);  // Warming pass (all misses).
    if (checksum != cold_checksum) {
      std::fprintf(stderr, "FAIL: cached scan changed decoded bytes\n");
      return 1;
    }
  }
  double warm_vps = 0.0;
  for (int i = 0; i < 3; ++i) {
    uint64_t checksum = 0;
    warm_vps = std::max(warm_vps, TimedScan(*cached_reader, &checksum));
    if (checksum != cold_checksum) {
      std::fprintf(stderr, "FAIL: warm scan changed decoded bytes\n");
      return 1;
    }
  }
  const alp::bench::PerfRates warm_perf = ScanPerfRates(*cached_reader);

  // --- random access: cold (uncached reader) vs warm (hits) --------------
  std::vector<uint64_t> cold_ns;
  {
    auto reader = OpenOrDie(*source, {});
    cold_ns = TimedLookups(*reader, lookups);
  }
  // The cached reader is fully warm from the scans above: same lookup
  // sequence, served from the cache.
  std::vector<uint64_t> warm_ns = TimedLookups(*cached_reader, lookups);

  const double cold_p50 = PercentileUs(cold_ns, 0.50);
  const double cold_p99 = PercentileUs(cold_ns, 0.99);
  const double warm_p50 = PercentileUs(warm_ns, 0.50);
  const double warm_p99 = PercentileUs(warm_ns, 0.99);

  const DecodedVectorCache::Stats cs = cache.TotalStats();
  std::printf("\n%-26s %14s\n", "configuration", "values/s");
  alp::bench::Rule('-', 42);
  std::printf("%-26s %14.3e\n", "cold scan", cold_vps);
  std::printf("%-26s %14.3e\n", "warm scan (cache)", warm_vps);
  std::printf("\n%-26s %10s %10s\n", "random access", "p50 us", "p99 us");
  alp::bench::Rule('-', 48);
  std::printf("%-26s %10.1f %10.1f\n", "cold (fetch+verify+decode)", cold_p50,
              cold_p99);
  std::printf("%-26s %10.1f %10.1f\n", "warm (cache hit)", warm_p50, warm_p99);
  std::printf("\ncache: hits %" PRIu64 " | misses %" PRIu64 " | evictions %"
              PRIu64 " | %" PRIu64 " entries, %" PRIu64 " bytes resident\n",
              cs.hits, cs.misses, cs.evictions, cs.entries, cs.bytes);
  std::printf("warm p99 speedup over cold: %.1fx\n",
              warm_p99 > 0.0 ? cold_p99 / warm_p99 : 0.0);

  report.Add("outofcore", "cold", "scan_values_per_second", cold_vps,
             "values/s");
  report.Add("outofcore", "warm", "scan_values_per_second", warm_vps,
             "values/s");
  report.Add("outofcore", "cold", "random_access_p50_latency_us", cold_p50,
             "us");
  report.Add("outofcore", "cold", "random_access_p99_latency_us", cold_p99,
             "us");
  report.Add("outofcore", "warm", "random_access_p50_latency_us", warm_p50,
             "us");
  report.Add("outofcore", "warm", "random_access_p99_latency_us", warm_p99,
             "us");
  // Counter attribution of the scan paths (skipped without perf_event): a
  // cold scan that goes cache-miss-bound vs a warm scan served from the
  // decoded-vector cache shows up here long before throughput regresses.
  report.AddPerf("outofcore", "cold", "scan", cold_perf);
  report.AddPerf("outofcore", "warm", "scan", warm_perf);

  std::remove(path.c_str());

  // The acceptance floor the committed baseline encodes: a warm point
  // lookup must beat a cold one by 5x at the tail. Enforced here too, so
  // the smoke run fails even before bench_diff compares anything.
  if (warm_p99 > 0.0 && cold_p99 / warm_p99 < 5.0) {
    std::fprintf(stderr,
                 "FAIL: warm random-access p99 (%.1f us) is not 5x better "
                 "than cold (%.1f us)\n",
                 warm_p99, cold_p99);
    return 1;
  }
  return 0;
}
