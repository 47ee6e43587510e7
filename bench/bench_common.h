#ifndef ALP_BENCH_BENCH_COMMON_H_
#define ALP_BENCH_BENCH_COMMON_H_

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "alp/alp.h"
#include "obs/perf_counters.h"
#include "obs/sink.h"
#include "obs/trace_buffer.h"
#include "util/cycle_clock.h"

/// \file bench_common.h
/// Shared helpers for the benchmark harness. Each bench binary regenerates
/// one table or figure of the paper (see DESIGN.md's per-experiment index)
/// and prints rows in the paper's format. Sizes are tuned so the full
/// harness runs in minutes on a laptop; set ALP_BENCH_VALUES to override
/// the per-dataset value count.

namespace alp::bench {

/// Values generated per dataset for ratio-style experiments.
inline size_t ValuesPerDataset(size_t default_count = 256 * 1024) {
  if (const char* env = std::getenv("ALP_BENCH_VALUES")) {
    const long long v = std::atoll(env);
    if (v > 0) return static_cast<size_t>(v);
  }
  return default_count;
}

/// Measures average cycles per iteration of \p fn, running it repeatedly
/// until \p min_cycles cycles have elapsed (past a warm-up run).
template <typename Fn>
double MeasureCycles(const Fn& fn, uint64_t min_cycles = 40'000'000) {
  fn();  // Warm-up (also makes data L1-resident, as in the paper).
  uint64_t iters = 0;
  const uint64_t start = CycleNow();
  uint64_t elapsed = 0;
  while (elapsed < min_cycles) {
    fn();
    ++iters;
    elapsed = CycleNow() - start;
  }
  return static_cast<double>(elapsed) / static_cast<double>(iters);
}

/// The paper's speed metric: tuples per CPU cycle for a kernel processing
/// \p tuples values per invocation.
template <typename Fn>
double TuplesPerCycle(const Fn& fn, size_t tuples, uint64_t min_cycles = 40'000'000) {
  return static_cast<double>(tuples) / MeasureCycles(fn, min_cycles);
}

/// Hardware-counter rates for one kernel under the bench loop. `valid` is
/// false when perf_event is unavailable (forbidden / no hardware /
/// compiled out) — the rdtsc metrics above are the fallback, and a bench
/// emits perf records only when this is true.
struct PerfRates {
  bool valid = false;
  double ipc = 0.0;
  double cache_misses_per_tuple = 0.0;
  double cache_references_per_tuple = 0.0;
  double branch_misses_per_tuple = 0.0;
  double multiplex_scale = 1.0;  ///< >1 when the kernel's group multiplexed.
};

/// Per-tuple rates of one counter interval over \p tuples tuples; invalid
/// when the interval is (counters unavailable or a read failed).
inline PerfRates PerfRatesOf(const obs::PerfSample& delta, double tuples) {
  PerfRates rates;
  if (!delta.valid || tuples <= 0) return rates;
  rates.valid = true;
  rates.ipc = delta.Ipc();
  rates.cache_misses_per_tuple =
      static_cast<double>(delta.cache_misses) / tuples;
  rates.cache_references_per_tuple =
      static_cast<double>(delta.cache_references) / tuples;
  rates.branch_misses_per_tuple =
      static_cast<double>(delta.branch_misses) / tuples;
  rates.multiplex_scale = delta.Scale();
  return rates;
}

/// Runs \p fn under one perf_event interval using the same
/// warm-up-then-budget loop shape as MeasureCycles, and returns per-tuple
/// counter rates (multiplex-scaled). Returns an invalid PerfRates — never
/// fails — when counters are unavailable.
template <typename Fn>
PerfRates MeasurePerfRates(const Fn& fn, size_t tuples,
                           uint64_t min_cycles = 40'000'000) {
  if (!obs::PerfAvailable()) return {};
  fn();  // Warm-up, as in MeasureCycles.
  obs::PerfScope perf;
  perf.Arm();
  uint64_t iters = 0;
  const uint64_t start = CycleNow();
  while (CycleNow() - start < min_cycles) {
    fn();
    ++iters;
  }
  return PerfRatesOf(perf.Finish(),
                     static_cast<double>(tuples) * static_cast<double>(iters));
}

/// Pretty separator line.
inline void Rule(char c = '-', int width = 100) {
  for (int i = 0; i < width; ++i) std::putchar(c);
  std::putchar('\n');
}

/// One stderr line announcing hardware-counter availability, so a bench
/// run's perf records (or their absence) is explained in its log.
inline void ReportPerfProbe() {
  const obs::PerfProbeResult& probe = obs::PerfProbe();
  std::fprintf(stderr, "perf counters: %s\n",
               probe.detail.empty()
                   ? obs::PerfAvailabilityName(probe.availability)
                   : probe.detail.c_str());
}

/// Machine-readable emission shared by every bench binary (schema
/// "alp-bench-v1", documented in docs/BENCH_SCHEMA.md). A binary calls
/// JsonReport::FromArgs(argc, argv, "bench_name") once; when the user passed
/// --json=<path> the human-formatted stdout stays untouched and every
/// Add()ed record is additionally written to <path> on Write() (or at
/// destruction). With no --json flag all calls are no-ops.
///
/// One record = one (dataset, scheme, metric) measurement:
///   {"dataset": "City-Temp", "scheme": "ALP", "metric": "bits_per_value",
///    "value": 7.23, "unit": "bits" [, "threads": 4]}
/// Canonical metric names: bits_per_value, compression_ratio,
/// compress_tuples_per_cycle, decompress_tuples_per_cycle,
/// compress_cycles_per_value, decompress_cycles_per_value,
/// tuples_per_cycle_per_core. Keep units consistent with the metric (see
/// the schema doc) so cross-bench comparison stays trivial.
class JsonReport {
 public:
  JsonReport() = default;

  /// Scans argv for --json=<path>; unrelated arguments are ignored so
  /// binaries with their own flags can share the scan.
  static JsonReport FromArgs(int argc, char** argv, std::string bench_name) {
    JsonReport report;
    report.bench_ = std::move(bench_name);
    for (int i = 1; i < argc; ++i) {
      const char* a = argv[i];
      if (std::strncmp(a, "--json=", 7) == 0 && a[7] != '\0') {
        report.path_ = a + 7;
      }
    }
    return report;
  }

  JsonReport(const JsonReport&) = delete;
  JsonReport& operator=(const JsonReport&) = delete;
  JsonReport(JsonReport&& other) noexcept { *this = std::move(other); }
  JsonReport& operator=(JsonReport&& other) noexcept {
    bench_ = std::move(other.bench_);
    path_ = std::move(other.path_);
    records_ = std::move(other.records_);
    written_ = other.written_;
    other.path_.clear();
    return *this;
  }

  ~JsonReport() { Write(); }

  bool enabled() const { return !path_.empty(); }

  /// Appends one measurement record; \p threads < 0 omits the field and an
  /// empty \p kernel_tier / \p tenant omits that field. Pass the tier only
  /// on records whose speed depends on the dispatched decode kernel (ALP
  /// decompress measurements), so per-tier baselines never compare across
  /// tiers. \p tenant labels per-tenant serving-latency records (see
  /// docs/BENCH_SCHEMA.md). Values serialize round-trippably (%.17g via
  /// obs::JsonDouble): bench_diff comparisons see exactly the measured
  /// double, not a 6-digit rounding of it.
  void Add(const std::string& dataset, const std::string& scheme,
           const std::string& metric, double value, const std::string& unit,
           int threads = -1, const std::string& kernel_tier = std::string(),
           const std::string& tenant = std::string()) {
    if (!enabled()) return;
    std::string rec = "    {\"dataset\": " + Quote(dataset) +
                      ", \"scheme\": " + Quote(scheme) +
                      ", \"metric\": " + Quote(metric) + ", \"value\": ";
    rec += obs::JsonDouble(value);
    rec += ", \"unit\": " + Quote(unit);
    if (threads >= 0) {
      rec += ", \"threads\": " + std::to_string(threads);
    }
    if (!kernel_tier.empty()) {
      rec += ", \"kernel_tier\": " + Quote(kernel_tier);
    }
    if (!tenant.empty()) {
      rec += ", \"tenant\": " + Quote(tenant);
    }
    rec += "}";
    records_.push_back(std::move(rec));
  }

  /// Appends the per-tuple hardware-counter records for one measured
  /// kernel under the canonical names (<prefix>_ipc,
  /// <prefix>_cache_misses_per_tuple, <prefix>_branch_misses_per_tuple);
  /// no-op when \p rates is invalid, so benches call it unconditionally
  /// and hosts without counters emit rdtsc-only reports.
  void AddPerf(const std::string& dataset, const std::string& scheme,
               const std::string& metric_prefix, const PerfRates& rates,
               int threads = -1,
               const std::string& kernel_tier = std::string()) {
    if (!rates.valid) return;
    Add(dataset, scheme, metric_prefix + "_ipc", rates.ipc,
        "instructions/cycle", threads, kernel_tier);
    Add(dataset, scheme, metric_prefix + "_cache_misses_per_tuple",
        rates.cache_misses_per_tuple, "misses/tuple", threads, kernel_tier);
    Add(dataset, scheme, metric_prefix + "_branch_misses_per_tuple",
        rates.branch_misses_per_tuple, "misses/tuple", threads, kernel_tier);
  }

  /// Writes the report file; safe to call more than once (later calls
  /// rewrite with any records added since). Returns false on I/O failure.
  bool Write() {
    if (!enabled()) return true;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench: cannot write %s\n", path_.c_str());
      return false;
    }
    const obs::PerfProbeResult& probe = obs::PerfProbe();
    std::fprintf(f,
                 "{\n  \"schema\": \"alp-bench-v1\",\n  \"bench\": %s,\n"
                 "  \"kernel_tier\": %s,\n"
                 "  \"perf\": {\"available\": %s, \"status\": %s},\n"
                 "  \"records\": [\n",
                 Quote(bench_).c_str(),
                 Quote(kernels::ActiveTierName()).c_str(),
                 probe.available() ? "true" : "false",
                 Quote(obs::PerfAvailabilityName(probe.availability)).c_str());
    for (size_t i = 0; i < records_.size(); ++i) {
      std::fprintf(f, "%s%s\n", records_[i].c_str(),
                   i + 1 < records_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    written_ = true;
    return true;
  }

 private:
  /// Full JSON escaping via the shared library escaper — dataset and file
  /// names with quotes, backslashes or control characters can't break the
  /// report (the old private escaper missed control characters).
  static std::string Quote(const std::string& s) { return obs::JsonQuote(s); }

  std::string bench_;
  std::string path_;
  std::vector<std::string> records_;
  bool written_ = false;
};

/// Scoped trace capture shared by every bench binary: scans argv for
/// --trace=<path> and, when present, records every instrumented span for
/// the binary's lifetime, writing Chrome/Perfetto trace_event JSON at
/// destruction (load it in https://ui.perfetto.dev). Without the flag every
/// call is a no-op, and builds with -DALP_OBS=OFF write a valid empty
/// trace. Construct it first thing in main() so setup spans are captured:
///
///   int main(int argc, char** argv) {
///     auto trace = alp::bench::TraceSession::FromArgs(argc, argv);
///     auto report = alp::bench::JsonReport::FromArgs(argc, argv, "...");
///     ...
/// The capture also survives interruption: an armed session installs a
/// SIGINT handler and an atexit hook, so a load run killed with ^C (or a
/// binary that bails through std::exit before the session destructs) still
/// writes a well-formed trace file with every span recorded so far, instead
/// of leaving nothing or a torn file behind. Whichever of the destructor /
/// signal / atexit paths runs first flushes; the rest are no-ops.
class TraceSession {
 public:
  static TraceSession FromArgs(int argc, char** argv) {
    TraceSession session;
    for (int i = 1; i < argc; ++i) {
      const char* a = argv[i];
      if (std::strncmp(a, "--trace=", 8) == 0 && a[8] != '\0') {
        session.path_ = a + 8;
      }
    }
    if (session.enabled()) {
      obs::StartTracing();
      GlobalPath() = session.path_;
      GlobalArmed().store(true, std::memory_order_release);
      // Best-effort: WriteTraceFile is not async-signal-safe, but a bench
      // run interrupted at a bad instant at worst loses the trace it was
      // about to lose anyway — it cannot corrupt anything else.
      std::signal(SIGINT, [](int) {
        FlushNow();
        std::_Exit(130);
      });
      std::atexit([] { FlushNow(); });
    }
    return session;
  }

  TraceSession() = default;
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;
  TraceSession(TraceSession&& other) noexcept { *this = std::move(other); }
  TraceSession& operator=(TraceSession&& other) noexcept {
    path_ = std::move(other.path_);
    other.path_.clear();
    return *this;
  }

  bool enabled() const { return !path_.empty(); }

  /// Stops the capture and writes the trace file exactly once per armed
  /// session; every later call (destructor after a signal flush, atexit
  /// after the destructor) is a no-op.
  static void FlushNow() {
    if (!GlobalArmed().exchange(false, std::memory_order_acq_rel)) return;
    obs::StopTracing();
    const Status s = obs::WriteTraceFile(GlobalPath());
    if (!s.ok()) {
      std::fprintf(stderr, "bench: cannot write trace %s: %s\n",
                   GlobalPath().c_str(), s.ToString().c_str());
      return;
    }
    std::fprintf(stderr, "bench: trace written to %s\n", GlobalPath().c_str());
  }

  ~TraceSession() {
    if (!enabled()) return;
    FlushNow();
  }

 private:
  // One armed session per process (FromArgs is called once from main);
  // global so the signal/atexit hooks reach it without captures.
  static std::atomic<bool>& GlobalArmed() {
    static std::atomic<bool> armed{false};
    return armed;
  }
  static std::string& GlobalPath() {
    static std::string path;
    return path;
  }

  std::string path_;
};

}  // namespace alp::bench

#endif  // ALP_BENCH_BENCH_COMMON_H_
