// perfbench: one command, three workloads (ingest, query, serve).
//
//   perfbench --workload <ingest|query|serve> --seed <n> --seconds <s>
//             --trace <0|1> [--trace-out <file>]
//
// Prints the run context and every metric with its unit and sample count,
// then, as the last line, one JSON object:
//   {"correct": true, "attempted": N, "failed": F, "metrics": {...}}
// --trace 0 reports the end-to-end metrics; --trace 1 replays the same
// inputs through each layer and reports the per-layer metrics (see
// README.md). A wrong answer ends the run with exit code 3 and no result.

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "alp/constants.h"
#include "alp/kernel_dispatch.h"
#include "bench.h"
#include "data/datasets.h"
#include "obs/perf_counters.h"

namespace perfbench {

void WrongAnswer(const std::string& what) {
  std::fflush(stdout);
  std::fprintf(stderr, "WRONG ANSWER: %s\n", what.c_str());
  std::fflush(stderr);
  std::_Exit(3);
}

std::vector<double> GenerateRowgroup(const char* dataset, uint64_t seed, size_t rowgroup) {
  const alp::data::DatasetSpec* spec = alp::data::FindDataset(dataset);
  if (spec == nullptr) WrongAnswer(std::string("unknown dataset ") + dataset);
  uint64_t sub = seed;
  for (const char* c = dataset; *c != '\0'; ++c) sub = sub * 131 + static_cast<uint8_t>(*c);
  return alp::data::Generate(*spec, alp::kRowgroupSize, sub * 1000003 + rowgroup);
}

std::vector<double> GenerateColumn(const char* dataset, size_t rowgroups, uint64_t seed) {
  std::vector<double> out;
  out.reserve(rowgroups * alp::kRowgroupSize);
  for (size_t rg = 0; rg < rowgroups; ++rg) {
    const std::vector<double> part = GenerateRowgroup(dataset, seed, rg);
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

std::vector<alp::Predicate> BandsWithSurvivors(const std::vector<double>& v, double share,
                                               double survivors, size_t count) {
  std::vector<double> sample;
  for (size_t i = 0; i < v.size(); i += 61) sample.push_back(v[i]);
  std::sort(sample.begin(), sample.end());
  const auto at = [&](double q) {
    return sample[static_cast<size_t>(q * static_cast<double>(sample.size() - 1))];
  };
  const size_t vectors = (v.size() + alp::kVectorSize - 1) / alp::kVectorSize;
  std::vector<double> vmin(vectors, INFINITY), vmax(vectors, -INFINITY);
  for (size_t i = 0; i < v.size(); ++i) {
    vmin[i / alp::kVectorSize] = std::min(vmin[i / alp::kVectorSize], v[i]);
    vmax[i / alp::kVectorSize] = std::max(vmax[i / alp::kVectorSize], v[i]);
  }
  const double target = survivors * static_cast<double>(vectors);
  std::vector<std::pair<double, int>> miss;  // (distance to target, position)
  constexpr int kPositions = 181;
  const auto band = [&](int k) {
    const double q = 0.05 + (0.90 - share) * k / (kPositions - 1);
    return alp::Predicate::Between(at(q), at(q + share));
  };
  for (int k = 0; k < kPositions; ++k) {
    const alp::Predicate pred = band(k);
    size_t n = 0;
    for (size_t vec = 0; vec < vectors; ++vec) {
      n += vmin[vec] <= pred.hi && vmax[vec] >= pred.lo ? 1 : 0;
    }
    miss.emplace_back(std::abs(static_cast<double>(n) - target), k);
  }
  std::sort(miss.begin(), miss.end());
  miss.resize(std::min(count, miss.size()));
  std::sort(miss.begin(), miss.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  std::vector<alp::Predicate> out;
  for (const auto& [distance, k] : miss) out.push_back(band(k));
  return out;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

void NextCpu() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) out.push_back(c);
      }
    }
    return out;
  }();
  static size_t next = 0;
  if (cpus.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[next++ % cpus.size()], &set);
  sched_setaffinity(0, sizeof(set), &set);
}

void AddLedgerMetrics(const Tracer& tracer, double overhead_frac,
                      size_t overhead_pairs, Outcome* out) {
  const Tracer::Ledger ledger = tracer.BuildLedger();
  char line[200];
  std::snprintf(line, sizeof(line), "ledger: %zu units, %.3f ms end to end, "
                "%.3f ms unattributed", ledger.units, ledger.e2e_ns / 1e6,
                ledger.unattributed_ns / 1e6);
  out->notes.push_back(line);
  for (const auto& [layer, ns] : ledger.layer_self_ns) {
    std::snprintf(line, sizeof(line), "  self %-28s %10.3f ms  %6.2f%%", layer.c_str(),
                  ns / 1e6, 100.0 * Ratio(ns, ledger.e2e_ns));
    out->notes.push_back(line);
  }
  out->Add("unattributed_frac", ledger.UnattributedFrac(), "ratio", ledger.units,
           "(unit time - sum of layer self times) / unit time");
  out->Add("trace.overhead_frac", overhead_frac, "ratio", overhead_pairs,
           "median traced / untraced unit time - 1");
}

namespace {

/// Attempts per error_rate block (see WorstBlockErrorRate); below the
/// attempts of the shortest run (ingest, ~40 per second).
constexpr uint64_t kErrorBlock = 100;

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Every workload reports each of these with --trace 0 (BENCHMARK.json's
/// end_to_end list). A workload fills in all but error_rate, which main
/// adds.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"peak_rss_mb", "MiB"},       {"bits_per_value", "bits"},
    {"error_rate", "ratio"},   {"mvalues_per_s", "Mvalues/s"}, {"op_p50_us", "us"},
};

/// Every traced run reports each of these (BENCHMARK.json's per_layer
/// list); a layer the workload does not load reads 0.
constexpr MetricSpec kPerLayer[] = {
    {"alp.sampler.ns_per_value", "ns/value"},
    {"alp.sampler.combinations_per_vector", "count"},
    {"alp.encoder.ns_per_value", "ns/value"},
    {"alp.encoder.exceptions_per_vector", "count"},
    {"alp.rd.ns_per_value", "ns/value"},
    {"alp.rd.rowgroup_frac", "ratio"},
    {"fastlanes.ffor.pack_ns_per_value", "ns/value"},
    {"util.checksum.ns_per_byte", "ns/byte"},
    {"alp.kernels.alp_ns_per_value", "ns/value"},
    {"alp.column.patch_ns_per_value", "ns/value"},
    {"alp.column.decode_ns_per_value", "ns/value"},
    {"alp.column.checked_decode_ns_per_value", "ns/value"},
    {"alp.column.rd_decode_ns_per_value", "ns/value"},
    {"alp.column.open_chunk_us", "us"},
    {"alp.pushdown.filter_ns_per_vector", "ns/vector"},
    {"alp.pushdown.skipped_frac", "ratio"},
    {"alp.pushdown.packed_eval_frac", "ratio"},
    {"alp.pushdown.full_inside_frac", "ratio"},
    {"engine.operators.ns_per_value", "ns/value"},
    {"filter_sparse_p50_us", "us"},
    {"filter_mid_p50_us", "us"},
    {"sum_alp_p50_us", "us"},
    {"sum_rd_p50_us", "us"},
    {"io.seekable_reader.cold_lookup_us", "us"},
    {"io.seekable_reader.warm_lookup_us", "us"},
    {"io.cache.hit_ratio", "ratio"},
    {"io.cache.evictions_per_request", "count"},
    {"server.queue_p99_us", "us"},
    {"server.lookup_exec_p50_us", "us"},
    {"server.agg_exec_p50_us", "us"},
    {"server.shed_frac", "ratio"},
    {"lookup_p99_us", "us"},
    {"agg_p50_us", "us"},
    {"agg_p99_us", "us"},
    {"bench.generator_late_p99_us", "us"},
    {"bench.achieved_rps", "1/s"},
    {"unattributed_frac", "ratio"},
    {"trace.overhead_frac", "ratio"},
};

/// Puts \p out's metrics in the order of \p specs, adding a 0 for every
/// spec the workload did not report when \p fill is set. Returns false,
/// naming the metric, when a reported metric is not in \p specs, has
/// another unit, or a spec is missing and \p fill is not set.
template <size_t N>
bool Conform(const MetricSpec (&specs)[N], bool fill, Outcome* out) {
  std::vector<Metric> ordered;
  for (const MetricSpec& spec : specs) {
    const auto it = std::find_if(out->metrics.begin(), out->metrics.end(),
                                 [&](const Metric& m) { return m.name == spec.name; });
    if (it != out->metrics.end()) {
      if (it->unit != spec.unit) {
        std::fprintf(stderr, "metric %s has unit %s, not %s\n", spec.name,
                     it->unit.c_str(), spec.unit);
        return false;
      }
      ordered.push_back(*it);
    } else if (fill) {
      ordered.push_back({spec.name, 0.0, spec.unit, 0, "layer not loaded by this workload"});
    } else {
      std::fprintf(stderr, "workload did not report %s\n", spec.name);
      return false;
    }
  }
  for (const Metric& m : out->metrics) {
    if (std::none_of(ordered.begin(), ordered.end(),
                     [&](const Metric& o) { return o.name == m.name; })) {
      std::fprintf(stderr, "metric %s is not in the benchmark's list\n", m.name.c_str());
      return false;
    }
  }
  out->metrics = std::move(ordered);
  return true;
}

/// One JSON object literal describing where the numbers came from.
std::string ContextJson(const Options& o, unsigned threads) {
  const auto& perf = alp::obs::PerfProbe();
  std::string detail;
  for (char c : perf.detail) {
    if (c == '"' || c == '\\') detail += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) detail += c;
  }
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
                "\"trace\": %d, \"kernel_tier\": \"%s\", \"perf\": \"%s\", "
                "\"perf_detail\": \"%s\", \"nproc\": %ld, \"threads\": %u}",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed), o.seconds,
                o.trace ? 1 : 0, alp::kernels::ActiveTierName(),
                alp::obs::PerfAvailabilityName(perf.availability), detail.c_str(),
                sysconf(_SC_NPROCESSORS_ONLN), threads);
  return buf;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <ingest|query|serve> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  // Large blocks come from the heap and freed memory is kept. By default
  // glibc maps every block over 32 MiB afresh and unmaps it on free, so
  // each ingest pass would fault its output buffers in page by page, and
  // on a virtual machine those faults cost whatever the host's memory
  // management makes them cost: a quarter of ingest time, varying with the
  // neighbours' load. With this, the workloads time the library's own work.
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") o.workload = value;
    else if (flag == "--seed") o.seed = std::strtoull(value, nullptr, 10);
    else if (flag == "--seconds") o.seconds = std::atof(value);
    else if (flag == "--trace") o.trace = std::atoi(value) != 0;
    else if (flag == "--trace-out") o.trace_out = value;
    else return Usage();
  }
  if (argc % 2 == 0 || !(o.seconds > 0.0)) return Usage();

  Tracer tracer;
  Outcome out;
  if (o.workload == "ingest") out = RunIngest(o, &tracer);
  else if (o.workload == "query") out = RunQuery(o, &tracer);
  else if (o.workload == "serve") out = RunServe(o, &tracer);
  else return Usage();

  if (!o.trace) {
    out.Add("error_rate", WorstBlockErrorRate(out.failed_at, out.attempted, kErrorBlock),
            "ratio", out.attempted,
            "worst 95% Wilson upper bound of failed/attempted over blocks of 100 attempts");
  }
  if (!(o.trace ? Conform(kPerLayer, true, &out) : Conform(kEndToEnd, false, &out))) {
    return 1;
  }

  const std::string context = ContextJson(o, out.threads);
  std::printf("context: %s\n", context.c_str());
  for (const std::string& note : out.notes) std::printf("%s\n", note.c_str());
  std::printf("attempted %llu, failed %llu\n",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (const Metric& m : out.metrics) {
    std::printf("%-40s %14.4f %-10s samples %zu%s%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples, m.note.empty() ? "" : "  # ", m.note.c_str());
  }
  if (o.trace && !o.trace_out.empty() &&
      !tracer.WriteJson(o.trace_out, context, alp::kernels::ActiveTierName())) {
    std::fprintf(stderr, "cannot write %s\n", o.trace_out.c_str());
    return 1;
  }
  if (o.trace) {
    std::printf("trace: %zu spans, %llu dropped%s%s\n", tracer.spans().size(),
                static_cast<unsigned long long>(tracer.dropped()),
                o.trace_out.empty() ? "" : ", written to ", o.trace_out.c_str());
  }

  std::string json = "{\"correct\": true, \"attempted\": " + std::to_string(out.attempted) +
                     ", \"failed\": " + std::to_string(out.failed) + ", \"metrics\": {";
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "metric %s has no value\n", m.name.c_str());
      return 1;
    }
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
