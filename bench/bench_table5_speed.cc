// Regenerates Table 5: average compression and decompression speed in
// tuples per CPU cycle across all datasets, per scheme. Methodology follows
// Section 4.2: one 1024-value vector per dataset is [de]compressed in a hot
// loop (L1-resident) and cycles are averaged; Zstd works on a full rowgroup
// per call since it is block-based. ALP's measured path excludes the
// once-per-rowgroup level-1 sampling, as in the paper's micro-benchmarks.

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "alp_micro.h"
#include "bench_common.h"
#include "codecs/codec.h"
#include "data/datasets.h"

namespace {

using alp::bench::Rule;
using alp::bench::TuplesPerCycle;

constexpr uint64_t kMinCycles = 20'000'000;

}  // namespace

int main(int argc, char** argv) {
  auto trace = alp::bench::TraceSession::FromArgs(argc, argv);
  auto json = alp::bench::JsonReport::FromArgs(argc, argv, "bench_table5_speed");
  alp::bench::ReportPerfProbe();
  const auto& datasets = alp::data::AllDatasets();
  std::map<std::string, std::pair<double, double>> totals;  // name -> (comp, dec).

  std::printf("Table 5: average [de]compression speed, tuples per CPU cycle\n");
  std::printf("(per-dataset hot-vector micro-benchmark, as in Section 4.2)\n\n");

  for (const auto& spec : datasets) {
    // One rowgroup of data; the measured vector is its first.
    const auto data = alp::data::Generate(spec, alp::kRowgroupSize);

    // --- ALP ---
    const auto state = alp::bench::PrepareAlpMicro(data.data(), data.size());
    alp::bench::AlpMicroVector compressed_vec;
    const double alp_comp = TuplesPerCycle(
        [&] { alp::bench::AlpMicroCompress(data.data(), state, &compressed_vec); },
        alp::kVectorSize, kMinCycles);
    alignas(64) double out[alp::kVectorSize];
    const double alp_dec = TuplesPerCycle(
        [&] { alp::bench::AlpMicroDecompress(compressed_vec, out); },
        alp::kVectorSize, kMinCycles);
    totals["ALP"].first += alp_comp;
    totals["ALP"].second += alp_dec;
    const std::string ds(spec.name);
    // Decompression rides the dispatched kernel tier; tag those records so
    // baseline comparisons (tools/bench_diff.py) stay within one tier.
    const std::string tier = alp::kernels::ActiveTierName();
    json.Add(ds, "ALP", "compress_tuples_per_cycle", alp_comp, "tuples/cycle");
    json.Add(ds, "ALP", "decompress_tuples_per_cycle", alp_dec, "tuples/cycle",
             -1, tier);
    json.Add(ds, "ALP", "compress_cycles_per_value",
             alp_comp == 0 ? 0.0 : 1.0 / alp_comp, "cycles/value");
    json.Add(ds, "ALP", "decompress_cycles_per_value",
             alp_dec == 0 ? 0.0 : 1.0 / alp_dec, "cycles/value", -1, tier);
    // Hardware-counter attribution for the same hot loops (no-ops when
    // perf_event is unavailable — the report stays rdtsc-only). Decode
    // rates are tier-tagged like the cycle metrics above.
    json.AddPerf(ds, "ALP", "compress",
                 alp::bench::MeasurePerfRates(
                     [&] {
                       alp::bench::AlpMicroCompress(data.data(), state,
                                                    &compressed_vec);
                     },
                     alp::kVectorSize, kMinCycles));
    json.AddPerf(ds, "ALP", "decompress",
                 alp::bench::MeasurePerfRates(
                     [&] { alp::bench::AlpMicroDecompress(compressed_vec, out); },
                     alp::kVectorSize, kMinCycles),
                 -1, tier);

    // --- Baselines: one vector per call (Zstd: one rowgroup per call). ---
    for (const auto& codec : alp::codecs::AllDoubleCodecs()) {
      if (codec->name() == "ALP") continue;  // Measured above.
      const bool block_based = codec->name() == "Zstd";
      const size_t tuples = block_based ? data.size() : alp::kVectorSize;
      // Slow schemes get a smaller cycle budget so the harness stays fast.
      const bool slow = codec->name() == "Elf" || codec->name() == "PDE" ||
                        codec->name() == "Zstd";
      const uint64_t budget = slow ? 4'000'000 : kMinCycles;

      std::vector<uint8_t> buffer;
      const double comp = TuplesPerCycle(
          [&] { buffer = codec->Compress(data.data(), tuples); }, tuples, budget);
      std::vector<double> decoded(tuples);
      bool decoded_ok = true;
      const double dec = TuplesPerCycle(
          [&] {
            decoded_ok &= codec->TryDecompress(buffer.data(), buffer.size(), tuples,
                                               decoded.data())
                              .ok();
          },
          tuples, budget);
      const std::string scheme(codec->name());
      if (!decoded_ok) {
        std::fprintf(stderr, "%s failed to decode its own output\n", scheme.c_str());
        return 1;
      }
      totals[scheme].first += comp;
      totals[scheme].second += dec;
      json.Add(ds, scheme, "compress_tuples_per_cycle", comp, "tuples/cycle");
      json.Add(ds, scheme, "decompress_tuples_per_cycle", dec, "tuples/cycle");
    }
    std::printf("  measured %s\n", std::string(spec.name).c_str());
  }

  std::printf("\n%-10s %14s %18s %16s %18s\n", "Algorithm", "Compression",
              "ALP faster by", "Decompression", "ALP faster by");
  Rule('-', 80);
  const double n = static_cast<double>(datasets.size());
  const auto [alp_c, alp_d] = totals["ALP"];
  for (const char* name :
       {"ALP", "Chimp", "Chimp128", "Elf", "Gorilla", "PDE", "Patas", "Zstd"}) {
    const auto [comp, dec] = totals[name];
    if (std::string(name) == "ALP") {
      std::printf("%-10s %14.3f %18s %16.3f %18s\n", name, comp / n, "-", dec / n, "-");
    } else {
      std::printf("%-10s %14.3f %17.0fx %16.3f %17.0fx\n", name, comp / n,
                  alp_c / comp, dec / n, alp_d / dec);
    }
  }
  std::printf(
      "\nPaper (Ice Lake): ALP 0.487 comp / 2.609 dec; Chimp 0.042/0.039;\n"
      "Chimp128 0.040/0.040; Elf 0.010/0.012; Gorilla 0.052/0.047;\n"
      "PDE 0.002/0.387; Patas 0.060/0.157; Zstd 0.035/0.101\n");
  return 0;
}
