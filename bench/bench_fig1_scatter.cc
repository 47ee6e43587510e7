// Regenerates Figure 1: the compression-ratio vs. [de]compression-speed
// scatter. For every (dataset, scheme) pair one row is printed with the
// achieved bits/value and the hot-vector compression and decompression
// speeds in tuples/cycle - the coordinates of one dot in the paper's two
// panels. Shape to check: ALP sits top-right (fast AND small) in both
// panels, 1-2 orders of magnitude faster than the XOR family; only Zstd
// matches its ratio but at far lower speed.

#include <cstdio>
#include <string>
#include <vector>

#include "alp_micro.h"
#include "bench_common.h"
#include "codecs/codec.h"
#include "data/datasets.h"

int main(int argc, char** argv) {
  auto trace = alp::bench::TraceSession::FromArgs(argc, argv);
  auto json = alp::bench::JsonReport::FromArgs(argc, argv, "bench_fig1_scatter");
  const size_t n = alp::bench::ValuesPerDataset(128 * 1024);
  constexpr uint64_t kBudget = 3'000'000;  // Cycles per speed measurement.

  std::printf("Figure 1 data: one row per (dataset, scheme) dot\n");
  std::printf("%-14s %-10s %12s %12s %12s\n", "dataset", "scheme", "bits/value",
              "comp t/c", "dec t/c");
  alp::bench::Rule('-', 66);

  // Aggregates for the headline claim.
  double alp_ratio = 0, alp_comp = 0, alp_dec = 0;
  double best_other_comp = 0, best_other_dec = 0;

  for (const auto& spec : alp::data::AllDatasets()) {
    const auto data = alp::data::Generate(spec, n);

    // ALP: ratio from the column format, speed from the micro kernels.
    {
      const auto buffer = alp::CompressColumn(data.data(), data.size());
      const double ratio = buffer.size() * 8.0 / data.size();
      const auto state = alp::bench::PrepareAlpMicro(data.data(), data.size());
      alp::bench::AlpMicroVector vec;
      const double comp = alp::bench::TuplesPerCycle(
          [&] { alp::bench::AlpMicroCompress(data.data(), state, &vec); },
          alp::kVectorSize, kBudget);
      double out[alp::kVectorSize];
      const double dec = alp::bench::TuplesPerCycle(
          [&] { alp::bench::AlpMicroDecompress(vec, out); }, alp::kVectorSize, kBudget);
      std::printf("%-14s %-10s %12.1f %12.3f %12.3f\n",
                  std::string(spec.name).c_str(), "ALP", ratio, comp, dec);
      const std::string ds(spec.name);
      json.Add(ds, "ALP", "bits_per_value", ratio, "bits");
      json.Add(ds, "ALP", "compress_tuples_per_cycle", comp, "tuples/cycle");
      json.Add(ds, "ALP", "decompress_tuples_per_cycle", dec, "tuples/cycle");
      alp_ratio += ratio;
      alp_comp += comp;
      alp_dec += dec;
    }

    for (const auto& codec : alp::codecs::AllDoubleCodecs()) {
      if (codec->name() == "ALP") continue;
      const bool block_based = codec->name() == "Zstd";
      const size_t speed_tuples = block_based ? std::min<size_t>(n, alp::kRowgroupSize)
                                              : alp::kVectorSize;
      const auto full = codec->Compress(data.data(), data.size());
      const double ratio = full.size() * 8.0 / data.size();

      std::vector<uint8_t> buffer;
      const double comp = alp::bench::TuplesPerCycle(
          [&] { buffer = codec->Compress(data.data(), speed_tuples); }, speed_tuples,
          kBudget);
      std::vector<double> decoded(speed_tuples);
      bool decoded_ok = true;
      const double dec = alp::bench::TuplesPerCycle(
          [&] {
            decoded_ok &= codec->TryDecompress(buffer.data(), buffer.size(),
                                               speed_tuples, decoded.data())
                              .ok();
          },
          speed_tuples, kBudget);
      if (!decoded_ok) {
        std::fprintf(stderr, "%s failed to decode its own output\n",
                     std::string(codec->name()).c_str());
        return 1;
      }
      std::printf("%-14s %-10s %12.1f %12.3f %12.3f\n",
                  std::string(spec.name).c_str(),
                  std::string(codec->name()).c_str(), ratio, comp, dec);
      const std::string ds(spec.name);
      const std::string scheme(codec->name());
      json.Add(ds, scheme, "bits_per_value", ratio, "bits");
      json.Add(ds, scheme, "compress_tuples_per_cycle", comp, "tuples/cycle");
      json.Add(ds, scheme, "decompress_tuples_per_cycle", dec, "tuples/cycle");
      best_other_comp = std::max(best_other_comp, comp);
      best_other_dec = std::max(best_other_dec, dec);
    }
  }

  const double d = static_cast<double>(alp::data::AllDatasets().size());
  alp::bench::Rule('-', 66);
  std::printf("ALP average: %.1f bits/value, %.3f comp t/c, %.3f dec t/c\n",
              alp_ratio / d, alp_comp / d, alp_dec / d);
  std::printf("fastest competitor dot: %.3f comp t/c, %.3f dec t/c\n",
              best_other_comp, best_other_dec);
  std::printf("shape check (paper Fig. 1): ALP above every competitor in both "
              "speed panels.\n");
  return 0;
}
