// Regenerates Figure 4's software axis: decompression speed of the fused
// ALP+FFOR kernel compiled several ways - Scalar (the paper's native
// formula with auto-vectorization disabled), Auto-vectorized (the scalar
// dispatch tier: the same fused loop with the exact int64->double convert,
// at -O3 for the build's baseline target) and one column per SIMD dispatch
// tier the host can run (avx2, avx512, neon; see
// src/alp/kernel_dispatch.h). The paper runs this across five CPU
// architectures; on one host the reproducible claim is the *ordering*:
// Auto-vectorized matches or beats Scalar everywhere, and the SIMD
// columns - plain C++ ALP decode under each tier's flags, with no convert
// intrinsics - show what the compiler reaches with wider registers.

#include <cstdio>
#include <string>
#include <vector>

#include "alp/decode_kernels.h"
#include "alp_micro.h"
#include "bench_common.h"
#include "data/datasets.h"

namespace {

// SIMD dispatch tiers, benchmarked when available on this host+build.
constexpr alp::kernels::Tier kSimdTiers[] = {
    alp::kernels::Tier::kNeon,
    alp::kernels::Tier::kAvx2,
    alp::kernels::Tier::kAvx512,
};

}  // namespace

int main(int argc, char** argv) {
  auto trace = alp::bench::TraceSession::FromArgs(argc, argv);
  auto json = alp::bench::JsonReport::FromArgs(argc, argv, "bench_fig4_kernels");
  alp::bench::ReportPerfProbe();
  constexpr uint64_t kBudget = 8'000'000;

  const alp::kernels::DecodeKernels* autovec_kernels =
      alp::kernels::TierKernels(alp::kernels::Tier::kScalar);
  std::vector<const alp::kernels::DecodeKernels*> simd;
  for (alp::kernels::Tier tier : kSimdTiers) {
    if (const auto* k = alp::kernels::TierKernels(tier)) simd.push_back(k);
  }

  std::printf("Figure 4: fused decode kernel flavours, tuples per cycle\n");
  std::printf("(runtime dispatch selects '%s' on this host)\n\n",
              alp::kernels::ActiveTierName());
  std::printf("%-14s %12s %16s", "Dataset", "Scalar", "Auto-vectorized");
  for (const auto* k : simd) {
    std::printf(" %12s", alp::kernels::TierName(k->tier));
  }
  std::printf("\n");
  const int rule_width = 44 + 13 * static_cast<int>(simd.size());
  alp::bench::Rule('-', rule_width);

  std::vector<double> sums(2 + simd.size(), 0.0);
  size_t count = 0;

  for (const auto& spec : alp::data::AllDatasets()) {
    const auto data = alp::data::Generate(spec, alp::kRowgroupSize);
    const auto state = alp::bench::PrepareAlpMicro(data.data(), data.size());
    alp::bench::AlpMicroVector vec;
    alp::bench::AlpMicroCompress(data.data(), state, &vec);

    alignas(64) double out[alp::kVectorSize];
    const auto c = vec.enc.combination;
    const double f10_f = alp::AlpTraits<double>::kF10[c.f];
    const double if10_e = alp::AlpTraits<double>::kIF10[c.e];

    const auto scalar_decode = [&] {
      alp::scalar::DecodeAlpFused(vec.packed, vec.ffor, c, out);
    };
    const double scalar =
        alp::bench::TuplesPerCycle(scalar_decode, alp::kVectorSize, kBudget);
    const auto autovec_decode = [&] {
      autovec_kernels->alp_fused64(vec.packed, vec.ffor.base, vec.ffor.width,
                                   f10_f, if10_e, out);
    };
    const double autovec =
        alp::bench::TuplesPerCycle(autovec_decode, alp::kVectorSize, kBudget);

    std::printf("%-14s %12.3f %16.3f", std::string(spec.name).c_str(), scalar,
                autovec);
    const std::string ds(spec.name);
    json.Add(ds, "ALP-scalar", "decompress_tuples_per_cycle", scalar,
             "tuples/cycle", -1, "scalar");
    json.Add(ds, "ALP-autovec", "decompress_tuples_per_cycle", autovec,
             "tuples/cycle");
    // Per-flavour hardware-counter rates — the figure's "why": a SIMD
    // tier that wins on tuples/cycle should show it in IPC, and a
    // flavour losing to cache misses is visible per tuple. No-ops without
    // perf_event.
    json.AddPerf(ds, "ALP-scalar", "decompress",
                 alp::bench::MeasurePerfRates(scalar_decode, alp::kVectorSize,
                                              kBudget),
                 -1, "scalar");
    json.AddPerf(ds, "ALP-autovec", "decompress",
                 alp::bench::MeasurePerfRates(autovec_decode, alp::kVectorSize,
                                              kBudget));
    sums[0] += scalar;
    sums[1] += autovec;

    for (size_t s = 0; s < simd.size(); ++s) {
      const auto* k = simd[s];
      const double tuples = alp::bench::TuplesPerCycle(
          [&] {
            k->alp_fused64(vec.packed, vec.ffor.base, vec.ffor.width, f10_f,
                           if10_e, out);
          },
          alp::kVectorSize, kBudget);
      std::printf(" %12.3f", tuples);
      const std::string tier_name = alp::kernels::TierName(k->tier);
      json.Add(ds, "ALP-" + tier_name, "decompress_tuples_per_cycle", tuples,
               "tuples/cycle", -1, tier_name);
      json.AddPerf(ds, "ALP-" + tier_name, "decompress",
                   alp::bench::MeasurePerfRates(
                       [&] {
                         k->alp_fused64(vec.packed, vec.ffor.base,
                                        vec.ffor.width, f10_f, if10_e, out);
                       },
                       alp::kVectorSize, kBudget),
                   -1, tier_name);
      sums[2 + s] += tuples;
    }
    std::printf("\n");
    ++count;
  }

  alp::bench::Rule('-', rule_width);
  std::printf("%-14s %12.3f %16.3f", "AVG.", sums[0] / count, sums[1] / count);
  for (size_t s = 0; s < simd.size(); ++s) {
    std::printf(" %12.3f", sums[2 + s] / count);
  }
  std::printf("\n");
  std::printf("\nShape check (paper Fig. 4): Auto-vectorized >= Scalar on every\n"
              "dataset; on wide-SIMD hosts (Ice Lake) the avx512 column, plain\n"
              "C++ under AVX-512 flags, is several times faster than Scalar.\n");
  if (simd.empty()) {
    std::printf("No SIMD dispatch tier is available on this host/build; only\n"
                "the scalar and auto-vectorized flavours were measured.\n");
  }
  return 0;
}
