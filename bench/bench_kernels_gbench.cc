// Google-benchmark microbenchmarks for the substrate kernels: bit-packing,
// FFOR, and the fused ALP decode at controlled bit widths. These complement
// the paper-table harnesses with per-kernel throughput numbers (and a
// counter in values/second), useful for regression tracking.

#include <benchmark/benchmark.h>

#include <cstring>
#include <random>
#include <vector>

#include "alp/encoder.h"
#include "alp/kernel_dispatch.h"
#include "bench_common.h"
#include "fastlanes/bitpack.h"
#include "fastlanes/ffor.h"

namespace {

using alp::fastlanes::kBlockSize;

void BM_Pack64(benchmark::State& state) {
  const unsigned width = static_cast<unsigned>(state.range(0));
  std::mt19937_64 rng(width);
  std::vector<uint64_t> in(kBlockSize);
  for (auto& v : in) v = rng() & alp::LowMask64(width);
  std::vector<uint64_t> out(kBlockSize);
  for (auto _ : state) {
    alp::fastlanes::Pack(in.data(), out.data(), width);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kBlockSize);
}
BENCHMARK(BM_Pack64)->Arg(1)->Arg(8)->Arg(16)->Arg(24)->Arg(32)->Arg(48)->Arg(64);

void BM_Unpack64(benchmark::State& state) {
  const unsigned width = static_cast<unsigned>(state.range(0));
  std::mt19937_64 rng(width);
  std::vector<uint64_t> in(kBlockSize);
  for (auto& v : in) v = rng() & alp::LowMask64(width);
  std::vector<uint64_t> packed(kBlockSize);
  alp::fastlanes::Pack(in.data(), packed.data(), width);
  std::vector<uint64_t> out(kBlockSize);
  for (auto _ : state) {
    alp::fastlanes::Unpack(packed.data(), out.data(), width);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kBlockSize);
}
BENCHMARK(BM_Unpack64)->Arg(1)->Arg(8)->Arg(16)->Arg(24)->Arg(32)->Arg(48)->Arg(64);

void BM_FforDecode(benchmark::State& state) {
  const unsigned width = static_cast<unsigned>(state.range(0));
  std::mt19937_64 rng(width);
  std::vector<int64_t> in(kBlockSize);
  for (auto& v : in) {
    v = 1000 + static_cast<int64_t>(rng() & alp::LowMask64(width));
  }
  const auto params = alp::fastlanes::FforAnalyze(in.data(), kBlockSize);
  std::vector<uint64_t> packed(kBlockSize);
  alp::fastlanes::FforEncode(in.data(), packed.data(), params);
  std::vector<int64_t> out(kBlockSize);
  for (auto _ : state) {
    alp::fastlanes::FforDecode(packed.data(), out.data(), params);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kBlockSize);
}
BENCHMARK(BM_FforDecode)->Arg(3)->Arg(13)->Arg(23)->Arg(43);

void BM_AlpFusedDecode(benchmark::State& state) {
  const unsigned width = static_cast<unsigned>(state.range(0));
  std::mt19937_64 rng(width);
  std::vector<int64_t> encoded(kBlockSize);
  for (auto& v : encoded) {
    v = static_cast<int64_t>(rng() & alp::LowMask64(width));
  }
  const auto ffor = alp::fastlanes::FforAnalyze(encoded.data(), kBlockSize);
  std::vector<uint64_t> packed(kBlockSize);
  alp::fastlanes::FforEncode(encoded.data(), packed.data(), ffor);
  const alp::Combination c{14, 12};
  const double f10_f = alp::AlpTraits<double>::kF10[c.f];
  const double if10_e = alp::AlpTraits<double>::kIF10[c.e];
  const auto* kernels = alp::kernels::TierKernels(alp::kernels::Tier::kScalar);
  std::vector<double> out(kBlockSize);
  for (auto _ : state) {
    kernels->alp_fused64(packed.data(), ffor.base, ffor.width, f10_f, if10_e,
                         out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kBlockSize);
}
BENCHMARK(BM_AlpFusedDecode)->Arg(3)->Arg(13)->Arg(23)->Arg(43);

void BM_AlpEncodeVector(benchmark::State& state) {
  std::mt19937_64 rng(1);
  std::vector<double> in(kBlockSize);
  for (auto& v : in) {
    v = static_cast<double>(static_cast<int64_t>(rng() % 1000000)) / 100.0;
  }
  const alp::Combination c{14, 12};
  alp::EncodedVector<double> enc;
  for (auto _ : state) {
    alp::EncodeVector(in.data(), kBlockSize, c, &enc);
    benchmark::DoNotOptimize(enc.encoded);
  }
  state.SetItemsProcessed(state.iterations() * kBlockSize);
}
BENCHMARK(BM_AlpEncodeVector);

}  // namespace

// Expanded BENCHMARK_MAIN so --trace=<path> can be handled here: google
// benchmark rejects flags it does not know, so the trace flag is consumed
// (and the session started) before Initialize sees argv.
int main(int argc, char** argv) {
  auto trace = alp::bench::TraceSession::FromArgs(argc, argv);
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--trace=", 8) != 0) argv[kept++] = argv[i];
  }
  argc = kept;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
