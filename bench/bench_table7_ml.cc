// Regenerates Table 7: lossless compression of 32-bit machine-learning
// model weights. ALP_rd32 competes against the float ports of the XOR
// family and Zstd; the paper's claim is that ALP_rd is the only
// floating-point encoding to achieve compression (< 32 bits/value) on
// trained weights, beating even Zstd. Also covers Section 4.4's other
// claim: 32-bit ALP on low-precision decimal data halves the ratio.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "codecs/codec.h"
#include "data/datasets.h"
#include "data/ml_weights.h"
#include "util/bits.h"

int main(int argc, char** argv) {
  auto trace = alp::bench::TraceSession::FromArgs(argc, argv);
  auto json = alp::bench::JsonReport::FromArgs(argc, argv, "bench_table7_ml");
  const size_t cap = alp::bench::ValuesPerDataset(1024 * 1024);

  std::printf("Table 7: ML model weights (float32), bits per value\n\n");
  std::printf("%-14s %-20s %12s", "Model", "Type", "#params");
  const auto codecs = alp::codecs::AllFloatCodecs();
  for (const auto& codec : codecs) {
    std::printf(" %11s", std::string(codec->name()).c_str());
  }
  std::printf("\n");
  alp::bench::Rule('-', 48 + 12 * static_cast<int>(codecs.size()));

  std::vector<double> avg(codecs.size(), 0.0);
  for (const auto& model : alp::data::AllModels()) {
    const size_t count = std::min<size_t>(model.paper_param_count, cap);
    const auto weights = alp::data::GenerateWeights(model, count);
    std::printf("%-14s %-20s %12zu", std::string(model.name).c_str(),
                std::string(model.model_type).c_str(), count);
    for (size_t c = 0; c < codecs.size(); ++c) {
      const auto compressed = codecs[c]->Compress(weights.data(), weights.size());
      // Verify losslessness while we are here.
      std::vector<float> restored(weights.size());
      const alp::Status s = codecs[c]->TryDecompress(
          compressed.data(), compressed.size(), weights.size(), restored.data());
      if (!s.ok()) {
        std::printf("\nDECODE FAILED for %s: %s\n",
                    std::string(codecs[c]->name()).c_str(), s.ToString().c_str());
        return 1;
      }
      for (size_t i = 0; i < weights.size(); ++i) {
        if (alp::BitsOf(restored[i]) != alp::BitsOf(weights[i])) {
          std::printf("\nLOSSY RESULT from %s at %zu!\n",
                      std::string(codecs[c]->name()).c_str(), i);
          return 1;
        }
      }
      const double bits = compressed.size() * 8.0 / weights.size();
      avg[c] += bits / 4.0;
      std::printf(" %11.1f", bits);
      json.Add(std::string(model.name), std::string(codecs[c]->name()),
               "bits_per_value", bits, "bits");
      json.Add(std::string(model.name), std::string(codecs[c]->name()),
               "compression_ratio", 32.0 / bits, "x");
    }
    std::printf("\n");
  }
  alp::bench::Rule('-', 48 + 12 * static_cast<int>(codecs.size()));
  std::printf("%-48s", "AVG.");
  for (double a : avg) std::printf(" %11.1f", a);
  std::printf("\n");

  std::printf("\nPaper Table 7 AVG.: Gorilla 34.1 | Chimp 33.4 | Chimp128 33.4 | "
              "Patas 45.6 | ALP_rd 28.1 | Zstd 29.7\n");

  // --- Section 4.4, first claim: float ALP on decimal data. ---
  std::printf("\nSection 4.4: 32-bit ALP on low-precision decimal surrogates\n");
  std::printf("%-14s %16s %16s\n", "Dataset", "ALP64 bits/val", "ALP32 bits/val");
  for (const char* name : {"City-Temp", "Stocks-USA", "SD-bench"}) {
    const auto* spec = alp::data::FindDataset(name);
    const auto doubles = alp::data::Generate(*spec, 128 * 1024);
    std::vector<float> floats(doubles.size());
    for (size_t i = 0; i < doubles.size(); ++i) {
      floats[i] = static_cast<float>(doubles[i]);
    }
    const auto d64 = alp::CompressColumn(doubles.data(), doubles.size());
    const auto d32 = alp::CompressColumn(floats.data(), floats.size());
    const double bits64 = d64.size() * 8.0 / doubles.size();
    const double bits32 = d32.size() * 8.0 / floats.size();
    std::printf("%-14s %16.1f %16.1f\n", name, bits64, bits32);
    json.Add(name, "ALP64", "bits_per_value", bits64, "bits");
    json.Add(name, "ALP32", "bits_per_value", bits32, "bits");
  }
  std::printf("(same compressed size => halved compression ratio at 32-bit width,\n"
              "as Section 4.4 reports)\n");
  return 0;
}
