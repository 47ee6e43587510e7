// Lossless compression of ML model weights with 32-bit ALP_rd (paper
// Section 4.4 / Table 7). Trained float32 weights have full-entropy
// mantissas - no decimal origin to exploit - but their sign/exponent/top
// mantissa bits are highly regular, which is exactly what ALP_rd's
// front-bit dictionary captures. Compare against the XOR-family float
// ports and Zstd.

#include <cstdio>
#include <vector>

#include "codecs/codec.h"
#include "data/ml_weights.h"
#include "util/bits.h"

int main() {
  constexpr size_t kParams = 2'000'000;  // 2M of GPT2's 124M parameters.
  const auto& model = alp::data::AllModels()[1];  // GPT2.
  const std::vector<float> weights = alp::data::GenerateWeights(model, kParams);

  std::printf("model: %s (%s), compressing %zu float32 weights\n\n",
              std::string(model.name).c_str(), std::string(model.model_type).c_str(),
              weights.size());
  std::printf("%-14s %14s %14s\n", "scheme", "bits/value", "lossless");

  for (const auto& codec : alp::codecs::AllFloatCodecs()) {
    const auto compressed = codec->Compress(weights.data(), weights.size());
    std::vector<float> restored(weights.size());
    const alp::Status decoded = codec->TryDecompress(
        compressed.data(), compressed.size(), weights.size(), restored.data());
    size_t mismatches = decoded.ok() ? 0 : weights.size();
    for (size_t i = 0; decoded.ok() && i < weights.size(); ++i) {
      mismatches += alp::BitsOf(restored[i]) != alp::BitsOf(weights[i]);
    }
    std::printf("%-14s %14.2f %14s\n", std::string(codec->name()).c_str(),
                compressed.size() * 8.0 / weights.size(),
                mismatches == 0 ? "yes" : "NO");
  }

  std::printf("\nTable 7's shape: only ALP_rd32 (and Zstd) get below 32 bits;\n");
  std::printf("the XOR family cannot compress trained weights.\n");
  return 0;
}
