// Quickstart: compress a column of doubles with ALP, decompress it, and
// read a single vector back by random access.
//
//   $ ./quickstart
//
// This is the 60-second tour of the public API (alp/alp.h).

#include <cstdio>
#include <random>
#include <vector>

#include "alp/alp.h"

int main() {
  // 1. Some data: one million "prices" with two decimal digits. Doubles
  //    like these almost always originate from decimals - exactly the case
  //    ALP is built for.
  constexpr size_t kCount = 1'000'000;
  std::mt19937_64 rng(42);
  std::vector<double> prices(kCount);
  for (double& p : prices) {
    p = static_cast<double>(rng() % 10'000'000) / 100.0;  // 0.00 .. 99999.99
  }

  // 2. Compress. The two-level sampler picks the (exponent, factor) pair
  //    per vector and decides ALP vs ALP_rd per rowgroup automatically.
  alp::CompressionInfo info;
  const std::vector<uint8_t> compressed =
      alp::CompressColumn(prices.data(), prices.size(), {}, &info);

  std::printf("values:            %zu\n", prices.size());
  std::printf("compressed size:   %zu bytes\n", compressed.size());
  std::printf("bits per value:    %.2f (raw: 64)\n",
              alp::BitsPerValue<double>(compressed, prices.size()));
  std::printf("rowgroups:         %zu (%zu using ALP_rd)\n", info.rowgroups,
              info.rowgroups_rd);
  std::printf("ALP exceptions:    %.2f per vector\n", info.ExceptionsPerVector());

  // 3. Decompress everything and verify losslessness (bitwise).
  std::vector<double> restored(prices.size());
  const alp::Status decoded = alp::DecompressColumn(compressed, restored.data());
  if (!decoded.ok()) {
    std::printf("decode failed: %s\n", decoded.ToString().c_str());
    return 1;
  }
  size_t mismatches = 0;
  for (size_t i = 0; i < prices.size(); ++i) {
    mismatches += alp::BitsOf(restored[i]) != alp::BitsOf(prices[i]);
  }
  std::printf("bitwise mismatches after round-trip: %zu\n", mismatches);

  // 4. Random access: decode only vector 42 (values 43008..44031). This is
  //    the capability block-based compressors like Zstd cannot offer.
  alp::ColumnReader<double> reader(compressed.data(), compressed.size());
  std::vector<double> one_vector(reader.VectorLength(42));
  reader.DecodeVector(42, one_vector.data());
  std::printf("vector 42, first value: %.2f (expected %.2f)\n", one_vector[0],
              prices[42 * alp::kVectorSize]);

  return mismatches == 0 ? 0 : 1;
}
