// Compiled with -fno-tree-vectorize -fno-tree-slp-vectorize (see
// src/CMakeLists.txt): this is the "Scalar" series of Figure 4, the fused
// unpack+FOR+ALP_dec kernel with the paper's native int64->double convert.
// The auto-vectorized default (the scalar dispatch tier) differs in its
// flags and in its exact convert (alp/kernels/kernel_lanes.inc).

#include "alp/decode_kernels.h"

#include <array>

#include "fastlanes/bitpack.h"

namespace alp::scalar {

namespace {

template <unsigned W>
void DecodeImpl(const uint64_t* packed, uint64_t base, double f10_f, double if10_e,
                double* out) {
  fastlanes::detail::UnpackBlockImpl<uint64_t, W>(packed, [&](unsigned i, uint64_t v) {
    out[i] = static_cast<double>(static_cast<int64_t>(v + base)) * f10_f * if10_e;
  });
}

using Fn = void (*)(const uint64_t*, uint64_t, double, double, double*);

template <unsigned... W>
constexpr auto MakeTable(std::integer_sequence<unsigned, W...>) {
  return std::array<Fn, sizeof...(W)>{&DecodeImpl<W>...};
}

constexpr auto kTable = MakeTable(std::make_integer_sequence<unsigned, 65>{});

}  // namespace

void DecodeAlpFused(const uint64_t* packed, const fastlanes::FforParams& ffor,
                    Combination c, double* out) {
  kTable[ffor.width](packed, ffor.base, AlpTraits<double>::kF10[c.f],
                     AlpTraits<double>::kIF10[c.e], out);
}

}  // namespace alp::scalar
