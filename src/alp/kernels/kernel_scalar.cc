// The scalar dispatch tier: portable C++ compiled with the build's base
// target flags (the compiler may auto-vectorize it for the baseline ISA,
// e.g. SSE2 on x86-64). Always available. Unlike the .inc-based tiers this
// one fuses the unpack emit with the arithmetic directly: under SSE2,
// fused vs unpack-then-convert is 0.87-1.05 vs 1.22-1.38 cycles/value at
// widths 8-40 (best of 4000 interleaved pairs).
// Its alp_fused64 is Figure 4's "Auto-vectorized" flavour: the fused
// kernel of alp::scalar::DecodeAlpFused (alp/decode_kernels.h) with the
// exact convert of kernel_lanes.inc, built with vectorization on.

#include <array>
#include <bit>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "alp/kernels/kernel_tiers.h"
#include "fastlanes/bitpack.h"

namespace alp::kernels {
namespace {

#include "alp/kernels/kernel_lanes.inc"

// One fused unpack-and-decode loop per width. 64-bit frames fuse only
// the exact convert, so widths 0-51; a frame outside its range (hostile,
// at the range edges, or 52-64 bits wide) unpacks first and takes
// ConvertMul64's native loop. That keeps one fused copy per width.
template <typename T, typename U, unsigned W>
void AlpFusedImpl(const U* packed, U base, double f10_f, double if10_e, T* out) {
  fastlanes::detail::UnpackBlockImpl<U, W>(packed, [&](unsigned i, U v) {
    if constexpr (sizeof(U) == 8) {
      out[i] = DecodeLane64<true>(v, base, f10_f, if10_e);
    } else {
      out[i] = DecodeLane32(v, base, f10_f, if10_e);
    }
  });
}

template <typename T, typename U, unsigned... W>
constexpr auto MakeAlpTable(std::integer_sequence<unsigned, W...>) {
  using Fn = void (*)(const U*, U, double, double, T*);
  return std::array<Fn, sizeof...(W)>{&AlpFusedImpl<T, U, W>...};
}

constexpr auto kAlpExact64 =
    MakeAlpTable<double, uint64_t>(std::make_integer_sequence<unsigned, 52>{});
constexpr auto kAlp32 =
    MakeAlpTable<float, uint32_t>(std::make_integer_sequence<unsigned, 33>{});

void AlpFused64(const uint64_t* packed, uint64_t base, unsigned width,
                double f10_f, double if10_e, double* out) {
  if (ExactFrame(base, width)) {
    kAlpExact64[width](packed, base, f10_f, if10_e, out);
    return;
  }
  alignas(64) uint64_t vals[kVectorSize];
  kUnpack64[width](packed, vals);
  ConvertMul64(vals, base, width, f10_f, if10_e, out);
}

void AlpFused32(const uint32_t* packed, uint32_t base, unsigned width,
                double f10_f, double if10_e, float* out) {
  kAlp32[width](packed, base, f10_f, if10_e, out);
}

void Patch64(double* out, const uint64_t* bits, const uint16_t* pos,
             unsigned count) {
  for (unsigned i = 0; i < count; ++i) out[pos[i]] = std::bit_cast<double>(bits[i]);
}

void Patch32(float* out, const uint32_t* bits, const uint16_t* pos,
             unsigned count) {
  for (unsigned i = 0; i < count; ++i) out[pos[i]] = std::bit_cast<float>(bits[i]);
}

// ALP_rd: unpack right parts and codes into scratch, then a branch-free
// glue loop over the pre-shifted dictionary.
template <typename T, typename U>
void RdFusedImpl(const U* packed_right, const U* packed_codes,
                 unsigned right_bits, unsigned dict_width,
                 const U* dict_shifted, T* out,
                 const std::array<void (*)(const U* __restrict, U* __restrict),
                                  sizeof(U) * 8 + 1>& unpack) {
  alignas(64) U right[kVectorSize];
  alignas(64) U codes[kVectorSize];
  unpack[right_bits](packed_right, right);
  unpack[dict_width](packed_codes, codes);
  for (unsigned i = 0; i < kVectorSize; ++i) {
    out[i] = std::bit_cast<T>(static_cast<U>(dict_shifted[codes[i]] | right[i]));
  }
}

void RdFused64(const uint64_t* packed_right, const uint64_t* packed_codes,
               unsigned right_bits, unsigned dict_width,
               const uint64_t* dict_shifted, double* out) {
  RdFusedImpl(packed_right, packed_codes, right_bits, dict_width, dict_shifted,
              out, kUnpack64);
}

void RdFused32(const uint32_t* packed_right, const uint32_t* packed_codes,
               unsigned right_bits, unsigned dict_width,
               const uint32_t* dict_shifted, float* out) {
  RdFusedImpl(packed_right, packed_codes, right_bits, dict_width, dict_shifted,
              out, kUnpack32);
}

// Compressed-domain range filter: unpack into the caller's lane scratch,
// then a branchless unsigned range test per 64-lane bitmap word. This loop
// is the portable reference the SIMD tiers' CmpMask64 hooks are tested
// against (bitmaps, unlike doubles, must match bit-for-bit trivially).
void CmpRange64(const uint64_t* packed, unsigned width, uint64_t t_lo,
                uint64_t t_hi, uint64_t* lanes, uint64_t* bitmap) {
  kUnpack64[width](packed, lanes);
  for (unsigned w = 0; w < kVectorSize / 64; ++w) {
    uint64_t bits = 0;
    for (unsigned b = 0; b < 64; ++b) {
      const uint64_t v = lanes[w * 64 + b];
      bits |= static_cast<uint64_t>(v >= t_lo && v <= t_hi) << b;
    }
    bitmap[w] = bits;
  }
}

// ALP_enc + verify in the encoder's reference formula: FastRound, then the
// native int->double convert and the two ordered multiplies (Formulas 1
// and 2). The arithmetic runs at double precision for float columns too
// (Section 4.4). The SIMD tiers' AlpEncode (kernel_body.inc) is tested
// bit-exact against this loop.
template <typename T, typename Int>
unsigned AlpEncode(const T* in, unsigned n, double f10_e, double if10_f,
                   double f10_f, double if10_e, Int* encoded,
                   std::make_unsigned_t<Int>* exc) {
  using Uint = std::make_unsigned_t<Int>;
  Uint count = 0;
  for (unsigned i = 0; i < n; ++i) {
    const Int d =
        static_cast<Int>(FastRound(static_cast<double>(in[i]) * f10_e * if10_f));
    const T decoded = static_cast<T>(static_cast<double>(d) * f10_f * if10_e);
    const Uint miss = std::bit_cast<Uint>(decoded) != std::bit_cast<Uint>(in[i]);
    encoded[i] = d;
    exc[i] = miss;
    count += miss;
  }
  return static_cast<unsigned>(count);
}

constexpr DecodeKernels kKernels = {
    Tier::kScalar, AlpFused64, AlpFused32, Patch64,  Patch32,
    RdFused64,     RdFused32,  CmpRange64, Gather64,
    AlpEncode<double, int64_t>,   AlpEncode<float, int32_t>,
    FrameFold<int64_t>,           FrameFold<int32_t>,
};

}  // namespace

const DecodeKernels* GetScalarKernels() { return &kKernels; }

}  // namespace alp::kernels
