// AVX-512 dispatch tier, compiled with -mavx512f -mavx512dq (see
// src/CMakeLists.txt). The ALP decode is the body's plain C++; DQ's
// vcvtqq2pd serves its native fallback for frames outside the exact
// convert's range. F supplies the 8-lane permute that keeps the whole
// ALP_rd dictionary in one register and the scatter used for exception
// patching.
//
// A hook below is intrinsics only where the plain lane loop, compiled with
// the same flags, measured slower. Numbers are cycles/value on one hot
// 1024-value block, GCC 12 -O3, median of 18 runs on a 4-vCPU AVX-512
// Xeon guest, plain vs intrinsics.
//
// The permute, broadcast and widening intrinsics are spelled in their
// zero-masking form with an all-ones mask: GCC 12 emits the same unmasked
// instruction, while the plain form's _mm512_undefined_* operand trips
// -Wuninitialized.

#include "alp/kernels/kernel_tiers.h"

#if defined(__AVX512F__) && defined(__AVX512DQ__)

#include <immintrin.h>

#include <array>
#include <bit>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "fastlanes/bitpack.h"

namespace alp::kernels {
namespace {

constexpr Tier kSelfTier = Tier::kAvx512;

// ALP_rd glue: the whole 8-entry pre-shifted dictionary lives in one zmm
// register; vpermq/vpermd turn the unpacked codes directly into left parts.
// The plain loop gathers from memory instead: 64-bit 1.03 vs 0.33, 32-bit
// 1.08 vs 0.17.
void GlueJoin64(const uint64_t* codes, const uint64_t* right,
                const uint64_t* dict_shifted, double* out) {
  const __m512i dict = _mm512_loadu_si512(dict_shifted);
  for (unsigned i = 0; i < kVectorSize; i += 8) {
    const __m512i c = _mm512_load_si512(codes + i);
    const __m512i left = _mm512_maskz_permutexvar_epi64(0xFF, c, dict);
    const __m512i r = _mm512_loadu_si512(right + i);
    _mm512_storeu_si512(out + i, _mm512_or_si512(left, r));
  }
}

void GlueJoin32(const uint32_t* codes, const uint32_t* right,
                const uint32_t* dict_shifted, float* out) {
  // Codes are < 8, so only the low 256-bit half matters; broadcast it so
  // any lane of the permute index is in range.
  const __m512i dict = _mm512_maskz_broadcast_i32x8(
      0xFFFF,
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dict_shifted)));
  for (unsigned i = 0; i < kVectorSize; i += 16) {
    const __m512i c = _mm512_load_si512(codes + i);
    const __m512i left = _mm512_maskz_permutexvar_epi32(0xFFFF, c, dict);
    const __m512i r = _mm512_loadu_si512(right + i);
    _mm512_storeu_si512(out + i, _mm512_or_si512(left, r));
  }
}

// Exception patching via scatter. Scatter writes are ordered by element
// index with later elements winning on duplicate positions — the same
// semantics as the scalar patch loop. Cycles per vector, plain vs
// scatter: 13.6 vs 10.0 at 4 exceptions, 36.1 vs 29.6 at 20; the plain
// loop only ties or wins from ~64 exceptions (92 vs 97).
void Patch64(double* out, const uint64_t* bits, const uint16_t* pos,
             unsigned count) {
  unsigned i = 0;
  for (; i + 8 <= count; i += 8) {
    const __m256i p32 = _mm256_cvtepu16_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(pos + i)));
    const __m512d v = _mm512_castsi512_pd(_mm512_loadu_si512(bits + i));
    _mm512_i32scatter_pd(out, p32, v, 8);
  }
  for (; i < count; ++i) out[pos[i]] = std::bit_cast<double>(bits[i]);
}

void Patch32(float* out, const uint32_t* bits, const uint16_t* pos,
             unsigned count) {
  unsigned i = 0;
  for (; i + 16 <= count; i += 16) {
    const __m512i p32 = _mm512_maskz_cvtepu16_epi32(
        0xFFFF, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pos + i)));
    const __m512 v = _mm512_castsi512_ps(_mm512_loadu_si512(bits + i));
    _mm512_i32scatter_ps(out, p32, v, 4);
  }
  for (; i < count; ++i) out[pos[i]] = std::bit_cast<float>(bits[i]);
}

// Native unsigned 64-bit mask compares; each 8-lane pair of compares
// yields one __mmask8, eight of which assemble a 64-lane bitmap word.
// GCC 12 vectorizes no plain bitmap form tried: the scalar tier's
// shift-or loop is 3.3 vs 0.22, a byte mask packed afterwards 2.5.
void CmpMask64(const uint64_t* vals, uint64_t t_lo, uint64_t t_hi,
               uint64_t* bitmap) {
  const __m512i lo = _mm512_set1_epi64(static_cast<long long>(t_lo));
  const __m512i hi = _mm512_set1_epi64(static_cast<long long>(t_hi));
  for (unsigned w = 0; w < kVectorSize / 64; ++w) {
    uint64_t bits = 0;
    for (unsigned j = 0; j < 64; j += 8) {
      const __m512i v = _mm512_load_si512(vals + w * 64 + j);
      const __mmask8 m = _mm512_cmpge_epu64_mask(v, lo) &
                         _mm512_cmple_epu64_mask(v, hi);
      bits |= static_cast<uint64_t>(m) << j;
    }
    bitmap[w] = bits;
  }
}

#include "alp/kernels/kernel_body.inc"

}  // namespace

const DecodeKernels* GetAvx512Kernels() { return &kKernels; }

}  // namespace alp::kernels

#else  // !(__AVX512F__ && __AVX512DQ__)

namespace alp::kernels {

const DecodeKernels* GetAvx512Kernels() { return nullptr; }

}  // namespace alp::kernels

#endif
