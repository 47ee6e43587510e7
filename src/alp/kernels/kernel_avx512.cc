// AVX-512 dispatch tier, compiled with -mavx512f -mavx512dq (see
// src/CMakeLists.txt). DQ supplies vcvtqq2pd, the native int64->double
// conversion the AVX2 tier has to emulate; F supplies the 8-lane permute
// that keeps the whole ALP_rd dictionary in one register and the scatter
// used for exception patching.

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

template <bool Aligned>
inline void StorePd(double* p, __m512d v) {
  if constexpr (Aligned) {
    _mm512_store_pd(p, v);
  } else {
    _mm512_storeu_pd(p, v);
  }
}

template <bool Aligned>
void ConvertMul64Impl(const uint64_t* vals, uint64_t base, double f10_f,
                      double if10_e, double* out) {
  const __m512i b = _mm512_set1_epi64(static_cast<long long>(base));
  const __m512d ff = _mm512_set1_pd(f10_f);
  const __m512d ife = _mm512_set1_pd(if10_e);
  for (unsigned i = 0; i < kVectorSize; i += 8) {
    const __m512i v = _mm512_add_epi64(_mm512_load_si512(vals + i), b);
    const __m512d d = _mm512_cvtepi64_pd(v);
    StorePd<Aligned>(out + i, _mm512_mul_pd(_mm512_mul_pd(d, ff), ife));
  }
}

void ConvertMul64(const uint64_t* vals, uint64_t base, double f10_f,
                  double if10_e, double* out) {
  if ((reinterpret_cast<uintptr_t>(out) & 63) == 0) {
    ConvertMul64Impl<true>(vals, base, f10_f, if10_e, out);
  } else {
    ConvertMul64Impl<false>(vals, base, f10_f, if10_e, out);
  }
}

template <bool Aligned>
void ConvertMul32Impl(const uint32_t* vals, uint32_t base, double f10_f,
                      double if10_e, float* out) {
  const __m512i b = _mm512_set1_epi32(static_cast<int>(base));
  const __m512d ff = _mm512_set1_pd(f10_f);
  const __m512d ife = _mm512_set1_pd(if10_e);
  for (unsigned i = 0; i < kVectorSize; i += 16) {
    const __m512i v = _mm512_add_epi32(_mm512_load_si512(vals + i), b);
    const __m512d lo = _mm512_cvtepi32_pd(_mm512_castsi512_si256(v));
    const __m512d hi = _mm512_cvtepi32_pd(_mm512_extracti32x8_epi32(v, 1));
    const __m256 flo =
        _mm512_cvtpd_ps(_mm512_mul_pd(_mm512_mul_pd(lo, ff), ife));
    const __m256 fhi =
        _mm512_cvtpd_ps(_mm512_mul_pd(_mm512_mul_pd(hi, ff), ife));
    const __m512 packed = _mm512_insertf32x8(_mm512_castps256_ps512(flo), fhi, 1);
    if constexpr (Aligned) {
      _mm512_store_ps(out + i, packed);
    } else {
      _mm512_storeu_ps(out + i, packed);
    }
  }
}

void ConvertMul32(const uint32_t* vals, uint32_t base, double f10_f,
                  double if10_e, float* out) {
  if ((reinterpret_cast<uintptr_t>(out) & 63) == 0) {
    ConvertMul32Impl<true>(vals, base, f10_f, if10_e, out);
  } else {
    ConvertMul32Impl<false>(vals, base, f10_f, if10_e, out);
  }
}

// ALP_rd glue: the whole 8-entry pre-shifted dictionary lives in one zmm
// register; vpermq/vpermd turn the unpacked codes directly into left parts.
void GlueJoin64(const uint64_t* codes, const uint64_t* right,
                const uint64_t* dict_shifted, double* out) {
  const __m512i dict = _mm512_loadu_si512(dict_shifted);
  for (unsigned i = 0; i < kVectorSize; i += 8) {
    const __m512i c = _mm512_load_si512(codes + i);
    const __m512i left = _mm512_permutexvar_epi64(c, dict);
    const __m512i r = _mm512_loadu_si512(right + i);
    _mm512_storeu_si512(out + i, _mm512_or_si512(left, r));
  }
}

void GlueJoin32(const uint32_t* codes, const uint32_t* right,
                const uint32_t* dict_shifted, float* out) {
  // Codes are < 8, so only the low 256-bit half matters; broadcast it so
  // any lane of the permute index is in range.
  const __m512i dict = _mm512_broadcast_i32x8(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dict_shifted)));
  for (unsigned i = 0; i < kVectorSize; i += 16) {
    const __m512i c = _mm512_load_si512(codes + i);
    const __m512i left = _mm512_permutexvar_epi32(c, dict);
    const __m512i r = _mm512_loadu_si512(right + i);
    _mm512_storeu_si512(out + i, _mm512_or_si512(left, r));
  }
}

// Exception patching via scatter. Scatter writes are ordered by element
// index with later elements winning on duplicate positions — the same
// semantics as the scalar patch loop.
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
    const __m512i p32 = _mm512_cvtepu16_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pos + i)));
    const __m512 v = _mm512_castsi512_ps(_mm512_loadu_si512(bits + i));
    _mm512_i32scatter_ps(out, p32, v, 4);
  }
  for (; i < count; ++i) out[pos[i]] = std::bit_cast<float>(bits[i]);
}

// Native unsigned 64-bit mask compares; each 8-lane pair of compares
// yields one __mmask8, eight of which assemble a 64-lane bitmap word.
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
