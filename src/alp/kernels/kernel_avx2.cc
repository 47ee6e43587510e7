// AVX2 dispatch tier. Compiled with -mavx2 (see src/CMakeLists.txt); on
// builds without the flag the TU degenerates to a nullptr getter and the
// dispatcher never offers the tier.
//
// A hook below is intrinsics only where the plain lane loop, compiled with
// the same flags, measured slower. Numbers are cycles/value on one hot
// 1024-value block, GCC 12 -O3, median of 18 runs on a 4-vCPU AVX-512
// Xeon guest, plain vs intrinsics.
//
// The ALP decode is the body's plain C++: AVX2 has no int64->double
// instruction, and the exact convert of kernel_lanes.inc needs none.

#include "alp/kernels/kernel_tiers.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <array>
#include <bit>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "fastlanes/bitpack.h"

namespace alp::kernels {
namespace {

constexpr Tier kSelfTier = Tier::kAvx2;

// ALP_rd glue: the left part comes from an 8-entry pre-shifted dictionary,
// fetched in-register with a gather (64-bit) / lane permute (32-bit). The
// plain loop does scalar loads and inserts: 32-bit 1.00 vs 0.24; 64-bit
// 1.11 vs 1.07 alone and 1.62 vs 1.54 in rd_glue64.
void GlueJoin64(const uint64_t* codes, const uint64_t* right,
                const uint64_t* dict_shifted, double* out) {
  for (unsigned i = 0; i < kVectorSize; i += 4) {
    const __m256i c =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(codes + i));
    const __m256i left = _mm256_i64gather_epi64(
        reinterpret_cast<const long long*>(dict_shifted), c, 8);
    const __m256i r =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(right + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_or_si256(left, r));
  }
}

void GlueJoin32(const uint32_t* codes, const uint32_t* right,
                const uint32_t* dict_shifted, float* out) {
  const __m256i dict =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dict_shifted));
  for (unsigned i = 0; i < kVectorSize; i += 8) {
    const __m256i c =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(codes + i));
    const __m256i left = _mm256_permutevar8x32_epi32(dict, c);
    const __m256i r =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(right + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_or_si256(left, r));
  }
}

// Exception patching stays scalar on AVX2 (no scatter instruction);
// exceptions average ~2% of a vector so this is off the critical path.
void Patch64(double* out, const uint64_t* bits, const uint16_t* pos,
             unsigned count) {
  for (unsigned i = 0; i < count; ++i) out[pos[i]] = std::bit_cast<double>(bits[i]);
}

void Patch32(float* out, const uint32_t* bits, const uint16_t* pos,
             unsigned count) {
  for (unsigned i = 0; i < count; ++i) out[pos[i]] = std::bit_cast<float>(bits[i]);
}

// Unsigned 64-bit range test. AVX2 only has a *signed* 64-bit compare, so
// both the lanes and the thresholds get their sign bit flipped first
// (x ^ 2^63 is an order-preserving map from unsigned to signed order).
// movemask_pd harvests 4 comparison sign bits per 256-bit vector; 16
// iterations fill one 64-lane bitmap word. GCC 12 does not vectorize the
// scalar tier's shift-or bitmap loop: 3.39 vs 0.65.
void CmpMask64(const uint64_t* vals, uint64_t t_lo, uint64_t t_hi,
               uint64_t* bitmap) {
  const __m256i flip = _mm256_set1_epi64x(static_cast<long long>(1ull << 63));
  const __m256i lo =
      _mm256_set1_epi64x(static_cast<long long>(t_lo ^ (1ull << 63)));
  const __m256i hi =
      _mm256_set1_epi64x(static_cast<long long>(t_hi ^ (1ull << 63)));
  for (unsigned w = 0; w < kVectorSize / 64; ++w) {
    uint64_t bits = 0;
    for (unsigned j = 0; j < 64; j += 4) {
      const __m256i v = _mm256_xor_si256(
          _mm256_load_si256(
              reinterpret_cast<const __m256i*>(vals + w * 64 + j)),
          flip);
      const __m256i outside = _mm256_or_si256(_mm256_cmpgt_epi64(lo, v),
                                              _mm256_cmpgt_epi64(v, hi));
      const unsigned m =
          static_cast<unsigned>(_mm256_movemask_pd(_mm256_castsi256_pd(outside)));
      bits |= static_cast<uint64_t>(~m & 0xF) << j;
    }
    bitmap[w] = bits;
  }
}

#include "alp/kernels/kernel_body.inc"

}  // namespace

const DecodeKernels* GetAvx2Kernels() { return &kKernels; }

}  // namespace alp::kernels

#else  // !defined(__AVX2__)

namespace alp::kernels {

const DecodeKernels* GetAvx2Kernels() { return nullptr; }

}  // namespace alp::kernels

#endif
