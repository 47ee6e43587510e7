// AArch64 NEON (ASIMD) dispatch tier. ASIMD is architecturally baseline on
// AArch64, so the body's plain C++ (the ALP decode included) compiles to
// it as is; the glue and patch hooks are plain loops too, and only the
// range-compare bitmap uses intrinsics. On non-AArch64 builds the TU
// degenerates to a nullptr getter.

#include "alp/kernels/kernel_tiers.h"

#if defined(__aarch64__)

#include <arm_neon.h>

#include <array>
#include <bit>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "fastlanes/bitpack.h"

namespace alp::kernels {
namespace {

constexpr Tier kSelfTier = Tier::kNeon;

void GlueJoin64(const uint64_t* codes, const uint64_t* right,
                const uint64_t* dict_shifted, double* out) {
  for (unsigned i = 0; i < kVectorSize; ++i) {
    out[i] = std::bit_cast<double>(dict_shifted[codes[i]] | right[i]);
  }
}

void GlueJoin32(const uint32_t* codes, const uint32_t* right,
                const uint32_t* dict_shifted, float* out) {
  for (unsigned i = 0; i < kVectorSize; ++i) {
    out[i] = std::bit_cast<float>(dict_shifted[codes[i]] | right[i]);
  }
}

void Patch64(double* out, const uint64_t* bits, const uint16_t* pos,
             unsigned count) {
  for (unsigned i = 0; i < count; ++i) out[pos[i]] = std::bit_cast<double>(bits[i]);
}

void Patch32(float* out, const uint32_t* bits, const uint16_t* pos,
             unsigned count) {
  for (unsigned i = 0; i < count; ++i) out[pos[i]] = std::bit_cast<float>(bits[i]);
}

// Unsigned 64-bit range test: vcgeq/vcleq_u64 produce all-ones lane masks;
// the low bit of each mask lane lands in the bitmap word.
void CmpMask64(const uint64_t* vals, uint64_t t_lo, uint64_t t_hi,
               uint64_t* bitmap) {
  const uint64x2_t lo = vdupq_n_u64(t_lo);
  const uint64x2_t hi = vdupq_n_u64(t_hi);
  for (unsigned w = 0; w < kVectorSize / 64; ++w) {
    uint64_t bits = 0;
    for (unsigned j = 0; j < 64; j += 2) {
      const uint64x2_t v = vld1q_u64(vals + w * 64 + j);
      const uint64x2_t in =
          vandq_u64(vcgeq_u64(v, lo), vcleq_u64(v, hi));
      bits |= (vgetq_lane_u64(in, 0) & 1u) << j;
      bits |= (vgetq_lane_u64(in, 1) & 1u) << (j + 1);
    }
    bitmap[w] = bits;
  }
}

#include "alp/kernels/kernel_body.inc"

}  // namespace

const DecodeKernels* GetNeonKernels() { return &kKernels; }

}  // namespace alp::kernels

#else  // !defined(__aarch64__)

namespace alp::kernels {

const DecodeKernels* GetNeonKernels() { return nullptr; }

}  // namespace alp::kernels

#endif
