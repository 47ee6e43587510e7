#ifndef ALP_ALP_DECODE_KERNELS_H_
#define ALP_ALP_DECODE_KERNELS_H_

#include <cstdint>

#include "alp/constants.h"
#include "fastlanes/ffor.h"

/// \file decode_kernels.h
/// The one Figure 4 flavour of the fused ALP+FFOR decode kernel that is not
/// a dispatch tier. The figure compares the same kernel built several ways:
///
///   - *Scalar*: this file's kernel, compiled in its own library with
///     -fno-tree-vectorize -fno-tree-slp-vectorize.
///   - *Auto-vectorized*: the scalar dispatch tier's `alp_fused64`
///     (alp/kernel_dispatch.h), the same plain C++ compiled at -O3 for the
///     build's baseline target.
///   - One column per dispatch tier the host can run (avx2, avx512, neon).
///     The avx512 ALP decode is plain C++ under AVX-512 flags; intrinsics
///     remain only where the compiler's loop measured slower (see
///     alp/kernels/).

namespace alp::scalar {

/// Fused unpack + FOR + ALP_dec, guaranteed unvectorized (see CMake flags).
void DecodeAlpFused(const uint64_t* packed, const fastlanes::FforParams& ffor,
                    Combination c, double* out);

}  // namespace alp::scalar

#endif  // ALP_ALP_DECODE_KERNELS_H_
