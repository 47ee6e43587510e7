#ifndef ALP_ALP_DECODE_KERNELS_H_
#define ALP_ALP_DECODE_KERNELS_H_

#include <cstdint>

#include "alp/constants.h"
#include "fastlanes/ffor.h"

/// \file decode_kernels.h
/// The one Figure 4 flavour of the fused ALP+FFOR decode kernel that is not
/// a dispatch tier. The figure compares the same kernel built several ways:
///
///   - *Scalar*: this file's kernel, the paper's native formula
///     (double)(int64)(v + base) * 10^f * 10^-e, compiled in its own library
///     with -fno-tree-vectorize -fno-tree-slp-vectorize. It is also the
///     reference the tier tests compare decoded bits against.
///   - *Auto-vectorized*: the scalar dispatch tier's `alp_fused64`
///     (alp/kernel_dispatch.h): the same fused loop with the exact
///     int64->double convert of alp/kernels/kernel_lanes.inc, compiled at
///     -O3 for the build's baseline target.
///   - One column per dispatch tier the host can run (avx2, avx512, neon).
///     Their ALP decode is plain C++ under each tier's flags; intrinsics
///     remain only where the compiler's loop measured slower (see
///     alp/kernels/).

namespace alp::scalar {

/// Fused unpack + FOR + ALP_dec, guaranteed unvectorized (see CMake flags).
void DecodeAlpFused(const uint64_t* packed, const fastlanes::FforParams& ffor,
                    Combination c, double* out);

}  // namespace alp::scalar

#endif  // ALP_ALP_DECODE_KERNELS_H_
