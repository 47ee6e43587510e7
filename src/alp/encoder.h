#ifndef ALP_ALP_ENCODER_H_
#define ALP_ALP_ENCODER_H_

#include <cstdint>

#include "alp/constants.h"
#include "fastlanes/ffor.h"

/// \file encoder.h
/// The ALP decimal encoder/decoder for one vector of 1024 values
/// (Algorithms 1 and 2 of the paper). Given a per-vector (exponent e,
/// factor f) combination chosen by the sampler, the encoder:
///
///   1. computes d = fast_round(n * 10^e * 10^-f) for every value and
///      verifies it by decoding it back and comparing bitwise, writing a
///      0/1 exception flag per lane,
///   2. compacts the flagged lanes into *exceptions* (raw value + 16-bit
///      position) and patches their encoded slots with the first
///      successfully-encoded integer so the FFOR bit width is unaffected,
///   3. takes the FOR frame as a plain min/max over the patched slots and
///      hands the int vector to FFOR (fused FOR + bit-packing).
///
/// Steps 1 and 3 are the dispatched encode kernels (kernels::EncodeLanes,
/// kernels::ForFrame in alp/kernel_dispatch.h): branch-free lane loops
/// with no data-dependent stores, compiled per ISA tier. The sampler's
/// EstimateCompressedBits runs the same two kernels. Step 2 is scalar and
/// branches per exception, which is cheap because exceptions are rare: it
/// reads the flags 8 at a time and skips all-zero groups.

namespace alp {

/// Result of ALP-encoding one vector, before bit-packing.
template <typename T>
struct EncodedVector {
  using Int = typename AlpTraits<T>::Int;

  Int encoded[kVectorSize];            ///< d values (exception slots patched).
  T exceptions[kVectorSize];           ///< Raw values that failed to encode.
  uint16_t exc_positions[kVectorSize]; ///< Positions of the exceptions.
  uint16_t exc_count = 0;
  Combination combination;             ///< The (e, f) used.

  /// FOR frame over the final encoded array (exception slots patched to
  /// the first valid value, so they never widen the frame). Computed
  /// during encoding so the bit-packing stage needs no extra analysis
  /// pass.
  fastlanes::FforParams ffor;
};

/// Encodes \p n values (n <= 1024) of \p in with combination \p c.
/// Positions >= n are filled with the first encoded value so a partial tail
/// vector can still be packed as a full block.
template <typename T>
void EncodeVector(const T* in, unsigned n, Combination c, EncodedVector<T>* out);

/// Decodes 1024 encoded integers back to values: n = d * 10^f * 10^-e.
/// Exceptions must be patched afterwards (PatchExceptions).
template <typename T>
void DecodeVector(const typename AlpTraits<T>::Int* encoded, Combination c, T* out);

/// Unfused decode used as the Figure 5 baseline: FFOR-decode into
/// \p scratch, then multiply in a second pass.
void DecodeVectorUnfused(const uint64_t* packed, const fastlanes::FforParams& ffor,
                         Combination c, int64_t* scratch, double* out);

/// Overwrites the exception positions of \p out with the raw values.
template <typename T>
void PatchExceptions(T* out, const T* exceptions, const uint16_t* positions,
                     unsigned count);

/// Estimated compressed size, in bits, of encoding \p n sampled values with
/// combination \p c: bit-packed width for the successfully encoded integers
/// plus the fixed per-exception cost. This is the metric both sampler
/// levels minimize (Section 3.2). When the exception cost alone already
/// exceeds \p abort_above, the combination is hopeless and UINT64_MAX is
/// returned instead of a size - this prunes most of the 190-combination
/// level-1 space. \p exc_count_out receives the full exception count of
/// the \p n values, also when the estimate is abandoned.
template <typename T>
uint64_t EstimateCompressedBits(const T* in, unsigned n, Combination c,
                                unsigned* exc_count_out = nullptr,
                                uint64_t abort_above = UINT64_MAX);

}  // namespace alp

#endif  // ALP_ALP_ENCODER_H_
