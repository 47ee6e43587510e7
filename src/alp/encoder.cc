#include "alp/encoder.h"

#include <type_traits>

#include "alp/kernel_dispatch.h"
#include "obs/trace.h"
#include "util/bits.h"

namespace alp {
namespace {

/// ALP_dec for one value (Formula 2). The two multiplications must stay
/// separate (in this order) to reproduce the exact rounding the encoder
/// verified against.
template <typename T>
inline T AlpDec(typename AlpTraits<T>::Int d, double f10_f, double if10_e) {
  return static_cast<T>(static_cast<double>(d) * f10_f * if10_e);
}

/// The integer that exception slots are patched with: the first valid
/// lane's (0 when all \p n lanes are exceptions). It lies inside the
/// frame of the valid lanes, so patched slots never widen it.
template <typename Int>
Int FirstValid(const Int* encoded, const std::make_unsigned_t<Int>* exc, unsigned n,
               unsigned exc_count) {
  if (exc_count >= n) return 0;
  unsigned i = 0;
  while (exc[i] != 0) ++i;
  return encoded[i];
}

}  // namespace

template <typename T>
void EncodeVector(const T* in, unsigned n, Combination c, EncodedVector<T>* out) {
  using Int = typename AlpTraits<T>::Int;
  using Uint = typename AlpTraits<T>::Uint;

  out->combination = c;
  alignas(64) Uint exc[kVectorSize];
  const unsigned exc_count = kernels::EncodeLanes(in, n, c, out->encoded, exc);

  // Compact the exception positions 8 flags at a time, skipping all-zero
  // groups (most of them); within a group, an unconditional store and a
  // count += flag.
  for (unsigned i = n; i % 8 != 0; ++i) exc[i] = 0;
  unsigned k = 0;
  for (unsigned i = 0; i < n; i += 8) {
    Uint any = 0;
    for (unsigned j = 0; j < 8; ++j) any |= exc[i + j];
    if (any == 0) continue;
    for (unsigned j = 0; j < 8; ++j) {
      out->exc_positions[k] = static_cast<uint16_t>(i + j);
      k += static_cast<unsigned>(exc[i + j]);
    }
  }
  out->exc_count = static_cast<uint16_t>(exc_count);

  // Fetch the exceptions and patch their slots; pad a partial tail so it
  // packs as a full block. Then every slot holds a valid value and the
  // frame over all 1024 equals the frame over the valid lanes.
  const Int fill = FirstValid(out->encoded, exc, n, exc_count);
  for (unsigned i = 0; i < exc_count; ++i) {
    const uint16_t pos = out->exc_positions[i];
    out->exceptions[i] = in[pos];
    out->encoded[pos] = fill;
  }
  for (unsigned i = n; i < kVectorSize; ++i) out->encoded[i] = fill;
  out->ffor = kernels::ForFrame(out->encoded, kVectorSize, fill);

  ALP_OBS_ONLY({
    // Table 2's exceptions/vector as a live distribution.
    static obs::Histogram& exceptions =
        obs::MetricRegistry::Global().GetHistogram(
            "encode.exceptions_per_vector",
            {0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}, "exceptions");
    exceptions.Record(exc_count);
  });
}

template <typename T>
void DecodeVector(const typename AlpTraits<T>::Int* encoded, Combination c, T* out) {
  const double f10_f = AlpTraits<double>::kF10[c.f];
  const double if10_e = AlpTraits<double>::kIF10[c.e];
  for (unsigned i = 0; i < kVectorSize; ++i) {
    out[i] = AlpDec<T>(encoded[i], f10_f, if10_e);
  }
}

void DecodeVectorUnfused(const uint64_t* packed, const fastlanes::FforParams& ffor,
                         Combination c, int64_t* scratch, double* out) {
  uint64_t tmp[kVectorSize];
  fastlanes::FforDecodeUnfused(packed, scratch, tmp, ffor);
  DecodeVector<double>(scratch, c, out);
}

template <typename T>
void PatchExceptions(T* out, const T* exceptions, const uint16_t* positions,
                     unsigned count) {
  // Route through the dispatched patch kernel (scatter stores on AVX-512).
  // The kernel consumes the storage-format bit patterns, so view the raw
  // values through BitsOf first.
  using Uint = typename AlpTraits<T>::Uint;
  alignas(64) Uint bits[kVectorSize];
  for (unsigned i = 0; i < count; ++i) bits[i] = BitsOf(exceptions[i]);
  kernels::PatchExceptionBits<T>(out, bits, positions, count);
}

template <typename T>
uint64_t EstimateCompressedBits(const T* in, unsigned n, Combination c,
                                unsigned* exc_count_out, uint64_t abort_above) {
  using Traits = AlpTraits<T>;
  using Int = typename Traits::Int;

  alignas(64) Int encoded[kVectorSize];
  alignas(64) typename Traits::Uint exc[kVectorSize];
  const unsigned exc_count = kernels::EncodeLanes(in, n, c, encoded, exc);
  if (exc_count_out != nullptr) *exc_count_out = exc_count;
  // Exceptions alone disqualify a combination once they cost more than the
  // best candidate seen so far.
  if (exc_count > abort_above / Traits::kExceptionBits) return UINT64_MAX;

  // The encoder's frame: exception slots patched with the first valid lane.
  const Int fill = FirstValid(encoded, exc, n, exc_count);
  for (unsigned i = 0; i < n; ++i) encoded[i] = exc[i] != 0 ? fill : encoded[i];
  const unsigned width = kernels::ForFrame(encoded, n, fill).width;
  return static_cast<uint64_t>(n) * width +
         static_cast<uint64_t>(exc_count) * Traits::kExceptionBits;
}

// Explicit instantiations for the two supported value types.
template void EncodeVector<double>(const double*, unsigned, Combination,
                                   EncodedVector<double>*);
template void EncodeVector<float>(const float*, unsigned, Combination,
                                  EncodedVector<float>*);
template void DecodeVector<double>(const int64_t*, Combination, double*);
template void DecodeVector<float>(const int32_t*, Combination, float*);
template void PatchExceptions<double>(double*, const double*, const uint16_t*, unsigned);
template void PatchExceptions<float>(float*, const float*, const uint16_t*, unsigned);
template uint64_t EstimateCompressedBits<double>(const double*, unsigned, Combination,
                                                 unsigned*, uint64_t);
template uint64_t EstimateCompressedBits<float>(const float*, unsigned, Combination,
                                                unsigned*, uint64_t);

}  // namespace alp
