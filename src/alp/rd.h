#ifndef ALP_ALP_RD_H_
#define ALP_ALP_RD_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "alp/constants.h"
#include "alp/sampler.h"

/// \file rd.h
/// ALP_rd, the adaptive fallback for "real doubles" (paper Section 3.4 and
/// Algorithm 3): values whose mantissas carry true high-precision entropy
/// (e.g. GPS radians, ML weights) cannot be decimal-encoded, but their
/// *front bits* (sign, exponent, top mantissa bits) still have low variance.
///
/// Each value's bit pattern is cut at position p (p >= 48 for doubles, so
/// the left part is at most 16 bits):
///   - the right p bits are bit-packed verbatim;
///   - the left 64-p bits go through a *skewed dictionary*: a dictionary of
///     at most 2^3 = 8 entries filled with the most frequent left parts
///     found by sampling, with non-dictionary left parts stored as 16-bit
///     exceptions (value + position). The dictionary codes are bit-packed
///     at b <= 3 bits.
/// Decoding glues (left << p) | right back together.

namespace alp {

/// Rowgroup-level ALP_rd parameters: the cut position and the left-part
/// dictionary (stored once per rowgroup; 8 bits + dictionary overhead).
template <typename T>
struct RdParams {
  uint8_t right_bits = AlpTraits<T>::kValueBits;  ///< p: width of right part.
  uint8_t dict_width = 0;                         ///< b: bits per left code.
  uint8_t dict_size = 0;                          ///< Entries used in dict[].
  uint16_t dict[8] = {};                          ///< Most frequent left parts.

  uint8_t left_bits() const {
    return static_cast<uint8_t>(AlpTraits<T>::kValueBits - right_bits);
  }
};

/// One ALP_rd-encoded vector, before bit-packing.
template <typename T>
struct RdEncodedVector {
  using Uint = typename AlpTraits<T>::Uint;

  uint16_t left_codes[kVectorSize];      ///< Dictionary codes (0 for exceptions).
  Uint right_parts[kVectorSize];         ///< Low p bits of each value.
  uint16_t exceptions[kVectorSize];      ///< Left parts missing from the dict.
  uint16_t exc_positions[kVectorSize];
  uint16_t exc_count = 0;
};

/// Maximum left-part width the cut search considers (p >= 48 for doubles).
inline constexpr unsigned kRdMaxLeftBits = 16;
/// Maximum dictionary size (2^3) and code width.
inline constexpr unsigned kRdMaxDictSize = 8;
inline constexpr unsigned kRdMaxDictWidth = 3;
/// Paper: pick the smallest dictionary whose sampled exception rate does
/// not exceed 10%.
inline constexpr double kRdMaxExceptionRate = 0.10;

/// Chooses the cut position and dictionary for a rowgroup by sampling
/// (first-level sampling re-used, Section 3.4 "Encoding").
template <typename T>
RdParams<T> RdAnalyzeRowgroup(const T* data, size_t n,
                              const SamplerConfig& config = {});

/// The left-part-to-code table of \p params: 2^left_bits one-byte entries
/// (1 <= left_bits <= kRdMaxLeftBits, so at most 64 KiB). Entry x holds the
/// lowest dictionary index whose entry equals x, so duplicate entries keep
/// first-match-wins; a left part missing from the dictionary reads
/// dict_size. Built once per rowgroup, it turns each value's code into one
/// lookup instead of a probe of up to 8 entries.
template <typename T>
std::vector<uint8_t> RdCodeTable(const RdParams<T>& params);

/// Cuts and dictionary-encodes one vector of \p n values (n <= 1024), coding
/// each left part through \p code_table (RdCodeTable of \p params).
/// Positions >= n are padded with the first value's parts.
template <typename T>
void RdEncodeVector(const T* in, unsigned n, const RdParams<T>& params,
                    const uint8_t* code_table, RdEncodedVector<T>* out);

/// The same, building the code table for this one call.
template <typename T>
void RdEncodeVector(const T* in, unsigned n, const RdParams<T>& params,
                    RdEncodedVector<T>* out);

/// Rebuilds 1024 values from \p enc's codes and right parts with a plain
/// glue loop, then patches its exceptions: the encoder's round-trip
/// reference (column decode runs the dispatched RdDecodeFused instead).
template <typename T>
void RdDecodeVector(const RdEncodedVector<T>& enc, const RdParams<T>& params, T* out);

/// Fills \p out (kRdMaxDictSize entries) with the dictionary entries
/// pre-shifted left by right_bits — the form the dispatched glue kernels
/// (alp/kernel_dispatch.h) consume. Out-of-range right_bits (possible only
/// on unvalidated input) yields zeros instead of an undefined shift.
template <typename T>
void RdDictShifted(const RdParams<T>& params, typename AlpTraits<T>::Uint* out);

/// Overwrites the left part of each exception position of a glued \p out
/// vector: out[pos] = (exception << right_bits) | right_part(out[pos]).
template <typename T>
void RdPatchExceptions(T* out, const uint16_t* exceptions, const uint16_t* positions,
                       unsigned count, unsigned right_bits);

/// Estimated bits/value for the chosen params on a sample; exposed for the
/// rowgroup scheme decision and for tests.
template <typename T>
double RdEstimateBitsPerValue(const T* sample, unsigned n, const RdParams<T>& params);

}  // namespace alp

#endif  // ALP_ALP_RD_H_
