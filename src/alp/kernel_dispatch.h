#ifndef ALP_ALP_KERNEL_DISPATCH_H_
#define ALP_ALP_KERNEL_DISPATCH_H_

#include <cstdint>
#include <string_view>

#include "alp/constants.h"
#include "fastlanes/ffor.h"

/// \file kernel_dispatch.h
/// Runtime ISA dispatch for the hot loops of both directions: the decode
/// kernels (fused unFFOR -> int->double convert -> e/f multiply, exception
/// patching, ALP_rd glue, compressed-domain compare and gather) and the
/// encode kernels (ALP_enc + verify and the FOR frame fold, shared by the
/// encoder and the sampler).
///
/// The paper's speed rests on these 1024-lane loops compiling to wide
/// SIMD. Instead of baking one ISA into the binary at build time
/// (-march=native), every ISA variant is compiled into its own translation
/// unit with per-file target flags (-mavx2, -mavx512f -mavx512dq; see
/// src/alp/kernels/ and src/CMakeLists.txt) and one generic binary carries
/// all of them. The CPU is probed once on first use (cpuid on x86-64,
/// getauxval on AArch64) and the best supported tier is selected.
///
/// Tiers. Each SIMD tier compiles the shared plain-C++ body
/// (kernels/kernel_body.inc) under its flags; a primitive is intrinsics
/// only where the compiler's plain loop measured slower, and the tier
/// notes the numbers beside it. Every tier runs ALP_dec's one convert
/// (kernels/kernel_lanes.inc): an exact integer-add/FP-subtract form for
/// frames inside [-2^51, 2^51), the native int64->double otherwise.
///   - scalar: portable C++ (the compiler may still auto-vectorize it for
///     the build's baseline target). Always present.
///   - avx2:   plain C++ under -mavx2, plus intrinsics for the
///     range-compare bitmap and the ALP_rd dictionary glue.
///   - avx512: plain C++ under AVX-512F+DQ flags, plus intrinsics for the
///     range-compare bitmap, the in-register vpermq dictionary and
///     scatter patching.
///   - neon:   plain C++ on AArch64, plus intrinsics for the range-compare
///     bitmap (unmeasured; CI's AArch64 job runs the tier-parity suites on
///     it).
///
/// Every tier is bit-exact: each step of the fused pipeline (int->double
/// conversion, the two ordered multiplies, the final double->float
/// narrowing for float columns) is IEEE correctly rounded on every ISA, so
/// decode bytes never depend on the dispatched tier. tests/test_kernels.cc
/// sweeps all widths x tiers against the native-formula reference
/// (alp::scalar::DecodeAlpFused) to keep that claim checked. The same holds for encode: the build disables FMA
/// contraction (-ffp-contract=off), so n * 10^e * 10^-f + magic rounds
/// after every step on every tier, and tests/test_alp_encoder.cc checks
/// that every tier writes the scalar tier's column bytes.
///
/// Overriding: set ALP_FORCE_KERNEL=scalar|avx2|avx512|neon|auto in the
/// environment (unsupported values warn on stderr and fall back), or pass
/// --kernel= to the CLI (unsupported values are a hard error), or call
/// ForceTier() programmatically.

namespace alp::kernels {

/// Kernel implementation tiers, in ascending preference order per
/// architecture (BestTier picks the highest available one).
enum class Tier : uint8_t { kScalar = 0, kNeon = 1, kAvx2 = 2, kAvx512 = 3 };

inline constexpr unsigned kTierCount = 4;

/// Lower-case tier name: "scalar", "neon", "avx2", "avx512".
const char* TierName(Tier tier);

/// Parses a tier name (as printed by TierName). Returns false on unknown
/// names; "auto" is not a tier (see ForceTierByName).
bool ParseTier(std::string_view name, Tier* out);

/// One tier's kernel set. All kernels operate on a full 1024-value block
/// and are safe for any `out` alignment.
struct DecodeKernels {
  Tier tier;

  /// Fused unFFOR + int->double + e/f multiply (doubles / floats).
  void (*alp_fused64)(const uint64_t* packed, uint64_t base, unsigned width,
                      double f10_f, double if10_e, double* out);
  void (*alp_fused32)(const uint32_t* packed, uint32_t base, unsigned width,
                      double f10_f, double if10_e, float* out);

  /// Exception patching: out[positions[i]] = bit_cast<T>(exc_bits[i]),
  /// later entries winning on duplicate positions.
  void (*patch64)(double* out, const uint64_t* exc_bits,
                  const uint16_t* positions, unsigned count);
  void (*patch32)(float* out, const uint32_t* exc_bits,
                  const uint16_t* positions, unsigned count);

  /// ALP_rd fused unpack-left || unpack-right || OR. `dict_shifted` holds
  /// the 8 dictionary entries pre-shifted left by right_bits (see
  /// RdDictShifted in alp/rd.h).
  void (*rd_fused64)(const uint64_t* packed_right, const uint64_t* packed_codes,
                     unsigned right_bits, unsigned dict_width,
                     const uint64_t* dict_shifted, double* out);
  void (*rd_fused32)(const uint32_t* packed_right, const uint32_t* packed_codes,
                     unsigned right_bits, unsigned dict_width,
                     const uint32_t* dict_shifted, float* out);

  /// Compressed-domain range filter over FFOR-packed 64-bit lanes (double
  /// columns): unpacks `packed` (width bits/lane) into `lanes` (1024
  /// entries, 64-byte aligned scratch owned by the caller so a following
  /// gather never re-unpacks) and writes a 1024-bit selection bitmap
  /// (16 words, little-endian bit order: bit i of word i/64 is lane i),
  /// bit set iff t_lo <= lanes[i] <= t_hi as *unsigned* deltas. The caller
  /// translates the double predicate into [t_lo, t_hi] (alp/predicate.h)
  /// and fixes up exception positions / tail lanes on the bitmap itself.
  void (*cmp_range64)(const uint64_t* packed, unsigned width, uint64_t t_lo,
                      uint64_t t_hi, uint64_t* lanes, uint64_t* bitmap);

  /// Late materialization: decodes only the selected lanes,
  /// out[k] = (double)(int64)(lanes[i] + base) * f10_f * if10_e for each
  /// set bit i in ascending order, returning the survivor count. Ascending
  /// order is a hard contract: the engine's filtered aggregates must add
  /// survivors in index order to stay bit-identical to the decode-then-
  /// filter oracle.
  unsigned (*gather64)(const uint64_t* lanes, uint64_t base, double f10_f,
                       double if10_e, const uint64_t* bitmap, double* out);

  /// ALP_enc + verify over lanes [0, n), n <= 1024 (Algorithm 1):
  /// encoded[i] = FastRound(in[i] * f10_e * if10_f), and exc[i] = 1 when
  /// decoding encoded[i] (the two ordered multiplies by f10_f, if10_e, then
  /// narrowing to the column type) does not give back in[i]'s exact bits,
  /// else 0. Returns the number of exception lanes. No branches and no
  /// data-dependent stores; the caller compacts exception positions. The
  /// flags are as wide as the lanes: byte flags made the loop pack every
  /// compare result and ran ~1.9x slower under AVX-512 (GCC 12).
  unsigned (*encode64)(const double* in, unsigned n, double f10_e,
                       double if10_f, double f10_f, double if10_e,
                       int64_t* encoded, uint64_t* exc);
  unsigned (*encode32)(const float* in, unsigned n, double f10_e,
                       double if10_f, double f10_f, double if10_e,
                       int32_t* encoded, uint32_t* exc);

  /// The encoder's FOR frame: base = min and width = bit width of
  /// max - min over {seed} and v[0, n), as in fastlanes::FforAnalyze.
  /// The caller has patched exception slots with a valid value (the seed),
  /// so they never widen the frame.
  fastlanes::FforParams (*frame64)(const int64_t* v, unsigned n, int64_t seed);
  fastlanes::FforParams (*frame32)(const int32_t* v, unsigned n, int32_t seed);
};

/// Whether the running CPU can execute \p tier (hardware probe only).
bool CpuSupportsTier(Tier tier);

/// Whether this binary carries \p tier's code (per-file target flags can
/// be absent, e.g. the NEON TU on an x86 build).
bool TierCompiledIn(Tier tier);

/// CpuSupportsTier && TierCompiledIn.
bool TierAvailable(Tier tier);

/// The best tier available on this host (falls back to kScalar).
Tier BestTier();

/// \p tier's kernel set, or nullptr unless TierAvailable(tier). Lets
/// benchmarks and tests drive a specific tier without touching the global
/// selection.
const DecodeKernels* TierKernels(Tier tier);

/// The globally selected kernel set. Resolved once on first call: the
/// ALP_FORCE_KERNEL environment variable if set (unsupported or unknown
/// values warn on stderr and fall back), otherwise BestTier().
const DecodeKernels& Active();

/// Tier of Active().
Tier ActiveTier();

/// TierName(ActiveTier()).
const char* ActiveTierName();

/// Overrides the global selection. Returns false (and changes nothing)
/// unless TierAvailable(tier).
bool ForceTier(Tier tier);

/// ForceTier by name; "auto" re-probes and selects BestTier(). Returns
/// false on unknown names and unavailable tiers.
bool ForceTierByName(std::string_view name);

/// Clears any override so the next Active() re-reads ALP_FORCE_KERNEL /
/// re-probes. For tests.
void ResetForTesting();

// ---------------------------------------------------------------------------
// Typed convenience wrappers over Active() for the templated paths.
// ---------------------------------------------------------------------------

/// Active-tier ALP_enc + verify with combination \p c (see
/// DecodeKernels::encode64). The multipliers are the double-precision
/// ones for both column types (Section 4.4).
template <typename T>
inline unsigned EncodeLanes(const T* in, unsigned n, Combination c,
                            typename AlpTraits<T>::Int* encoded,
                            typename AlpTraits<T>::Uint* exc) {
  const double f10_e = AlpTraits<double>::kF10[c.e];
  const double if10_f = AlpTraits<double>::kIF10[c.f];
  const double f10_f = AlpTraits<double>::kF10[c.f];
  const double if10_e = AlpTraits<double>::kIF10[c.e];
  if constexpr (sizeof(T) == 8) {
    return Active().encode64(in, n, f10_e, if10_f, f10_f, if10_e, encoded, exc);
  } else {
    return Active().encode32(in, n, f10_e, if10_f, f10_f, if10_e, encoded, exc);
  }
}

/// Active-tier FOR frame (see DecodeKernels::frame64).
template <typename Int>
inline fastlanes::FforParams ForFrame(const Int* v, unsigned n, Int seed) {
  if constexpr (sizeof(Int) == 8) {
    return Active().frame64(v, n, seed);
  } else {
    return Active().frame32(v, n, seed);
  }
}

template <typename T>
inline void DecodeAlpFused(const typename AlpTraits<T>::Uint* packed,
                           const fastlanes::FforParams& ffor, Combination c,
                           T* out) {
  // The e/f multiplier tables are always the double-precision ones, also
  // for float columns (Section 4.4).
  const double f10_f = AlpTraits<double>::kF10[c.f];
  const double if10_e = AlpTraits<double>::kIF10[c.e];
  if constexpr (sizeof(T) == 8) {
    Active().alp_fused64(packed, ffor.base, ffor.width, f10_f, if10_e, out);
  } else {
    Active().alp_fused32(packed, static_cast<uint32_t>(ffor.base), ffor.width,
                         f10_f, if10_e, out);
  }
}

template <typename T>
inline void PatchExceptionBits(T* out, const typename AlpTraits<T>::Uint* exc_bits,
                               const uint16_t* positions, unsigned count) {
  if constexpr (sizeof(T) == 8) {
    Active().patch64(out, exc_bits, positions, count);
  } else {
    Active().patch32(out, exc_bits, positions, count);
  }
}

template <typename T>
inline void RdDecodeFused(const typename AlpTraits<T>::Uint* packed_right,
                          const typename AlpTraits<T>::Uint* packed_codes,
                          unsigned right_bits, unsigned dict_width,
                          const typename AlpTraits<T>::Uint* dict_shifted,
                          T* out) {
  if constexpr (sizeof(T) == 8) {
    Active().rd_fused64(packed_right, packed_codes, right_bits, dict_width,
                        dict_shifted, out);
  } else {
    Active().rd_fused32(packed_right, packed_codes, right_bits, dict_width,
                        dict_shifted, out);
  }
}

}  // namespace alp::kernels

#endif  // ALP_ALP_KERNEL_DISPATCH_H_
