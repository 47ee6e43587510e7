#ifndef ALP_CODECS_CODEC_H_
#define ALP_CODECS_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "util/status.h"

/// \file codec.h
/// The common interface for every lossless floating-point compressor the
/// paper evaluates (Section 4): ALP itself plus Gorilla, Chimp, Chimp128,
/// Patas, Elf, PseudoDecimals and Zstd. Benchmarks and tests iterate over
/// the registry so each scheme is exercised identically. Each codec has one
/// decoder, TryDecompress, and it is bounds-checked: there is no trusted
/// twin that assumes the bytes came from this codec's Compress.

namespace alp::codecs {

/// A block-oriented lossless compressor for IEEE-754 values of type T.
template <typename T>
class Codec {
 public:
  virtual ~Codec() = default;

  /// Scheme name as used in the paper's tables ("Gorilla", "Chimp128", ...).
  virtual std::string_view name() const = 0;

  /// Compresses \p n values into a self-contained byte buffer.
  virtual std::vector<uint8_t> Compress(const T* in, size_t n) = 0;

  /// Decompresses exactly \p n values (the count the caller compressed).
  /// The only decoder: every buffer is untrusted. Either decodes \p n values
  /// into \p out and returns OK, or returns a non-OK Status. Never reads past
  /// in + size, never writes past out + n, and never crashes — even on
  /// truncated or bit-flipped input.
  virtual Status TryDecompress(const uint8_t* in, size_t size, size_t n, T* out) = 0;
};

using DoubleCodec = Codec<double>;
using FloatCodec = Codec<float>;

/// Factory functions, one per scheme.
std::unique_ptr<DoubleCodec> MakeGorilla();
std::unique_ptr<DoubleCodec> MakeChimp();
std::unique_ptr<DoubleCodec> MakeChimp128();
std::unique_ptr<DoubleCodec> MakePatas();
std::unique_ptr<DoubleCodec> MakeElf();
std::unique_ptr<DoubleCodec> MakePde();
std::unique_ptr<DoubleCodec> MakeFpc();  ///< Extra baseline (Section 5).
std::unique_ptr<DoubleCodec> MakeZstd();
std::unique_ptr<DoubleCodec> MakeLz();
std::unique_ptr<DoubleCodec> MakeAlpCodec();
std::unique_ptr<DoubleCodec> MakeAlpRdCodec();  ///< ALP with forced ALP_rd.

/// 32-bit float ports (Table 7): the XOR family, Zstd and ALP/ALP_rd.
std::unique_ptr<FloatCodec> MakeGorilla32();
std::unique_ptr<FloatCodec> MakeChimp32();
std::unique_ptr<FloatCodec> MakeChimp128_32();
std::unique_ptr<FloatCodec> MakePatas32();
std::unique_ptr<FloatCodec> MakeZstd32();
std::unique_ptr<FloatCodec> MakeAlpCodec32();
std::unique_ptr<FloatCodec> MakeAlpRdCodec32();

/// All double codecs in the order of the paper's Table 4 (Gorilla, Chimp,
/// Chimp128, Patas, PDE, Elf, ALP, Zstd).
std::vector<std::unique_ptr<DoubleCodec>> AllDoubleCodecs();

/// All float codecs in the order of the paper's Table 7.
std::vector<std::unique_ptr<FloatCodec>> AllFloatCodecs();

/// Whether the real Zstd library is bound (vs. the internal LZ fallback).
bool ZstdIsReal();

}  // namespace alp::codecs

#endif  // ALP_CODECS_CODEC_H_
