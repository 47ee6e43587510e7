#ifndef ALP_CODECS_LZ_H_
#define ALP_CODECS_LZ_H_

#include <cstddef>
#include <cstdint>
#include <vector>

/// \file lz.h
/// A small LZ77 byte compressor (LZ4-block-style format: greedy hash-chain
/// matching, nibble-packed tokens, 16-bit match offsets). It serves as the
/// general-purpose baseline fallback when the system libzstd is absent, and
/// is exported here so it can be tested directly.

namespace alp::codecs::lz {

/// Compresses \p n bytes; the output is self-contained for TryDecompressBytes.
std::vector<uint8_t> CompressBytes(const uint8_t* in, size_t n);

/// Decompresses into \p out, which must hold exactly \p out_size bytes (the
/// size originally compressed). The input is untrusted: every token, length
/// and match offset is validated against the input and output extents.
/// Returns false (leaving \p out unspecified) on a malformed or truncated
/// stream; true only if exactly \p out_size bytes were produced.
bool TryDecompressBytes(const uint8_t* in, size_t size, uint8_t* out, size_t out_size);

}  // namespace alp::codecs::lz

#endif  // ALP_CODECS_LZ_H_
