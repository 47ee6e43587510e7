// Zstd baseline (paper Section 4: Facebook zstd at the default level 3,
// compressing one ~1 MB rowgroup per block). System headers for zstd are
// not installed in this environment, so the four stable ABI entry points
// are declared here directly and the shared object is linked by path (see
// the top-level CMakeLists). When the library is absent the internal LZ
// codec stands in and ZstdIsReal() reports false.

#include <algorithm>
#include <cstring>

#include "alp/constants.h"
#include "codecs/codec.h"
#include "codecs/lz.h"
#include "util/serialize.h"

#ifdef ALP_HAVE_ZSTD
extern "C" {
size_t ZSTD_compressBound(size_t srcSize);
size_t ZSTD_compress(void* dst, size_t dstCapacity, const void* src, size_t srcSize,
                     int compressionLevel);
size_t ZSTD_decompress(void* dst, size_t dstCapacity, const void* src,
                       size_t compressedSize);
unsigned ZSTD_isError(size_t code);
}
#endif

namespace alp::codecs {
namespace {

constexpr int kLevel = 3;
/// One rowgroup of doubles (100 * 1024 * 8 bytes ~ 800 KB), the paper's
/// Zstd block granularity.
constexpr size_t kBlockBytes = alp::kRowgroupSize * sizeof(double);

template <typename T>
class ZstdCodec final : public Codec<T> {
 public:
  std::string_view name() const override { return "Zstd"; }

  std::vector<uint8_t> Compress(const T* in, size_t n) override {
    const uint8_t* bytes = reinterpret_cast<const uint8_t*>(in);
    const size_t total = n * sizeof(T);
    ByteBuffer out;
    const size_t blocks = (total + kBlockBytes - 1) / kBlockBytes;
    out.Append(static_cast<uint64_t>(blocks));
    for (size_t b = 0; b < blocks; ++b) {
      const size_t off = b * kBlockBytes;
      const size_t len = std::min(kBlockBytes, total - off);
      std::vector<uint8_t> compressed = CompressBlock(bytes + off, len);
      out.Append(static_cast<uint64_t>(compressed.size()));
      out.Append(static_cast<uint64_t>(len));
      out.AppendArray(compressed.data(), compressed.size());
    }
    return out.Take();
  }

  Status TryDecompress(const uint8_t* in, size_t size, size_t n, T* out) override {
    uint8_t* dst = reinterpret_cast<uint8_t*>(out);
    const size_t total = n * sizeof(T);
    ByteReader reader(in, size);
    const uint64_t blocks = reader.Read<uint64_t>();
    if (reader.failed()) return Status::Truncated("Zstd stream header", 0);
    const size_t expected_blocks = (total + kBlockBytes - 1) / kBlockBytes;
    if (blocks != expected_blocks) {
      // Also rejects forged counts near 2^64 before the loop spins on them.
      return Status::Corrupt("Zstd block count does not match the request", 0);
    }
    size_t off = 0;
    for (uint64_t b = 0; b < blocks; ++b) {
      const size_t block_at = reader.position();
      const uint64_t compressed_size = reader.Read<uint64_t>();
      const uint64_t raw_size = reader.Read<uint64_t>();
      if (reader.failed()) return Status::Truncated("Zstd block header", block_at);
      if (raw_size != std::min(kBlockBytes, total - off)) {
        return Status::Corrupt("Zstd block raw size out of range", block_at);
      }
      if (compressed_size > reader.Remaining()) {
        return Status::Truncated("Zstd block payload", block_at);
      }
      if (!TryDecompressBlock(reader.Here(), compressed_size, dst + off, raw_size)) {
        return Status::Corrupt("malformed Zstd block", block_at);
      }
      reader.Skip(compressed_size);
      off += raw_size;
    }
    if (off != total) return Status::Truncated("Zstd stream ends early", size);
    return Status::Ok();
  }

 private:
  static std::vector<uint8_t> CompressBlock(const uint8_t* src, size_t len) {
#ifdef ALP_HAVE_ZSTD
    std::vector<uint8_t> buf(ZSTD_compressBound(len));
    const size_t written = ZSTD_compress(buf.data(), buf.size(), src, len, kLevel);
    if (ZSTD_isError(written) == 0) {
      buf.resize(written);
      return buf;
    }
#endif
    return lz::CompressBytes(src, len);
  }

  /// Block decode: real zstd first (its decoder is hardened and bounded by
  /// dstCapacity), then the checked LZ fallback — which also covers buffers
  /// produced on a build without libzstd.
  static bool TryDecompressBlock(const uint8_t* src, size_t len, uint8_t* dst,
                                 size_t raw_size) {
#ifdef ALP_HAVE_ZSTD
    const size_t got = ZSTD_decompress(dst, raw_size, src, len);
    if (ZSTD_isError(got) == 0 && got == raw_size) return true;
#endif
    return lz::TryDecompressBytes(src, len, dst, raw_size);
  }
};

}  // namespace

bool ZstdIsReal() {
#ifdef ALP_HAVE_ZSTD
  return true;
#else
  return false;
#endif
}

std::unique_ptr<DoubleCodec> MakeZstd() { return std::make_unique<ZstdCodec<double>>(); }

std::unique_ptr<FloatCodec> MakeZstd32() { return std::make_unique<ZstdCodec<float>>(); }

}  // namespace alp::codecs
