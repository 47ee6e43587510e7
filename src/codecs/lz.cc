#include "codecs/lz.h"

#include <cstring>

#include "codecs/codec.h"
#include "util/bits.h"

namespace alp::codecs {
namespace lz {
namespace {

constexpr unsigned kHashBits = 16;
constexpr unsigned kMinMatch = 4;
constexpr size_t kMaxOffset = 65535;

inline uint32_t Hash4(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - kHashBits);
}

/// Emits a length using the LZ4 scheme: base nibble already written; each
/// extension byte adds 0..255, terminated by a byte < 255.
void EmitExtendedLength(size_t len, std::vector<uint8_t>* out) {
  while (len >= 255) {
    out->push_back(255);
    len -= 255;
  }
  out->push_back(static_cast<uint8_t>(len));
}

}  // namespace

std::vector<uint8_t> CompressBytes(const uint8_t* in, size_t n) {
  std::vector<uint8_t> out;
  out.reserve(n / 2 + 64);

  std::vector<uint32_t> table(size_t{1} << kHashBits, UINT32_MAX);
  size_t literal_start = 0;
  size_t pos = 0;

  auto emit_sequence = [&](size_t match_pos, size_t match_len) {
    const size_t literal_len = pos - literal_start;
    const uint8_t lit_nibble = literal_len >= 15 ? 15 : static_cast<uint8_t>(literal_len);
    if (match_len == 0) {
      // Final literal-only sequence.
      out.push_back(static_cast<uint8_t>(lit_nibble << 4));
      if (lit_nibble == 15) EmitExtendedLength(literal_len - 15, &out);
      out.insert(out.end(), in + literal_start, in + pos);
      return;
    }
    const size_t ml = match_len - kMinMatch;
    const uint8_t match_nibble = ml >= 15 ? 15 : static_cast<uint8_t>(ml);
    out.push_back(static_cast<uint8_t>((lit_nibble << 4) | match_nibble));
    if (lit_nibble == 15) EmitExtendedLength(literal_len - 15, &out);
    out.insert(out.end(), in + literal_start, in + pos);
    const uint16_t offset = static_cast<uint16_t>(pos - match_pos);
    out.push_back(static_cast<uint8_t>(offset & 0xFF));
    out.push_back(static_cast<uint8_t>(offset >> 8));
    if (match_nibble == 15) EmitExtendedLength(ml - 15, &out);
  };

  while (pos + kMinMatch <= n) {
    const uint32_t h = Hash4(in + pos);
    const uint32_t candidate = table[h];
    table[h] = static_cast<uint32_t>(pos);
    if (candidate != UINT32_MAX && pos - candidate <= kMaxOffset &&
        std::memcmp(in + candidate, in + pos, kMinMatch) == 0) {
      // Extend the match forward.
      size_t len = kMinMatch;
      while (pos + len < n && in[candidate + len] == in[pos + len]) ++len;
      emit_sequence(candidate, len);
      pos += len;
      literal_start = pos;
    } else {
      ++pos;
    }
  }
  pos = n;
  emit_sequence(0, 0);
  return out;
}

bool TryDecompressBytes(const uint8_t* in, size_t size, uint8_t* out, size_t out_size) {
  size_t ip = 0;
  size_t op = 0;
  while (ip < size && op < out_size) {
    const uint8_t token = in[ip++];
    size_t literal_len = token >> 4;
    if (literal_len == 15) {
      uint8_t b;
      do {
        if (ip >= size) return false;
        b = in[ip++];
        literal_len += b;
      } while (b == 255);
    }
    if (literal_len > size - ip || literal_len > out_size - op) return false;
    std::memcpy(out + op, in + ip, literal_len);
    ip += literal_len;
    op += literal_len;
    if (ip >= size) break;  // Final literal-only sequence.

    if (size - ip < 2) return false;
    const uint16_t offset =
        static_cast<uint16_t>(in[ip] | (static_cast<uint16_t>(in[ip + 1]) << 8));
    ip += 2;
    // A match can only reference bytes already produced.
    if (offset == 0 || offset > op) return false;
    size_t match_len = (token & 0xF) + kMinMatch;
    if ((token & 0xF) == 15) {
      uint8_t b;
      do {
        if (ip >= size) return false;
        b = in[ip++];
        match_len += b;
      } while (b == 255);
    }
    if (match_len > out_size - op) return false;
    // Byte-wise copy: offsets may be smaller than the match length
    // (overlapping copy semantics, like LZ4).
    const uint8_t* src = out + op - offset;
    for (size_t i = 0; i < match_len; ++i) out[op + i] = src[i];
    op += match_len;
  }
  return op == out_size;
}

}  // namespace lz

namespace {

class LzCodec final : public Codec<double> {
 public:
  std::string_view name() const override { return "LZ"; }

  std::vector<uint8_t> Compress(const double* in, size_t n) override {
    return lz::CompressBytes(reinterpret_cast<const uint8_t*>(in), n * sizeof(double));
  }

  Status TryDecompress(const uint8_t* in, size_t size, size_t n, double* out) override {
    if (!lz::TryDecompressBytes(in, size, reinterpret_cast<uint8_t*>(out),
                                n * sizeof(double))) {
      return Status::Corrupt("malformed LZ stream");
    }
    return Status::Ok();
  }
};

}  // namespace

std::unique_ptr<DoubleCodec> MakeLz() { return std::make_unique<LzCodec>(); }

}  // namespace alp::codecs
