// PseudoDecimals (Kuschewski et al., BtrBlocks, SIGMOD 2023). PDE encodes
// each double as an integer significand d plus a per-value decimal exponent
// e such that v == d / 10^e, found by per-value brute-force search (the
// reason the paper measures PDE as by far the slowest compressor). The
// significands are zig-zag mapped and bit-packed per 1024-value block, the
// 5-bit exponents are bit-packed alongside, and non-encodable values are
// stored raw as patch-style exceptions. Decompression is a tight
// divide-and-done loop, which is why PDE decodes fast despite compressing
// slowly — the asymmetry Table 5 shows.

#include <algorithm>
#include <cmath>

#include "alp/constants.h"
#include "codecs/codec.h"
#include "fastlanes/bitpack.h"
#include "fastlanes/delta.h"
#include "util/bits.h"
#include "util/serialize.h"

namespace alp::codecs {
namespace {

constexpr unsigned kMaxExponent = 18;
constexpr unsigned kExponentBits = 5;
constexpr unsigned kBlock = fastlanes::kBlockSize;

/// Per-value brute-force search over the whole exponent space, keeping the
/// working exponent with the smallest significand magnitude (the best
/// compression). This per-value exhaustive search is exactly why the paper
/// measures PDE as by far the slowest compressor (251x slower than ALP).
bool FindExponent(double v, int64_t* d_out, unsigned* e_out) {
  bool found = false;
  uint64_t best_mag = UINT64_MAX;
  for (unsigned e = 0; e <= kMaxExponent; ++e) {
    const double scaled = v * alp::AlpTraits<double>::kF10[e];
    if (!(scaled >= -9.2e18 && scaled <= 9.2e18)) continue;  // llround UB guard.
    const int64_t d = std::llround(scaled);
    if (BitsOf(static_cast<double>(d) / alp::AlpTraits<double>::kF10[e]) == BitsOf(v)) {
      const uint64_t mag = static_cast<uint64_t>(d < 0 ? -d : d);
      if (mag < best_mag) {
        best_mag = mag;
        *d_out = d;
        *e_out = e;
        found = true;
      }
    }
  }
  return found;
}

struct BlockHeader {
  uint8_t sig_width;
  uint8_t exp_width;
  uint16_t exc_count;
  uint16_t n;
  uint16_t pad;
  uint64_t sig_base;  ///< FOR base of the zig-zagged significands.
};
static_assert(sizeof(BlockHeader) == 16);

class PdeCodec final : public Codec<double> {
 public:
  std::string_view name() const override { return "PDE"; }

  std::vector<uint8_t> Compress(const double* in, size_t n) override {
    ByteBuffer out;
    out.Append(static_cast<uint64_t>(n));
    const size_t blocks = (n + kBlock - 1) / kBlock;

    for (size_t b = 0; b < blocks; ++b) {
      const size_t off = b * kBlock;
      const unsigned len = static_cast<unsigned>(std::min<size_t>(kBlock, n - off));

      uint64_t sig_zz[kBlock];
      uint64_t exps[kBlock];
      uint64_t exc_bits[kBlock];
      uint16_t exc_pos[kBlock];
      unsigned exc_count = 0;
      uint64_t max_exp = 0;
      bool any = false;
      uint64_t first_sig = 0;

      for (unsigned i = 0; i < len; ++i) {
        int64_t d = 0;
        unsigned e = 0;
        if (FindExponent(in[off + i], &d, &e)) {
          sig_zz[i] = fastlanes::ZigZagEncode(d);
          exps[i] = e;
          max_exp = std::max(max_exp, exps[i]);
          if (!any) {
            first_sig = sig_zz[i];
            any = true;
          }
        } else {
          sig_zz[i] = first_sig;  // Patched from the exception array.
          exps[i] = 0;
          exc_bits[exc_count] = BitsOf(in[off + i]);
          exc_pos[exc_count] = static_cast<uint16_t>(i);
          ++exc_count;
        }
      }
      // Exceptions found before the first success used 0; rewrite them so
      // they do not widen the FOR frame.
      for (unsigned i = 0; i < exc_count && exc_pos[i] < len; ++i) {
        sig_zz[exc_pos[i]] = first_sig;
      }
      for (unsigned i = len; i < kBlock; ++i) {
        sig_zz[i] = first_sig;
        exps[i] = 0;
      }

      // FOR over the zig-zagged significands (BtrBlocks cascades its
      // integer compression over the significand column).
      uint64_t min_sig = sig_zz[0];
      uint64_t max_sig = sig_zz[0];
      for (unsigned i = 1; i < kBlock; ++i) {
        min_sig = std::min(min_sig, sig_zz[i]);
        max_sig = std::max(max_sig, sig_zz[i]);
      }
      for (unsigned i = 0; i < kBlock; ++i) sig_zz[i] -= min_sig;

      BlockHeader header{};
      header.sig_width = static_cast<uint8_t>(BitWidth(max_sig - min_sig));
      header.exp_width = static_cast<uint8_t>(BitWidth(max_exp));
      header.exc_count = static_cast<uint16_t>(exc_count);
      header.n = static_cast<uint16_t>(len);
      header.sig_base = min_sig;
      out.Append(header);

      uint64_t packed[kBlock];
      fastlanes::Pack(sig_zz, packed, header.sig_width);
      out.AppendArray(packed, static_cast<size_t>(header.sig_width) * 16);
      fastlanes::Pack(exps, packed, header.exp_width);
      out.AppendArray(packed, static_cast<size_t>(header.exp_width) * 16);
      out.AppendArray(exc_bits, exc_count);
      out.AppendArray(exc_pos, exc_count);
      out.AlignTo(8);
    }
    return out.Take();
  }

  Status TryDecompress(const uint8_t* in, size_t size, size_t n, double* out) override {
    ByteReader reader(in, size);
    const uint64_t count = reader.Read<uint64_t>();
    if (reader.failed()) return Status::Truncated("PDE stream header", 0);
    if (count != n) {
      return Status::Corrupt("PDE value count does not match the request", 0);
    }
    const size_t blocks = (n + kBlock - 1) / kBlock;

    for (size_t b = 0; b < blocks; ++b) {
      const size_t off = b * kBlock;
      const unsigned len = static_cast<unsigned>(std::min<size_t>(kBlock, n - off));
      const size_t header_at = reader.position();
      const auto header = reader.Read<BlockHeader>();
      if (reader.failed()) return Status::Truncated("PDE block header", header_at);
      if (header.sig_width > 64 || header.exp_width > kExponentBits) {
        return Status::Corrupt("PDE packed width out of range", header_at);
      }
      if (header.n != len || header.exc_count > len) {
        return Status::Corrupt("PDE block counts out of range", header_at);
      }
      const size_t packed_bytes =
          (size_t{header.sig_width} + header.exp_width) * 16 * sizeof(uint64_t);
      const size_t exc_bytes =
          size_t{header.exc_count} * (sizeof(uint64_t) + sizeof(uint16_t));
      if (!reader.CanRead(packed_bytes + exc_bytes)) {
        return Status::Truncated("PDE block payload", header_at);
      }

      uint64_t sig_zz[kBlock];
      uint64_t exps[kBlock];
      fastlanes::Unpack(reinterpret_cast<const uint64_t*>(reader.Here()), sig_zz,
                        header.sig_width);
      reader.Skip(static_cast<size_t>(header.sig_width) * 16 * sizeof(uint64_t));
      fastlanes::Unpack(reinterpret_cast<const uint64_t*>(reader.Here()), exps,
                        header.exp_width);
      reader.Skip(static_cast<size_t>(header.exp_width) * 16 * sizeof(uint64_t));

      // The hot decode loop: one division per value.
      double block[kBlock];
      const uint64_t sig_base = header.sig_base;
      for (unsigned i = 0; i < kBlock; ++i) {
        // exp_width <= 5 admits exponents up to 31; the table stops at 18.
        if (exps[i] > kMaxExponent) {
          return Status::Corrupt("PDE exponent out of range", header_at);
        }
        const int64_t d = fastlanes::ZigZagDecode(sig_zz[i] + sig_base);
        block[i] = static_cast<double>(d) / alp::AlpTraits<double>::kF10[exps[i]];
      }

      uint64_t exc_bits[kBlock];
      uint16_t exc_pos[kBlock];
      reader.ReadArray(exc_bits, header.exc_count);
      reader.ReadArray(exc_pos, header.exc_count);
      for (unsigned i = 0; i < header.exc_count; ++i) {
        if (exc_pos[i] >= len) {
          return Status::Corrupt("PDE exception position out of range", header_at);
        }
        block[exc_pos[i]] = DoubleFromBits(exc_bits[i]);
      }
      std::memcpy(out + off, block, len * sizeof(double));
      reader.AlignTo(8);
    }
    return Status::Ok();
  }
};

}  // namespace

std::unique_ptr<DoubleCodec> MakePde() { return std::make_unique<PdeCodec>(); }

}  // namespace alp::codecs
