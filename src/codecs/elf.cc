// Elf-style erasing XOR compression (Li et al., VLDB 2023). Elf observes
// that a double displaying alpha decimal digits can be recovered from a
// *truncated* double by re-rounding it to alpha digits; so it zeroes the
// recoverable trailing mantissa bits before XOR-chaining, making the XORs
// far more compressible, and stores alpha per value. Erasure is verified at
// encode time (the decoder's exact recovery expression is evaluated and
// compared bitwise), so the scheme is lossless by construction; values with
// no recoverable precision take a one-bit escape and are XORed verbatim.
// The XOR backend is the Chimp128-class previous-128-window coder, matching
// Elf's positioning in the paper: best compression ratio of the XOR family,
// at by far the lowest [de]compression speed.

#include <algorithm>

#include "alp/constants.h"
#include "codecs/codec.h"
#include "codecs/ring_index.h"
#include "util/bit_stream.h"
#include "util/bits.h"

namespace alp::codecs {
namespace {

constexpr unsigned kMaxAlpha = 17;  // Decimal digits a double can display.
constexpr unsigned kAlphaBits = 5;

constexpr uint8_t kLeadingRound[65] = {
    0,  0,  0,  0,  0,  0,  0,  0,  8,  8,  8,  8,  12, 12, 12, 12, 16,
    16, 18, 18, 20, 20, 22, 22, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24,
    24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24,
    24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24};
constexpr uint8_t kLeadingCode[25] = {0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2,
                                      2, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7};
constexpr uint8_t kLeadingValue[8] = {0, 8, 12, 16, 18, 20, 22, 24};

/// The decoder's recovery expression: round \p truncated to \p alpha
/// decimal places. Must be bit-for-bit identical between encoder
/// verification and decoder.
inline double Recover(double truncated, unsigned alpha) {
  const double f10 = AlpTraits<double>::kF10[alpha];
  const double if10 = AlpTraits<double>::kIF10[alpha];
  const int64_t d = FastRound(truncated * f10);
  return static_cast<double>(d) * if10;
}

/// Smallest alpha whose re-rounding reproduces \p v exactly, or -1.
int FindAlpha(double v) {
  for (unsigned alpha = 0; alpha <= kMaxAlpha; ++alpha) {
    if (BitsOf(Recover(v, alpha)) == BitsOf(v)) return static_cast<int>(alpha);
  }
  return -1;
}

/// Largest number of trailing mantissa bits that can be zeroed while the
/// recovery at \p alpha still reproduces \p v. Erasability is monotone in
/// practice, but the binary search result is verified, so a non-monotone
/// corner case only costs compression, never correctness.
unsigned FindErasableBits(double v, unsigned alpha) {
  const uint64_t bits = BitsOf(v);
  unsigned lo = 0;
  unsigned hi = 52;
  while (lo < hi) {
    const unsigned mid = (lo + hi + 1) / 2;
    const uint64_t mask = ~((uint64_t{1} << mid) - 1);
    if (BitsOf(Recover(DoubleFromBits(bits & mask), alpha)) == BitsOf(v)) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  const uint64_t mask = ~((uint64_t{1} << lo) - 1);
  if (BitsOf(Recover(DoubleFromBits(bits & mask), alpha)) != BitsOf(v)) return 0;
  return lo;
}

class ElfCodec final : public Codec<double> {
 public:
  static constexpr unsigned kTrailingThreshold = 6;
  static constexpr unsigned kResetLead = 65;

  std::string_view name() const override { return "Elf"; }

  std::vector<uint8_t> Compress(const double* in, size_t n) override {
    BitWriter writer;
    if (n == 0) return writer.Finish();

    RingIndex<uint64_t, /*kMixHash=*/true> ring;
    uint64_t prev = 0;
    unsigned stored_lead = kResetLead;
    bool first = true;
    int prev_alpha = -1;

    for (size_t i = 0; i < n; ++i) {
      const double v = in[i];
      // --- Erasure front end. Per-value prefix (as in Elf, alpha is only
      // materialized when it changes; runs of equal precision cost 1 bit):
      //   '0'  erased, same alpha as the previous erased value;
      //   '10' erased, new alpha (5 bits follow);
      //   '11' not erased (XORed verbatim). ---
      const int alpha = FindAlpha(v);
      uint64_t truncated = BitsOf(v);
      bool erased = false;
      if (alpha >= 0) {
        const unsigned erasable = FindErasableBits(v, static_cast<unsigned>(alpha));
        if (erasable > 2) {
          truncated &= ~((uint64_t{1} << erasable) - 1);
          erased = true;
        }
      }
      if (erased && alpha == prev_alpha) {
        writer.WriteBit(false);
      } else if (erased) {
        writer.WriteBits(0b10, 2);
        writer.WriteBits(static_cast<uint64_t>(alpha), kAlphaBits);
        prev_alpha = alpha;
      } else {
        writer.WriteBits(0b11, 2);
      }

      // --- Chimp128-class XOR backend over the truncated stream. ---
      if (first) {
        writer.WriteBits(truncated, 64);
        ring.Push(truncated);
        prev = truncated;
        first = false;
        continue;
      }
      // Candidate references: the hash-indexed window entry and the
      // immediately previous value. The encoder picks whichever yields the
      // fewest bits (the stream format is unchanged; the decoder just
      // follows the explicit index).
      const unsigned ref_idx = ring.FindReference(truncated);
      const unsigned prev_idx = static_cast<unsigned>((i - 1) % 128);
      const uint64_t x_ref = truncated ^ ring.At(ref_idx);
      const uint64_t x_prev = truncated ^ prev;

      const auto center_cost = [](uint64_t x) -> unsigned {
        if (x == 0) return 9;  // "00" + 7-bit index.
        if (static_cast<unsigned>(TrailingZeros(x)) <= kTrailingThreshold) {
          return 0xFFFF;  // Not eligible for "01".
        }
        return 18 + (64 - kLeadingRound[LeadingZeros(x)] - TrailingZeros(x));
      };
      const unsigned cost_ref = center_cost(x_ref);
      const unsigned cost_prev_center = center_cost(x_prev);
      const unsigned lead_prev = kLeadingRound[LeadingZeros(x_prev)];
      const unsigned cost_prev_chimp =
          (lead_prev == stored_lead ? 2u : 5u) + (64 - lead_prev);

      const bool use_ref = cost_ref <= cost_prev_center && cost_ref <= cost_prev_chimp;
      const uint64_t x = use_ref ? x_ref : x_prev;
      const unsigned idx = use_ref ? ref_idx : prev_idx;
      const unsigned cost_center = use_ref ? cost_ref : cost_prev_center;

      if (x == 0) {
        writer.WriteBits(0b00, 2);
        writer.WriteBits(idx, 7);
        stored_lead = kResetLead;
      } else if (cost_center <= cost_prev_chimp) {
        const unsigned trail = TrailingZeros(x);
        const unsigned lead = kLeadingRound[LeadingZeros(x)];
        const unsigned significant = 64 - lead - trail;
        writer.WriteBits(0b01, 2);
        writer.WriteBits(idx, 7);
        writer.WriteBits(kLeadingCode[lead], 3);
        writer.WriteBits(significant, 6);
        writer.WriteBits(x >> trail, significant);
        stored_lead = kResetLead;
      } else {
        if (lead_prev == stored_lead) {
          writer.WriteBits(0b10, 2);
          writer.WriteBits(x_prev, 64 - lead_prev);
        } else {
          stored_lead = lead_prev;
          writer.WriteBits(0b11, 2);
          writer.WriteBits(kLeadingCode[lead_prev], 3);
          writer.WriteBits(x_prev, 64 - lead_prev);
        }
      }
      ring.Push(truncated);
      prev = truncated;
    }
    return writer.Finish();
  }

  Status TryDecompress(const uint8_t* in, size_t size, size_t n, double* out) override {
    if (n == 0) return Status::Ok();
    BitReader reader(in, size);
    RingBuffer<uint64_t> ring;
    uint64_t prev = 0;
    unsigned stored_lead = 0;

    int prev_alpha = 0;
    for (size_t i = 0; i < n; ++i) {
      bool erased = true;
      unsigned alpha = 0;
      if (!reader.ReadBit()) {
        alpha = static_cast<unsigned>(prev_alpha);  // '0': repeat alpha.
      } else if (!reader.ReadBit()) {
        alpha = static_cast<unsigned>(reader.ReadBits(kAlphaBits));  // '10'.
        // The 5-bit field can hold up to 31, but Recover indexes the
        // power-of-ten tables, which stop at kMaxAlpha.
        if (alpha > kMaxAlpha) {
          return Status::Corrupt("Elf alpha out of range", reader.position() / 8);
        }
        prev_alpha = static_cast<int>(alpha);
      } else {
        erased = false;  // '11'.
      }

      uint64_t truncated;
      if (i == 0) {
        truncated = reader.ReadBits(64);
      } else {
        const unsigned flag = static_cast<unsigned>(reader.ReadBits(2));
        switch (flag) {
          case 0b00: {
            const unsigned idx = static_cast<unsigned>(reader.ReadBits(7));
            truncated = ring.At(idx);
            break;
          }
          case 0b01: {
            const unsigned idx = static_cast<unsigned>(reader.ReadBits(7));
            const unsigned lead = kLeadingValue[reader.ReadBits(3)];
            const unsigned significant = static_cast<unsigned>(reader.ReadBits(6));
            if (lead + significant > 64) {
              return Status::Corrupt("Elf center wider than the value",
                                     reader.position() / 8);
            }
            const unsigned trail = 64 - lead - significant;
            uint64_t x = 0;
            if (significant != 0) {  // significant == 0 would shift by 64.
              x = reader.ReadBits(significant) << trail;
            }
            truncated = ring.At(idx) ^ x;
            break;
          }
          case 0b10:
            truncated = prev ^ reader.ReadBits(64 - stored_lead);
            break;
          default:
            stored_lead = kLeadingValue[reader.ReadBits(3)];
            truncated = prev ^ reader.ReadBits(64 - stored_lead);
            break;
        }
      }
      ring.Push(truncated);
      prev = truncated;
      const double value = DoubleFromBits(truncated);
      out[i] = erased ? Recover(value, alpha) : value;
    }
    if (reader.overflowed()) {
      return Status::Truncated("Elf stream ends mid-value", size);
    }
    return Status::Ok();
  }
};

}  // namespace

std::unique_ptr<DoubleCodec> MakeElf() { return std::make_unique<ElfCodec>(); }

}  // namespace alp::codecs
