// Chimp (Liakos et al., VLDB 2022): a Gorilla refinement with four encoding
// modes selected by two flag bits, a rounded leading-zero representation
// (3 bits instead of 5) and a trailing-zero threshold that switches between
// storing the XOR's center bits and its full tail.

#include "codecs/codec.h"
#include "util/bit_stream.h"
#include "util/bits.h"

namespace alp::codecs {
namespace {

/// Rounds a leading-zero count down to one of 8 representable values.
constexpr uint8_t kLeadingRound[65] = {
    0,  0,  0,  0,  0,  0,  0,  0,  8,  8,  8,  8,  12, 12, 12, 12, 16,
    16, 18, 18, 20, 20, 22, 22, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24,
    24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24,
    24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24};

/// 3-bit code for each rounded leading-zero value.
constexpr uint8_t kLeadingCode[25] = {0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2,
                                      2, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7};

/// Rounded leading-zero value for each 3-bit code.
constexpr uint8_t kLeadingValue[8] = {0, 8, 12, 16, 18, 20, 22, 24};

template <typename T>
class ChimpCodec final : public Codec<T> {
 public:
  using Bits = typename IeeeTraits<T>::Bits;
  static constexpr unsigned kWidth = IeeeTraits<T>::kTotalBits;
  static constexpr unsigned kTrailingThreshold = 6;
  static constexpr unsigned kResetLead = kWidth + 1;  // "No stored window".

  std::string_view name() const override {
    return kWidth == 64 ? "Chimp" : "Chimp32";
  }

  std::vector<uint8_t> Compress(const T* in, size_t n) override {
    BitWriter writer;
    if (n == 0) return writer.Finish();

    Bits prev = BitsOf(in[0]);
    writer.WriteBits(prev, kWidth);
    unsigned stored_lead = kResetLead;

    for (size_t i = 1; i < n; ++i) {
      const Bits bits = BitsOf(in[i]);
      const Bits x = bits ^ prev;
      prev = bits;
      if (x == 0) {
        writer.WriteBits(0b00, 2);
        stored_lead = kResetLead;
        continue;
      }
      const unsigned trail = TrailingZeros(x);
      const unsigned lead = kLeadingRound[LeadingZeros(x)];
      if (trail > kTrailingThreshold) {
        // "01": store center bits only.
        stored_lead = kResetLead;
        const unsigned significant = kWidth - lead - trail;
        writer.WriteBits(0b01, 2);
        writer.WriteBits(kLeadingCode[lead], 3);
        writer.WriteBits(significant, 6);
        writer.WriteBits(x >> trail, significant);
      } else if (lead == stored_lead) {
        // "10": same leading window as before.
        writer.WriteBits(0b10, 2);
        writer.WriteBits(x, kWidth - lead);
      } else {
        // "11": new leading window.
        stored_lead = lead;
        writer.WriteBits(0b11, 2);
        writer.WriteBits(kLeadingCode[lead], 3);
        writer.WriteBits(x, kWidth - lead);
      }
    }
    return writer.Finish();
  }

  Status TryDecompress(const uint8_t* in, size_t size, size_t n, T* out) override {
    if (n == 0) return Status::Ok();
    BitReader reader(in, size);
    if (!reader.HasBits(kWidth)) {
      return Status::Truncated("Chimp stream shorter than the first value");
    }
    Bits prev = static_cast<Bits>(reader.ReadBits(kWidth));
    out[0] = std::bit_cast<T>(prev);
    unsigned stored_lead = 0;

    for (size_t i = 1; i < n; ++i) {
      const unsigned flag = static_cast<unsigned>(reader.ReadBits(2));
      Bits x = 0;
      switch (flag) {
        case 0b00:
          break;
        case 0b01: {
          const unsigned lead = kLeadingValue[reader.ReadBits(3)];
          const unsigned significant = static_cast<unsigned>(reader.ReadBits(6));
          // Garbled counts would underflow the trailing width.
          if (lead + significant > kWidth) {
            return Status::Corrupt("Chimp center wider than the value",
                                   reader.position() / 8);
          }
          const unsigned trail = kWidth - lead - significant;
          if (significant != 0) {  // significant == 0 would shift by kWidth.
            x = static_cast<Bits>(reader.ReadBits(significant)) << trail;
          }
          break;
        }
        case 0b10:
          x = static_cast<Bits>(reader.ReadBits(kWidth - stored_lead));
          break;
        default: {
          stored_lead = kLeadingValue[reader.ReadBits(3)];
          x = static_cast<Bits>(reader.ReadBits(kWidth - stored_lead));
          break;
        }
      }
      prev ^= x;
      out[i] = std::bit_cast<T>(prev);
    }
    if (reader.overflowed()) {
      return Status::Truncated("Chimp stream ends mid-value", size);
    }
    return Status::Ok();
  }
};

}  // namespace

std::unique_ptr<DoubleCodec> MakeChimp() { return std::make_unique<ChimpCodec<double>>(); }

std::unique_ptr<FloatCodec> MakeChimp32() {
  return std::make_unique<ChimpCodec<float>>();
}

}  // namespace alp::codecs
