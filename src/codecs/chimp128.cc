// Chimp128 (Liakos et al., VLDB 2022): Chimp extended with a window of the
// previous 128 values. A hash on the low bits finds the in-window value
// most likely to XOR to a long run of trailing zeros; when it does, the
// 7-bit window offset is spent to store only the XOR's center bits.

#include "codecs/codec.h"
#include "codecs/ring_index.h"
#include "util/bit_stream.h"
#include "util/bits.h"

namespace alp::codecs {
namespace {

constexpr uint8_t kLeadingRound[65] = {
    0,  0,  0,  0,  0,  0,  0,  0,  8,  8,  8,  8,  12, 12, 12, 12, 16,
    16, 18, 18, 20, 20, 22, 22, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24,
    24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24,
    24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24};
constexpr uint8_t kLeadingCode[25] = {0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2,
                                      2, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7};
constexpr uint8_t kLeadingValue[8] = {0, 8, 12, 16, 18, 20, 22, 24};

template <typename T>
class Chimp128Codec final : public Codec<T> {
 public:
  using Bits = typename IeeeTraits<T>::Bits;
  static constexpr unsigned kWidth = IeeeTraits<T>::kTotalBits;
  static constexpr unsigned kTrailingThreshold = 6;
  static constexpr unsigned kResetLead = kWidth + 1;

  std::string_view name() const override {
    return kWidth == 64 ? "Chimp128" : "Chimp128_32";
  }

  std::vector<uint8_t> Compress(const T* in, size_t n) override {
    BitWriter writer;
    if (n == 0) return writer.Finish();

    RingIndex<Bits> ring;
    Bits first = BitsOf(in[0]);
    writer.WriteBits(first, kWidth);
    ring.Push(first);
    Bits prev = first;
    unsigned stored_lead = kResetLead;

    for (size_t i = 1; i < n; ++i) {
      const Bits bits = BitsOf(in[i]);
      const unsigned ref_idx = ring.FindReference(bits);
      const Bits ref = ring.At(ref_idx);
      const Bits x_ref = bits ^ ref;

      if (x_ref == 0) {
        // "00": exact match in the window; pay only the 7-bit offset.
        writer.WriteBits(0b00, 2);
        writer.WriteBits(ref_idx, 7);
        stored_lead = kResetLead;
      } else if (static_cast<unsigned>(TrailingZeros(x_ref)) > kTrailingThreshold) {
        // "01": long trailing run against the window reference.
        const unsigned trail = TrailingZeros(x_ref);
        const unsigned lead = kLeadingRound[LeadingZeros(x_ref)];
        const unsigned significant = kWidth - lead - trail;
        writer.WriteBits(0b01, 2);
        writer.WriteBits(ref_idx, 7);
        writer.WriteBits(kLeadingCode[lead], 3);
        writer.WriteBits(significant, 6);
        writer.WriteBits(x_ref >> trail, significant);
        stored_lead = kResetLead;
      } else {
        // Fall back to the immediate previous value, Chimp-style.
        const Bits x = bits ^ prev;
        const unsigned lead = kLeadingRound[LeadingZeros(x)];
        if (lead == stored_lead) {
          writer.WriteBits(0b10, 2);
          writer.WriteBits(x, kWidth - lead);
        } else {
          stored_lead = lead;
          writer.WriteBits(0b11, 2);
          writer.WriteBits(kLeadingCode[lead], 3);
          writer.WriteBits(x, kWidth - lead);
        }
      }
      ring.Push(bits);
      prev = bits;
    }
    return writer.Finish();
  }

  Status TryDecompress(const uint8_t* in, size_t size, size_t n, T* out) override {
    if (n == 0) return Status::Ok();
    BitReader reader(in, size);
    if (!reader.HasBits(kWidth)) {
      return Status::Truncated("Chimp128 stream shorter than the first value");
    }
    RingBuffer<Bits> ring;
    Bits prev = static_cast<Bits>(reader.ReadBits(kWidth));
    out[0] = std::bit_cast<T>(prev);
    ring.Push(prev);
    unsigned stored_lead = 0;

    for (size_t i = 1; i < n; ++i) {
      const unsigned flag = static_cast<unsigned>(reader.ReadBits(2));
      Bits value = 0;
      switch (flag) {
        case 0b00: {
          const unsigned idx = static_cast<unsigned>(reader.ReadBits(7));
          value = ring.At(idx);  // 7 bits always index inside the window.
          break;
        }
        case 0b01: {
          const unsigned idx = static_cast<unsigned>(reader.ReadBits(7));
          const unsigned lead = kLeadingValue[reader.ReadBits(3)];
          const unsigned significant = static_cast<unsigned>(reader.ReadBits(6));
          // Garbled counts would underflow the trailing width.
          if (lead + significant > kWidth) {
            return Status::Corrupt("Chimp128 center wider than the value",
                                   reader.position() / 8);
          }
          const unsigned trail = kWidth - lead - significant;
          Bits x = 0;
          if (significant != 0) {  // significant == 0 would shift by kWidth.
            x = static_cast<Bits>(reader.ReadBits(significant)) << trail;
          }
          value = ring.At(idx) ^ x;
          break;
        }
        case 0b10:
          value = prev ^ static_cast<Bits>(reader.ReadBits(kWidth - stored_lead));
          break;
        default:
          stored_lead = kLeadingValue[reader.ReadBits(3)];
          value = prev ^ static_cast<Bits>(reader.ReadBits(kWidth - stored_lead));
          break;
      }
      out[i] = std::bit_cast<T>(value);
      ring.Push(value);
      prev = value;
    }
    if (reader.overflowed()) {
      return Status::Truncated("Chimp128 stream ends mid-value", size);
    }
    return Status::Ok();
  }
};

}  // namespace

std::unique_ptr<DoubleCodec> MakeChimp128() {
  return std::make_unique<Chimp128Codec<double>>();
}

std::unique_ptr<FloatCodec> MakeChimp128_32() {
  return std::make_unique<Chimp128Codec<float>>();
}

}  // namespace alp::codecs
