// Gorilla (Pelkonen et al., VLDB 2015): XOR with the immediate previous
// value; the non-zero window of the XOR is stored, re-using the previous
// value's leading/trailing window when it still fits ("10" mode) or opening
// a new window ("11" mode). Implemented from the paper's description since
// the original lives in a closed-source Facebook system (as the ALP paper
// notes in Section 4).

#include <algorithm>

#include "codecs/codec.h"
#include "util/bit_stream.h"
#include "util/bits.h"

namespace alp::codecs {
namespace {

template <typename T>
class GorillaCodec final : public Codec<T> {
 public:
  using Bits = typename IeeeTraits<T>::Bits;
  static constexpr unsigned kWidth = IeeeTraits<T>::kTotalBits;
  // 5 bits for the leading-zero count (clamped to 31), and enough bits for
  // the significant-bit length minus one.
  static constexpr unsigned kLenBits = kWidth == 64 ? 6 : 5;

  std::string_view name() const override {
    return kWidth == 64 ? "Gorilla" : "Gorilla32";
  }

  std::vector<uint8_t> Compress(const T* in, size_t n) override {
    BitWriter writer;
    if (n == 0) return writer.Finish();

    Bits prev = BitsOf(in[0]);
    writer.WriteBits(prev, kWidth);
    unsigned win_lead = 0;
    unsigned win_trail = 0;
    bool window_open = false;

    for (size_t i = 1; i < n; ++i) {
      const Bits bits = BitsOf(in[i]);
      const Bits x = bits ^ prev;
      prev = bits;
      if (x == 0) {
        writer.WriteBit(false);
        continue;
      }
      unsigned lead = std::min<unsigned>(LeadingZeros(x), 31);
      unsigned trail = TrailingZeros(x);
      if (window_open && lead >= win_lead && trail >= win_trail) {
        // "10": re-use the previous window.
        writer.WriteBits(0b10, 2);
        const unsigned len = kWidth - win_lead - win_trail;
        writer.WriteBits(x >> win_trail, len);
      } else {
        // "11": open a new window.
        writer.WriteBits(0b11, 2);
        const unsigned len = kWidth - lead - trail;
        writer.WriteBits(lead, 5);
        writer.WriteBits(len - 1, kLenBits);
        writer.WriteBits(x >> trail, len);
        win_lead = lead;
        win_trail = trail;
        window_open = true;
      }
    }
    return writer.Finish();
  }

  Status TryDecompress(const uint8_t* in, size_t size, size_t n, T* out) override {
    if (n == 0) return Status::Ok();
    BitReader reader(in, size);
    if (!reader.HasBits(kWidth)) {
      return Status::Truncated("Gorilla stream shorter than the first value");
    }
    Bits prev = static_cast<Bits>(reader.ReadBits(kWidth));
    out[0] = std::bit_cast<T>(prev);
    unsigned win_lead = 0;
    unsigned win_trail = 0;

    for (size_t i = 1; i < n; ++i) {
      if (!reader.ReadBit()) {
        out[i] = std::bit_cast<T>(prev);
        continue;
      }
      if (reader.ReadBit()) {
        // "11": new window.
        win_lead = static_cast<unsigned>(reader.ReadBits(5));
        const unsigned len = static_cast<unsigned>(reader.ReadBits(kLenBits)) + 1;
        // A corrupted header can claim lead + len > width, which would
        // underflow win_trail and shift out of range below.
        if (win_lead + len > kWidth) {
          return Status::Corrupt("Gorilla window wider than the value",
                                 reader.position() / 8);
        }
        win_trail = kWidth - win_lead - len;
        prev ^= static_cast<Bits>(reader.ReadBits(len)) << win_trail;
      } else {
        // "10": reuse window.
        const unsigned len = kWidth - win_lead - win_trail;
        prev ^= static_cast<Bits>(reader.ReadBits(len)) << win_trail;
      }
      out[i] = std::bit_cast<T>(prev);
    }
    // A single latched check suffices: past-the-end reads returned zero
    // bits (producing garbage values, which we now discard) but never
    // touched out-of-bounds memory.
    if (reader.overflowed()) {
      return Status::Truncated("Gorilla stream ends mid-value", size);
    }
    return Status::Ok();
  }
};

}  // namespace

std::unique_ptr<DoubleCodec> MakeGorilla() {
  return std::make_unique<GorillaCodec<double>>();
}

std::unique_ptr<FloatCodec> MakeGorilla32() {
  return std::make_unique<GorillaCodec<float>>();
}

}  // namespace alp::codecs
