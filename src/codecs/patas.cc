// Patas (DuckDB Labs, 2022): a byte-aligned Chimp128 variant with a single
// encoding mode. Every value gets a 16-bit packet — 7-bit window index,
// 3-bit significant-byte code, 6-bit trailing-zero count — followed by the
// raw significant bytes of the XOR. One mode + byte alignment = fewer
// branch mispredictions and less bit surgery, trading compression ratio for
// decode speed (exactly the trade-off the paper measures).

#include "codecs/codec.h"
#include "codecs/ring_index.h"
#include "util/bits.h"
#include "util/serialize.h"

namespace alp::codecs {
namespace {

/// Packet layout: [index:7 | bytes_code:3 | trailing_zeros:6].
/// bytes_code encodes the significant byte count 1..8 as count % 8; the two
/// uses of bytes_code == 0 are disambiguated by the trailing-zero field:
/// tz == 63 means "XOR was zero, no bytes follow", anything else means 8
/// bytes follow (8 significant bytes imply tz <= 7, so no collision).
constexpr unsigned kZeroXorTz = 63;

uint16_t MakePacket(unsigned index, unsigned sig_bytes, unsigned tz) {
  return static_cast<uint16_t>((index << 9) | ((sig_bytes & 7) << 6) | tz);
}

template <typename T>
class PatasCodec final : public Codec<T> {
 public:
  using Bits = typename IeeeTraits<T>::Bits;
  static constexpr unsigned kWidth = IeeeTraits<T>::kTotalBits;

  std::string_view name() const override {
    return kWidth == 64 ? "Patas" : "Patas32";
  }

  std::vector<uint8_t> Compress(const T* in, size_t n) override {
    ByteBuffer out;
    if (n == 0) return out.Take();

    RingIndex<Bits> ring;
    const Bits first = BitsOf(in[0]);
    out.Append(first);
    ring.Push(first);

    for (size_t i = 1; i < n; ++i) {
      const Bits bits = BitsOf(in[i]);
      const unsigned ref_idx = ring.FindReference(bits);
      const Bits x = bits ^ ring.At(ref_idx);
      ring.Push(bits);

      if (x == 0) {
        out.Append(MakePacket(ref_idx, 0, kZeroXorTz));
        continue;
      }
      const unsigned tz = TrailingZeros(x);
      const Bits stripped = x >> tz;
      const unsigned sig_bytes = (BitWidth(stripped) + 7) / 8;
      out.Append(MakePacket(ref_idx, sig_bytes, tz));
      // Raw little-endian significant bytes.
      uint8_t raw[sizeof(Bits)];
      std::memcpy(raw, &stripped, sizeof(Bits));
      out.AppendArray(raw, sig_bytes);
    }
    return out.Take();
  }

  Status TryDecompress(const uint8_t* in, size_t size, size_t n, T* out) override {
    if (n == 0) return Status::Ok();
    ByteReader reader(in, size);
    RingBuffer<Bits> ring;
    Bits prev = reader.Read<Bits>();
    if (reader.failed()) {
      return Status::Truncated("Patas stream shorter than the first value");
    }
    out[0] = std::bit_cast<T>(prev);
    ring.Push(prev);

    for (size_t i = 1; i < n; ++i) {
      const size_t packet_at = reader.position();
      const uint16_t packet = reader.Read<uint16_t>();
      const unsigned index = packet >> 9;
      const unsigned bytes_code = (packet >> 6) & 7;
      const unsigned tz = packet & 63;

      Bits value;
      if (bytes_code == 0 && tz == kZeroXorTz) {
        value = ring.At(index);
      } else {
        const unsigned sig_bytes = bytes_code == 0 ? 8 : bytes_code;
        // A forged packet can claim more significant bytes than the value
        // type holds, or a shift amount past its width.
        if (sig_bytes > sizeof(Bits) || tz >= kWidth) {
          return Status::Corrupt("Patas packet inconsistent with value width",
                                 packet_at);
        }
        Bits stripped = 0;
        reader.ReadArray(reinterpret_cast<uint8_t*>(&stripped), sig_bytes);
        value = ring.At(index) ^ (stripped << tz);
      }
      out[i] = std::bit_cast<T>(value);
      ring.Push(value);
    }
    if (reader.failed()) {
      return Status::Truncated("Patas stream ends mid-value", size);
    }
    return Status::Ok();
  }
};

}  // namespace

std::unique_ptr<DoubleCodec> MakePatas() { return std::make_unique<PatasCodec<double>>(); }

std::unique_ptr<FloatCodec> MakePatas32() {
  return std::make_unique<PatasCodec<float>>();
}

}  // namespace alp::codecs
