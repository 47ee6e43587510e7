// FPC (Burtscher & Ratanaworabhan, IEEE TC 2009): the classic predictive
// floating-point compressor that predates the XOR family (paper Section 5,
// "Predictive Schemes"). Two hash-table predictors - FCM (value context)
// and DFCM (delta context) - each guess the next double; the better guess
// is XORed with the actual value and only the non-zero tail bytes are
// stored, with a 4-bit header per value (1 bit predictor choice, 3 bits
// leading-zero-byte count). Included as an extra baseline beyond the
// paper's Table 4 line-up; see bench_extra_baselines.

#include <vector>

#include "codecs/codec.h"
#include "util/bits.h"
#include "util/serialize.h"

namespace alp::codecs {
namespace {

constexpr unsigned kTableBits = 16;
constexpr size_t kTableSize = size_t{1} << kTableBits;

/// FPC's paired predictors with their hash-chain state.
class Predictors {
 public:
  Predictors() : fcm_(kTableSize, 0), dfcm_(kTableSize, 0) {}

  /// Predictions for the next value (call before Update).
  uint64_t PredictFcm() const { return fcm_[fcm_hash_]; }
  uint64_t PredictDfcm() const { return dfcm_[dfcm_hash_] + last_; }

  /// Feeds the actual value into both predictors.
  void Update(uint64_t actual) {
    fcm_[fcm_hash_] = actual;
    fcm_hash_ = ((fcm_hash_ << 6) ^ (actual >> 48)) & (kTableSize - 1);
    const uint64_t delta = actual - last_;
    dfcm_[dfcm_hash_] = delta;
    dfcm_hash_ = ((dfcm_hash_ << 2) ^ (delta >> 40)) & (kTableSize - 1);
    last_ = actual;
  }

 private:
  std::vector<uint64_t> fcm_;
  std::vector<uint64_t> dfcm_;
  size_t fcm_hash_ = 0;
  size_t dfcm_hash_ = 0;
  uint64_t last_ = 0;
};

/// Leading-zero-byte count clamped to FPC's 3-bit code (which cannot
/// express 4: the original maps counts {0,1,2,3,5,6,7,8} and demotes 4
/// to 3; we do the same).
inline unsigned CodeOf(unsigned zero_bytes) {
  if (zero_bytes >= 8) return 7;
  if (zero_bytes == 4) return 3;
  return zero_bytes > 4 ? zero_bytes - 1 : zero_bytes;
}
inline unsigned BytesOf(unsigned code) { return code >= 4 ? code + 1 : code; }

class FpcCodec final : public Codec<double> {
 public:
  std::string_view name() const override { return "FPC"; }

  std::vector<uint8_t> Compress(const double* in, size_t n) override {
    ByteBuffer out;
    out.Append(static_cast<uint64_t>(n));

    Predictors predictors;
    std::vector<uint8_t> headers;
    headers.reserve((n + 1) / 2);
    std::vector<uint8_t> residuals;
    residuals.reserve(n * 4);

    uint8_t pending_header = 0;
    bool have_pending = false;
    for (size_t i = 0; i < n; ++i) {
      const uint64_t bits = BitsOf(in[i]);
      const uint64_t x_fcm = bits ^ predictors.PredictFcm();
      const uint64_t x_dfcm = bits ^ predictors.PredictDfcm();
      predictors.Update(bits);

      const bool use_dfcm = LeadingZeros(x_dfcm) > LeadingZeros(x_fcm);
      const uint64_t x = use_dfcm ? x_dfcm : x_fcm;
      const unsigned zero_bytes = static_cast<unsigned>(LeadingZeros(x)) / 8;
      const unsigned code = CodeOf(zero_bytes);
      const unsigned stored_bytes = 8 - BytesOf(code);

      const uint8_t nibble =
          static_cast<uint8_t>((use_dfcm ? 0x8 : 0x0) | code);
      if (have_pending) {
        headers.push_back(static_cast<uint8_t>(pending_header | (nibble << 4)));
        have_pending = false;
      } else {
        pending_header = nibble;
        have_pending = true;
      }
      // Residual bytes, most significant first, skipping the zero prefix.
      for (unsigned b = 0; b < stored_bytes; ++b) {
        residuals.push_back(
            static_cast<uint8_t>(x >> (8 * (stored_bytes - 1 - b))));
      }
    }
    if (have_pending) headers.push_back(pending_header);

    out.Append(static_cast<uint64_t>(headers.size()));
    out.AppendArray(headers.data(), headers.size());
    out.AppendArray(residuals.data(), residuals.size());
    return out.Take();
  }

  Status TryDecompress(const uint8_t* in, size_t size, size_t n, double* out) override {
    ByteReader reader(in, size);
    const uint64_t count = reader.Read<uint64_t>();
    const uint64_t header_bytes = reader.Read<uint64_t>();
    if (reader.failed()) return Status::Truncated("FPC stream header", 0);
    if (count != n) {
      return Status::Corrupt("FPC value count does not match the request", 0);
    }
    if (header_bytes < (n + 1) / 2 || header_bytes > reader.Remaining()) {
      return Status::Truncated("FPC header array", sizeof(uint64_t));
    }
    const uint8_t* headers = reader.Here();
    reader.Skip(header_bytes);
    const uint8_t* residuals = reader.Here();
    const size_t residual_bytes = reader.Remaining();

    Predictors predictors;
    size_t r = 0;
    for (size_t i = 0; i < n; ++i) {
      const uint8_t header = headers[i / 2];
      const uint8_t nibble = (i % 2 == 0) ? (header & 0xF) : (header >> 4);
      const bool use_dfcm = (nibble & 0x8) != 0;
      const unsigned stored_bytes = 8 - BytesOf(nibble & 0x7);
      if (stored_bytes > residual_bytes - r) {
        return Status::Truncated("FPC residual bytes", size);
      }
      uint64_t x = 0;
      for (unsigned b = 0; b < stored_bytes; ++b) {
        x = (x << 8) | residuals[r++];
      }
      const uint64_t prediction =
          use_dfcm ? predictors.PredictDfcm() : predictors.PredictFcm();
      const uint64_t bits = x ^ prediction;
      predictors.Update(bits);
      out[i] = DoubleFromBits(bits);
    }
    return Status::Ok();
  }
};

}  // namespace

std::unique_ptr<DoubleCodec> MakeFpc() { return std::make_unique<FpcCodec>(); }

}  // namespace alp::codecs
