// Registry plus the adapters that expose ALP itself through the common
// Codec interface, so benchmarks iterate over all schemes uniformly.

#include "codecs/codec.h"

#include "alp/column.h"

namespace alp::codecs {
namespace {

/// ALP column format behind the Codec interface.
template <typename T>
class AlpAdapter final : public Codec<T> {
 public:
  explicit AlpAdapter(bool force_rd) : force_rd_(force_rd) {
    if (force_rd_) {
      // Forcing the threshold to zero makes every rowgroup take the ALP_rd
      // path; used for the Table 7 (ML weights) experiments.
      config_.rd_threshold_bits_per_value = 0;
    }
  }

  std::string_view name() const override {
    if (force_rd_) return sizeof(T) == 8 ? "ALP_rd" : "ALP_rd32";
    return sizeof(T) == 8 ? "ALP" : "ALP32";
  }

  std::vector<uint8_t> Compress(const T* in, size_t n) override {
    return CompressColumn(in, n, config_);
  }

  Status TryDecompress(const uint8_t* in, size_t size, size_t n, T* out) override {
    StatusOr<ColumnReader<T>> reader = ColumnReader<T>::Open(in, size);
    if (!reader.ok()) return reader.status();
    if (reader->value_count() != n) {
      return Status::Corrupt("column value count does not match the request");
    }
    return reader->TryDecodeAll(out);
  }

 private:
  bool force_rd_;
  SamplerConfig config_;
};

}  // namespace

std::unique_ptr<DoubleCodec> MakeAlpCodec() {
  return std::make_unique<AlpAdapter<double>>(false);
}

std::unique_ptr<DoubleCodec> MakeAlpRdCodec() {
  return std::make_unique<AlpAdapter<double>>(true);
}

std::unique_ptr<FloatCodec> MakeAlpCodec32() {
  return std::make_unique<AlpAdapter<float>>(false);
}

std::unique_ptr<FloatCodec> MakeAlpRdCodec32() {
  return std::make_unique<AlpAdapter<float>>(true);
}

std::vector<std::unique_ptr<DoubleCodec>> AllDoubleCodecs() {
  std::vector<std::unique_ptr<DoubleCodec>> codecs;
  codecs.push_back(MakeGorilla());
  codecs.push_back(MakeChimp());
  codecs.push_back(MakeChimp128());
  codecs.push_back(MakePatas());
  codecs.push_back(MakePde());
  codecs.push_back(MakeElf());
  codecs.push_back(MakeAlpCodec());
  codecs.push_back(MakeZstd());
  return codecs;
}

std::vector<std::unique_ptr<FloatCodec>> AllFloatCodecs() {
  std::vector<std::unique_ptr<FloatCodec>> codecs;
  codecs.push_back(MakeGorilla32());
  codecs.push_back(MakeChimp32());
  codecs.push_back(MakeChimp128_32());
  codecs.push_back(MakePatas32());
  codecs.push_back(MakeAlpRdCodec32());
  codecs.push_back(MakeZstd32());
  return codecs;
}

}  // namespace alp::codecs
