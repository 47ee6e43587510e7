#include "engine/column_store.h"

#include <algorithm>
#include <cstring>

namespace alp::engine {

StoredColumn StoredColumn::MakeUncompressed(std::vector<double> values) {
  StoredColumn column;
  column.scheme_ = "Uncompressed";
  column.value_count_ = values.size();
  column.compressed_bytes_ = values.size() * sizeof(double);
  column.raw_ = std::move(values);
  return column;
}

StoredColumn StoredColumn::MakeAlp(const double* data, size_t n) {
  StoredColumn column;
  column.scheme_ = "ALP";
  column.value_count_ = n;
  column.alp_buffer_ = CompressColumn(data, n);
  column.compressed_bytes_ = column.alp_buffer_.size();
  column.alp_reader_ = std::make_unique<ColumnReader<double>>(column.alp_buffer_.data(),
                                                              column.alp_buffer_.size());
  return column;
}

StoredColumn StoredColumn::MakeCodec(std::unique_ptr<codecs::DoubleCodec> codec,
                                     const double* data, size_t n) {
  StoredColumn column;
  column.scheme_ = std::string(codec->name());
  column.value_count_ = n;
  column.codec_ = std::move(codec);
  const size_t rowgroups = (n + kRowgroupSize - 1) / kRowgroupSize;
  column.codec_blocks_.reserve(rowgroups);
  for (size_t rg = 0; rg < rowgroups; ++rg) {
    const size_t off = rg * kRowgroupSize;
    const size_t len = std::min<size_t>(kRowgroupSize, n - off);
    column.codec_blocks_.push_back(column.codec_->Compress(data + off, len));
    column.compressed_bytes_ += column.codec_blocks_.back().size();
  }
  return column;
}

unsigned StoredColumn::RowgroupLength(size_t rg) const {
  const size_t off = rg * kRowgroupSize;
  return static_cast<unsigned>(std::min<size_t>(kRowgroupSize, value_count_ - off));
}

Status StoredColumn::DecodeRowgroup(size_t rg, double* out) const {
  const size_t off = rg * kRowgroupSize;
  const unsigned len = RowgroupLength(rg);
  if (!raw_.empty()) {
    std::memcpy(out, raw_.data() + off, len * sizeof(double));
    return Status::Ok();
  }
  if (alp_reader_ != nullptr) {
    const size_t first_vector = rg * kRowgroupVectors;
    const size_t vectors = (len + kVectorSize - 1) / kVectorSize;
    for (size_t v = 0; v < vectors; ++v) {
      Status s = alp_reader_->TryDecodeVector(first_vector + v, out + v * kVectorSize);
      if (!s.ok()) return s;
    }
    return Status::Ok();
  }
  const std::vector<uint8_t>& block = codec_blocks_[rg];
  return codec_->TryDecompress(block.data(), block.size(), len, out);
}

const double* StoredColumn::RowgroupPointer(size_t rg) const {
  if (raw_.empty()) return nullptr;
  return raw_.data() + rg * kRowgroupSize;
}

Status StoredColumn::EnableSeekable(io::DecodedVectorCache* cache,
                                    std::string label) {
  if (alp_buffer_.empty()) return Status::Ok();  // Only ALP columns chunk.
  io::SeekableReaderOptions options;
  options.cache = cache;
  options.column_label = std::move(label);
  auto source = std::make_shared<io::MemorySource>(alp_buffer_.data(),
                                                   alp_buffer_.size());
  auto reader =
      io::SeekableReader<double>::Open(std::move(source), options);
  if (!reader.ok()) return reader.status();
  seekable_ = std::move(*reader);
  return Status::Ok();
}

VectorSource::VectorSource(const StoredColumn& column, const OpContext* ctx)
    : column_(column),
      reader_(column.Seekable() == nullptr ? column.AlpReader() : nullptr),
      seekable_(column.Seekable()),
      raw_(column.RowgroupPointer(0)),
      ctx_(ctx) {}

Status VectorSource::Materialize(size_t v, Vector* out) {
  Status s = Values(v, out);
  if (s.ok() && out->values != buffer_.data()) {
    std::memcpy(buffer_.data(), out->values, out->len * sizeof(double));
    out->values = buffer_.data();
  }
  return s;
}

}  // namespace alp::engine
