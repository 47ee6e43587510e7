#include "alp/cascade.h"

#include <algorithm>
#include <cstring>

#include "alp/column.h"
#include "fastlanes/dict.h"
#include "fastlanes/ffor.h"
#include "fastlanes/rle.h"
#include "util/serialize.h"

namespace alp {
namespace {

struct CascadeHeader {
  uint8_t strategy;
  uint8_t pad[7];
  uint64_t value_count;
};
static_assert(sizeof(CascadeHeader) == 16);

/// FFOR-packs an arbitrary-length unsigned integer column in 1024-value
/// blocks (tail padded with the last value). Used for dictionary codes and
/// run lengths.
void WriteFforColumn(const uint64_t* values, size_t n, ByteBuffer* out) {
  out->Append(static_cast<uint64_t>(n));
  const size_t blocks = (n + kVectorSize - 1) / kVectorSize;
  for (size_t b = 0; b < blocks; ++b) {
    const size_t off = b * kVectorSize;
    const size_t len = std::min<size_t>(kVectorSize, n - off);
    int64_t block[kVectorSize];
    std::memcpy(block, values + off, len * sizeof(uint64_t));
    for (size_t i = len; i < kVectorSize; ++i) block[i] = block[len - 1];
    const auto params = fastlanes::FforAnalyze(block, kVectorSize);
    uint64_t packed[kVectorSize];
    fastlanes::FforEncode(block, packed, params);
    out->Append(static_cast<uint8_t>(params.width));
    out->AlignTo(8);
    out->Append(params.base);
    out->AppendArray(packed, static_cast<size_t>(params.width) * 16);
  }
}

/// Reads a WriteFforColumn column that must hold exactly \p n values,
/// calling visit(block, off, len) on each unpacked block; stops at the first
/// non-OK Status visit returns. Every width and packed extent is checked
/// before a word is unpacked.
template <typename Visit>
Status ReadFforColumn(ByteReader* reader, uint64_t n, Visit visit) {
  const size_t count_at = reader->position();
  const uint64_t stored_n = reader->Read<uint64_t>();
  if (reader->failed()) return Status::Truncated("cascade FFOR column count", count_at);
  if (stored_n != n) {
    return Status::Corrupt("cascade FFOR column count does not match", count_at);
  }
  const uint64_t blocks = n / kVectorSize + (n % kVectorSize != 0);
  for (uint64_t b = 0; b < blocks; ++b) {
    const size_t block_at = reader->position();
    const uint8_t width = reader->Read<uint8_t>();
    reader->AlignTo(8);
    fastlanes::FforParams params;
    params.base = reader->Read<uint64_t>();
    params.width = width;
    if (reader->failed()) return Status::Truncated("cascade FFOR block header", block_at);
    if (width > 64) return Status::Corrupt("cascade FFOR width out of range", block_at);
    const size_t packed_bytes = static_cast<size_t>(width) * 16 * sizeof(uint64_t);
    if (!reader->CanRead(packed_bytes)) {
      return Status::Truncated("cascade FFOR block payload", block_at);
    }
    int64_t block[kVectorSize];
    fastlanes::FforDecode(reinterpret_cast<const uint64_t*>(reader->Here()), block,
                          params);
    reader->Skip(packed_bytes);
    const size_t off = b * kVectorSize;
    Status s = visit(block, off, std::min<size_t>(kVectorSize, n - off));
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

/// Appends a length-prefixed nested buffer.
void WriteNested(const std::vector<uint8_t>& nested, ByteBuffer* out) {
  out->Append(static_cast<uint64_t>(nested.size()));
  out->AppendArray(nested.data(), nested.size());
  out->AlignTo(8);
}

/// Opens a WriteNested ALP column in place (it starts 8-aligned in the
/// cascade buffer) through ColumnReader::Open: checksums and structure.
StatusOr<ColumnReader<double>> ReadNested(ByteReader* reader) {
  const size_t at = reader->position();
  const uint64_t size = reader->Read<uint64_t>();
  if (reader->failed() || size > reader->Remaining()) {
    return Status::Truncated("cascade nested column", at);
  }
  const uint8_t* nested = reader->Here();
  reader->Skip(size);
  reader->AlignTo(8);
  return ColumnReader<double>::Open(nested, size);
}

/// Decodes a nested column of run values or dictionary entries.
Status DecodeNested(ByteReader* reader, std::vector<double>* values) {
  StatusOr<ColumnReader<double>> column = ReadNested(reader);
  if (!column.ok()) return column.status();
  values->resize(column->value_count());
  return column->TryDecodeAll(values->data());
}

}  // namespace

std::vector<uint8_t> CascadeCompress(const double* data, size_t n,
                                     const CascadeConfig& config, CascadeStrategy* used) {
  // Pick the strategy from a prefix sample.
  const size_t sample_n = std::min(config.sample_size, n);
  CascadeStrategy strategy = CascadeStrategy::kPlain;
  if (sample_n > 0) {
    const double avg_run = fastlanes::AverageRunLength(data, sample_n);
    const double dup_frac = fastlanes::DuplicateFraction(data, sample_n);
    if (avg_run >= config.min_avg_run_length) {
      strategy = CascadeStrategy::kRle;
    } else if (dup_frac >= config.min_duplicate_fraction) {
      strategy = CascadeStrategy::kDictionary;
    }
  }

  ByteBuffer out;
  CascadeHeader header{};
  header.value_count = n;

  if (strategy == CascadeStrategy::kDictionary) {
    auto dict = fastlanes::DictEncode(data, n, config.max_dictionary_size);
    if (!dict.has_value()) {
      strategy = CascadeStrategy::kPlain;  // Too many distinct values.
    } else {
      header.strategy = static_cast<uint8_t>(CascadeStrategy::kDictionary);
      out.Append(header);
      WriteNested(CompressColumn(dict->dictionary.data(), dict->dictionary.size(),
                                 config.alp),
                  &out);
      std::vector<uint64_t> codes(dict->codes.begin(), dict->codes.end());
      WriteFforColumn(codes.data(), codes.size(), &out);
      if (used != nullptr) *used = CascadeStrategy::kDictionary;
      return out.Take();
    }
  }

  if (strategy == CascadeStrategy::kRle) {
    const auto rle = fastlanes::RleEncode(data, n);
    header.strategy = static_cast<uint8_t>(CascadeStrategy::kRle);
    out.Append(header);
    WriteNested(CompressColumn(rle.values.data(), rle.values.size(), config.alp), &out);
    std::vector<uint64_t> lengths(rle.lengths.begin(), rle.lengths.end());
    WriteFforColumn(lengths.data(), lengths.size(), &out);
    if (used != nullptr) *used = CascadeStrategy::kRle;
    return out.Take();
  }

  header.strategy = static_cast<uint8_t>(CascadeStrategy::kPlain);
  out.Append(header);
  WriteNested(CompressColumn(data, n, config.alp), &out);
  if (used != nullptr) *used = CascadeStrategy::kPlain;
  return out.Take();
}

size_t CascadeValueCount(const std::vector<uint8_t>& buffer) {
  ByteReader reader(buffer.data(), buffer.size());
  return reader.Read<CascadeHeader>().value_count;
}

Status CascadeDecompress(const std::vector<uint8_t>& buffer, double* out) {
  ByteReader reader(buffer.data(), buffer.size());
  const auto header = reader.Read<CascadeHeader>();
  if (reader.failed()) return Status::Truncated("cascade header", 0);
  const auto strategy = static_cast<CascadeStrategy>(header.strategy);
  const uint64_t n = header.value_count;
  std::vector<double> values;

  switch (strategy) {
    case CascadeStrategy::kPlain: {
      StatusOr<ColumnReader<double>> column = ReadNested(&reader);
      if (!column.ok()) return column.status();
      if (column->value_count() != n) {
        return Status::Corrupt("cascade column count does not match the header", 0);
      }
      return column->TryDecodeAll(out);
    }
    case CascadeStrategy::kDictionary: {
      Status s = DecodeNested(&reader, &values);
      if (!s.ok()) return s;
      return ReadFforColumn(&reader, n, [&](const int64_t* codes, size_t off,
                                            size_t len) {
        for (size_t i = 0; i < len; ++i) {
          const uint64_t code = static_cast<uint64_t>(codes[i]);
          if (code >= values.size()) {
            return Status::Corrupt("cascade dictionary code out of range");
          }
          out[off + i] = values[code];
        }
        return Status::Ok();
      });
    }
    case CascadeStrategy::kRle: {
      Status s = DecodeNested(&reader, &values);
      if (!s.ok()) return s;
      uint64_t o = 0;
      s = ReadFforColumn(&reader, values.size(), [&](const int64_t* lengths,
                                                     size_t off, size_t len) {
        for (size_t r = 0; r < len; ++r) {
          const uint64_t run = static_cast<uint64_t>(lengths[r]);
          if (run > n - o) {
            return Status::Corrupt("cascade run lengths exceed the value count");
          }
          std::fill_n(out + o, run, values[off + r]);
          o += run;
        }
        return Status::Ok();
      });
      if (!s.ok()) return s;
      if (o != n) {
        return Status::Corrupt("cascade run lengths fall short of the value count");
      }
      return Status::Ok();
    }
  }
  return Status::Corrupt("unknown cascade strategy", 0);
}

}  // namespace alp
