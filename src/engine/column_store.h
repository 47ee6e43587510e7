#ifndef ALP_ENGINE_COLUMN_STORE_H_
#define ALP_ENGINE_COLUMN_STORE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "alp/column.h"
#include "codecs/codec.h"
#include "io/seekable_reader.h"
#include "util/aligned_buffer.h"
#include "util/cancellation.h"
#include "util/status.h"

/// \file column_store.h
/// Compressed column storage for the Tectorwise-style engine (Section 4.3):
/// a column is stored uncompressed, as an ALP column, or as per-rowgroup
/// blocks of any baseline codec, behind one scan-oriented interface that
/// surfaces data one rowgroup at a time, and VectorSource, the one
/// vector-at-a-time reader every query operator consumes.

namespace alp::engine {

/// One stored (possibly compressed) column of doubles.
class StoredColumn {
 public:
  /// Keeps the raw values (the paper's "Uncompressed" row).
  static StoredColumn MakeUncompressed(std::vector<double> values);

  /// ALP column format.
  static StoredColumn MakeAlp(const double* data, size_t n);

  /// Per-rowgroup blocks compressed with \p codec (the codec is owned).
  static StoredColumn MakeCodec(std::unique_ptr<codecs::DoubleCodec> codec,
                                const double* data, size_t n);

  const std::string& scheme() const { return scheme_; }
  size_t value_count() const { return value_count_; }
  size_t rowgroup_count() const {
    return (value_count_ + kRowgroupSize - 1) / kRowgroupSize;
  }
  size_t compressed_bytes() const { return compressed_bytes_; }

  /// Values in rowgroup \p rg.
  unsigned RowgroupLength(size_t rg) const;

  /// Decodes rowgroup \p rg into \p out (room for RowgroupLength(rg))
  /// through the scheme's checked decoder; uncompressed columns copy
  /// (modeling a buffer-pool read).
  Status DecodeRowgroup(size_t rg, double* out) const;

  /// For uncompressed columns: zero-copy view of a rowgroup (nullptr for
  /// compressed columns). SUM uses this to aggregate in place.
  const double* RowgroupPointer(size_t rg) const;

  /// For ALP columns: the vector-level reader with zone maps (nullptr for
  /// other storage). FILTER queries use it to skip compressed vectors.
  const ColumnReader<double>* AlpReader() const { return alp_reader_.get(); }

  /// Routes this column's decode paths through an out-of-core
  /// io::SeekableReader over its own compressed buffer, optionally sharing
  /// \p cache (which must outlive the column) with other columns. Only ALP
  /// columns are chunked; for other schemes this is an OK no-op. Chunks are
  /// read on the calling thread: engine operators and the server drive
  /// rowgroups from their own worker threads. A non-empty \p label becomes
  /// the reader's per-column cache-counter label
  /// (io.cache.hits{column="<label>"}).
  Status EnableSeekable(io::DecodedVectorCache* cache, std::string label = {});

  /// Non-null once EnableSeekable succeeded; decode goes through the chunked
  /// fetch → verify → open → decode path and the shared cache.
  const io::SeekableReader<double>* Seekable() const { return seekable_.get(); }

 private:
  StoredColumn() = default;

  std::string scheme_;
  size_t value_count_ = 0;
  size_t compressed_bytes_ = 0;

  std::vector<double> raw_;                        // kUncompressed.
  std::vector<uint8_t> alp_buffer_;                // kAlp.
  std::unique_ptr<ColumnReader<double>> alp_reader_;
  std::unique_ptr<codecs::DoubleCodec> codec_;     // kCodec.
  std::vector<std::vector<uint8_t>> codec_blocks_;

  // Out-of-core view over alp_buffer_ (EnableSeekable). shared_ptr because
  // that is what SeekableReader::Open returns; the MemorySource points at
  // alp_buffer_'s heap storage, which is stable across moves of this
  // StoredColumn (the class is move-only).
  std::shared_ptr<io::SeekableReader<double>> seekable_;
};

/// Per-worker, vector-at-a-time view of one StoredColumn: the one way the
/// engine operators and the server's aggregates read a column, whatever
/// its storage (in-memory ALP/ALP_rd, seekable ALP, Uncompressed, block
/// codec). Not thread-safe: each worker builds its own. The per-vector
/// calls are defined here so that in-memory vectors cost the operator loops
/// no call and no Status round trip.
class VectorSource {
 public:
  /// One vector: its values when they are already in memory (an
  /// Uncompressed slice, a slice of a decoded codec block, a seekable cache
  /// hit), otherwise the ColumnReader that owns it (the column's reader, or
  /// a seekable rowgroup's verified chunk) and its index there, for packed
  /// evaluation or Decode.
  struct Vector {
    const double* values = nullptr;
    const ColumnReader<double>* reader = nullptr;
    size_t local = 0;
    unsigned len = 0;
  };

  /// \p ctx is polled once per fetched vector of a seekable column (other
  /// storage does no I/O; the operators poll it per rowgroup morsel).
  explicit VectorSource(const StoredColumn& column,
                        const OpContext* ctx = nullptr);

  size_t vector_count() const {
    return (column_.value_count() + kVectorSize - 1) / kVectorSize;
  }

  /// Zone stats of vector \p v, from the ALP reader or the seekable index;
  /// null for Uncompressed and block-codec columns (no zone map).
  const VectorStats* Stats(size_t v) const {
    if (seekable_ != nullptr) return &seekable_->Stats(v);
    return reader_ != nullptr ? &reader_->Stats(v) : nullptr;
  }

  /// Starts vector \p v. A block-codec column decompresses v's rowgroup
  /// into an 800 KB buffer on first touch; a seekable column walks the
  /// rowgroup through one io::SeekableReader::RowgroupCursor (cache probe,
  /// then chunk fetch, verify and open on the first miss). *out stays
  /// valid until the next Fetch.
  Status Fetch(size_t v, Vector* out) {
    const size_t rg = v / kRowgroupVectors;
    const size_t local = v % kRowgroupVectors;
    *out = Vector{};
    out->len = static_cast<unsigned>(
        std::min<size_t>(kVectorSize, column_.value_count() - v * kVectorSize));
    if (raw_ != nullptr) {
      out->values = raw_ + v * kVectorSize;
    } else if (reader_ != nullptr) {
      out->reader = reader_;
      out->local = v;
    } else if (seekable_ != nullptr) {
      if (rg != rg_) {
        cursor_.emplace(*seekable_, rg, ctx_);
        rg_ = rg;
      }
      Status s = cursor_->Fetch(v, &out->values);
      if (!s.ok()) return s;
      if (out->values == nullptr) {
        out->reader = &cursor_->chunk();
        out->local = local;
      }
    } else {
      if (rg != rg_) {
        if (block_.empty()) block_ = AlignedBuffer<double>(kRowgroupSize);
        Status s = column_.DecodeRowgroup(rg, block_.data());
        if (!s.ok()) return s;
        rg_ = rg;
      }
      out->values = block_.data() + local * kVectorSize;
    }
    return Status::Ok();
  }

  /// Decodes a fetched vector that is not in memory into this source's
  /// 8 KB buffer and points out->values at it. A seekable miss is
  /// published to the decoded-vector cache unless \p publish is false.
  Status Decode(size_t v, Vector* out, bool publish = true) {
    if (out->values != nullptr) return Status::Ok();
    if (seekable_ != nullptr) {
      Status s = cursor_->Decode(v, buffer_.data(), publish);
      if (!s.ok()) return s;
    } else {
      out->reader->DecodeVector(out->local, buffer_.data());
    }
    out->values = buffer_.data();
    return Status::Ok();
  }

  /// Fetch, then Decode when needed: vector \p v's values in memory.
  Status Values(size_t v, Vector* out) {
    Status s = Fetch(v, out);
    return s.ok() ? Decode(v, out) : s;
  }

  /// Values, then copied into the 8 KB buffer if they are not there yet:
  /// SCAN's hand-off, which models the buffer-pool read of in-memory data.
  Status Materialize(size_t v, Vector* out);

 private:
  const StoredColumn& column_;
  const ColumnReader<double>* reader_;  ///< In-memory ALP only.
  const io::SeekableReader<double>* seekable_;
  const double* raw_;
  const OpContext* ctx_;
  size_t rg_ = ~size_t{0};  ///< Rowgroup held by cursor_ or block_.
  std::optional<io::SeekableReader<double>::RowgroupCursor> cursor_;
  AlignedBuffer<double> block_;  ///< Block codecs: one decoded rowgroup.
  AlignedBuffer<double> buffer_{kVectorSize};
};

}  // namespace alp::engine

#endif  // ALP_ENGINE_COLUMN_STORE_H_
