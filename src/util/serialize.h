#ifndef ALP_UTIL_SERIALIZE_H_
#define ALP_UTIL_SERIALIZE_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

/// \file serialize.h
/// Tiny POD serialization helpers for the ALP column container format.
/// Values are stored in host byte order (the format is an in-memory /
/// same-machine format, like the paper's storage experiments); multi-byte
/// sections are kept 8-byte aligned so decoders can read packed words
/// directly from the buffer.
///
/// ByteReader is *checked in all build modes*: compressed buffers arrive
/// from disk/network and are untrusted, so a read past the end never
/// touches out-of-bounds memory — it zero-fills the destination, pins the
/// position, and latches a failure flag the caller inspects via ok().
/// (Previously the bound was a debug-only assert, i.e. silent OOB under
/// -DNDEBUG.) The single predictable branch costs nothing next to the
/// memcpy it guards.

namespace alp {

/// Growable byte buffer with aligned appends and patchable slots. Appends
/// copy their bytes in once (no zero-fill first); ReserveSlot and AlignTo
/// write zeros.
class ByteBuffer {
 public:
  /// Makes room for \p total_bytes without regrowing: a writer that knows
  /// its final size reserves it once.
  void Reserve(size_t total_bytes) { bytes_.reserve(total_bytes); }

  /// Appends one trivially-copyable value.
  template <typename T>
  void Append(const T& value) {
    AppendArray(&value, 1);
  }

  /// Appends \p count values from \p data.
  template <typename T>
  void AppendArray(const T* data, size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (count == 0) return;  // \p data may be null.
    const auto* first = reinterpret_cast<const uint8_t*>(data);
    bytes_.insert(bytes_.end(), first, first + count * sizeof(T));
  }

  /// Pads with zero bytes so the next append starts at a multiple of
  /// \p alignment.
  void AlignTo(size_t alignment) {
    const size_t rem = bytes_.size() % alignment;
    if (rem != 0) bytes_.resize(bytes_.size() + (alignment - rem), 0);
  }

  /// Reserves space for \p count values of T to be patched later; returns
  /// the byte offset of the slot.
  template <typename T>
  size_t ReserveSlot(size_t count = 1) {
    const size_t at = bytes_.size();
    bytes_.resize(at + count * sizeof(T), 0);
    return at;
  }

  /// Overwrites a previously reserved slot.
  template <typename T>
  void PatchAt(size_t offset, const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    assert(offset + sizeof(T) <= bytes_.size());
    std::memcpy(bytes_.data() + offset, &value, sizeof(T));
  }

  template <typename T>
  void PatchArrayAt(size_t offset, const T* data, size_t count) {
    if (count == 0) return;  // memcpy from a null source is UB even for 0.
    assert(offset + count * sizeof(T) <= bytes_.size());
    std::memcpy(bytes_.data() + offset, data, count * sizeof(T));
  }

  size_t size() const { return bytes_.size(); }
  const uint8_t* data() const { return bytes_.data(); }
  std::vector<uint8_t> Take() { return std::move(bytes_); }

 private:
  std::vector<uint8_t> bytes_;
};

/// Positioned, bounds-checked reader over a caller-owned byte buffer. Any
/// out-of-range access zero-fills the output and latches failed(); callers
/// on untrusted paths must check ok() before trusting what they read.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  template <typename T>
  T Read() {
    static_assert(std::is_trivially_copyable_v<T>);
    T value;
    if (!Require(sizeof(T))) {
      std::memset(&value, 0, sizeof(T));
      return value;
    }
    std::memcpy(&value, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  template <typename T>
  void ReadArray(T* out, size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (count == 0) return;  // memcpy on a null buffer is UB even for 0.
    if (!Require(count * sizeof(T))) {
      std::memset(out, 0, count * sizeof(T));
      return;
    }
    std::memcpy(out, data_ + pos_, count * sizeof(T));
    pos_ += count * sizeof(T);
  }

  /// Pointer to the current position without consuming; caller must ensure
  /// alignment when casting and stay within Remaining() bytes.
  const uint8_t* Here() const { return data_ + pos_; }

  void Skip(size_t n) {
    if (!Require(n)) {
      pos_ = size_;
      return;
    }
    pos_ += n;
  }

  void AlignTo(size_t alignment) {
    const size_t rem = pos_ % alignment;
    if (rem != 0) Skip(alignment - rem);
  }

  void SeekTo(size_t pos) {
    if (pos > size_) {
      failed_ = true;
      pos_ = size_;
      return;
    }
    pos_ = pos;
  }

  /// Whether the next \p n bytes are in bounds (does not latch failure).
  bool CanRead(size_t n) const { return n <= size_ - pos_; }

  size_t position() const { return pos_; }
  size_t size() const { return size_; }
  size_t Remaining() const { return size_ - pos_; }

  /// True while every access so far was in bounds.
  bool ok() const { return !failed_; }
  bool failed() const { return failed_; }

 private:
  /// Checks that \p n more bytes exist; latches failed() otherwise.
  bool Require(size_t n) {
    if (n > size_ - pos_) {  // pos_ <= size_ always holds.
      failed_ = true;
      return false;
    }
    return true;
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace alp

#endif  // ALP_UTIL_SERIALIZE_H_
