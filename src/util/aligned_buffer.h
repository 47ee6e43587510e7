#ifndef ALP_UTIL_ALIGNED_BUFFER_H_
#define ALP_UTIL_ALIGNED_BUFFER_H_

#include <cstddef>
#include <cstdlib>
#include <new>
#include <type_traits>
#include <utility>

/// \file aligned_buffer.h
/// A 64-byte-aligned heap array for decode destinations. The dispatched
/// SIMD kernels (alp/kernel_dispatch.h) store whole registers, so a
/// cache-line-aligned destination keeps every store within one line (and
/// the AVX2 int64 convert switches to aligned stores on it). Elements are
/// NOT value-initialized (decode targets are fully overwritten before
/// being read).

namespace alp {

template <typename T>
class AlignedBuffer {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_default_constructible_v<T>,
                "AlignedBuffer leaves elements uninitialized");

 public:
  static constexpr size_t kAlignment = 64;

  AlignedBuffer() = default;

  explicit AlignedBuffer(size_t n) : size_(n) {
    if (n == 0) return;
    // aligned_alloc requires the size to be a multiple of the alignment.
    const size_t bytes = (n * sizeof(T) + kAlignment - 1) / kAlignment * kAlignment;
    data_ = static_cast<T*>(std::aligned_alloc(kAlignment, bytes));
    if (data_ == nullptr) throw std::bad_alloc();
  }

  AlignedBuffer(const AlignedBuffer&) = delete;
  AlignedBuffer& operator=(const AlignedBuffer&) = delete;

  AlignedBuffer(AlignedBuffer&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}

  AlignedBuffer& operator=(AlignedBuffer&& other) noexcept {
    if (this != &other) {
      std::free(data_);
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }

  ~AlignedBuffer() { std::free(data_); }

  T* data() { return data_; }
  const T* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  T& operator[](size_t i) { return data_[i]; }
  const T& operator[](size_t i) const { return data_[i]; }

  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

 private:
  T* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace alp

#endif  // ALP_UTIL_ALIGNED_BUFFER_H_
