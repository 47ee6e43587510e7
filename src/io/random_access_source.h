#ifndef ALP_IO_RANDOM_ACCESS_SOURCE_H_
#define ALP_IO_RANDOM_ACCESS_SOURCE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "util/status.h"

/// \file random_access_source.h
/// Storage abstraction under the out-of-core column reader (seekable_reader.h).
/// A RandomAccessSource is a positional byte store: fixed size, stateless
/// ReadAt, safe to call from any number of threads concurrently. Two
/// implementations cover the deployment spectrum:
///
///  - MemorySource   — wraps an in-memory buffer (the serving catalog and
///                     tests; ReadAt is a memcpy).
///  - PreadSource    — ::pread on a file descriptor. Each chunk read costs a
///                     syscall but the process only ever holds the chunks it
///                     is touching, which is what lets a column 4x larger
///                     than the RSS budget scan to completion (the CI
///                     out-of-core job runs exactly that under `ulimit -v`).
///
/// There is no mmap source: a file truncated under a mapping raises SIGBUS
/// on the next touch, where pread returns a short read (kTruncated).
///
/// Error model: syscall failures surface as Status::Io with errno text;
/// reads beyond size() are Status::Truncated (the caller computed an extent
/// the store cannot satisfy — with a verified offset index that means the
/// file shrank after open).

namespace alp::io {

/// Thread-safe positional reader over immutable bytes.
class RandomAccessSource {
 public:
  virtual ~RandomAccessSource() = default;

  /// Copies exactly \p len bytes starting at \p offset into \p out.
  virtual Status ReadAt(uint64_t offset, size_t len, uint8_t* out) const = 0;

  /// Total addressable bytes.
  virtual uint64_t size() const = 0;

  /// Diagnostic name ("pread:/path", "memory").
  virtual const std::string& name() const = 0;
};

/// Source over caller-owned memory; the buffer must outlive the source.
class MemorySource final : public RandomAccessSource {
 public:
  MemorySource(const uint8_t* data, size_t size)
      : data_(data), size_(size), name_("memory") {}

  Status ReadAt(uint64_t offset, size_t len, uint8_t* out) const override;
  uint64_t size() const override { return size_; }
  const std::string& name() const override { return name_; }

 private:
  const uint8_t* data_;
  uint64_t size_;
  std::string name_;
};

/// pread(2)-based source: bounded address-space footprint, a syscall per
/// chunk. The fd is owned and closed on destruction; pread carries its own
/// offset so concurrent ReadAt calls never race on file position.
class PreadSource final : public RandomAccessSource {
 public:
  /// Opens \p path read-only (Status::Io on open/fstat failure).
  static StatusOr<std::shared_ptr<PreadSource>> Open(const std::string& path);

  ~PreadSource() override;
  PreadSource(const PreadSource&) = delete;
  PreadSource& operator=(const PreadSource&) = delete;

  Status ReadAt(uint64_t offset, size_t len, uint8_t* out) const override;
  uint64_t size() const override { return size_; }
  const std::string& name() const override { return name_; }

 private:
  PreadSource(int fd, uint64_t size, std::string name)
      : fd_(fd), size_(size), name_(std::move(name)) {}

  int fd_;
  uint64_t size_;
  std::string name_;
};

}  // namespace alp::io

#endif  // ALP_IO_RANDOM_ACCESS_SOURCE_H_
