#ifndef ALP_UTIL_STATUS_H_
#define ALP_UTIL_STATUS_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <new>
#include <string>
#include <string_view>
#include <utility>

/// \file status.h
/// Typed error substrate for every fallible decode path in the repository.
/// Compressed buffers arrive from disk and the network and must be treated
/// as untrusted: instead of debug-only asserts, readers return an
/// alp::Status (or alp::StatusOr<T>) that carries an error class plus
/// enough context (message, byte offset) to diagnose which input byte was
/// at fault. Modeled on the absl::Status idiom, kept dependency-free.

namespace alp {

/// Error classes for untrusted-input handling and request serving. The
/// serving layer (src/server/) adds runtime-condition classes to the format
/// classes: a request can fail because its bytes are bad (kTruncated...kIo)
/// or because the system declined or abandoned the work (kCancelled...
/// kNotFound). The CLI maps every code to a distinct exit code (see
/// tools/alp_cli.cc).
enum class StatusCode : uint8_t {
  kOk = 0,
  kTruncated,           ///< Buffer ends before a declared section.
  kCorrupt,             ///< A field violates a format invariant.
  kChecksumMismatch,    ///< Payload bytes do not match their checksum.
  kUnsupportedVersion,  ///< Recognized container, unknown version.
  kIo,                  ///< Filesystem / OS-level failure.
  kCancelled,           ///< Caller cancelled the operation mid-flight.
  kDeadlineExceeded,    ///< The operation outlived its deadline.
  kResourceExhausted,   ///< Admission control declined the work (queue full,
                        ///< tenant quota, load shed, shutdown).
  kNotFound,            ///< A named entity (catalog column) does not exist.
  kInvalidArgument,     ///< Caller misuse: the request cannot apply to the
                        ///< target (e.g. a compressed-domain double
                        ///< predicate aimed at a float column).
};

/// Human-readable name of a status code.
constexpr std::string_view StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kTruncated: return "TRUNCATED";
    case StatusCode::kCorrupt: return "CORRUPT";
    case StatusCode::kChecksumMismatch: return "CHECKSUM_MISMATCH";
    case StatusCode::kUnsupportedVersion: return "UNSUPPORTED_VERSION";
    case StatusCode::kIo: return "IO";
    case StatusCode::kCancelled: return "CANCELLED";
    case StatusCode::kDeadlineExceeded: return "DEADLINE_EXCEEDED";
    case StatusCode::kResourceExhausted: return "RESOURCE_EXHAUSTED";
    case StatusCode::kNotFound: return "NOT_FOUND";
    case StatusCode::kInvalidArgument: return "INVALID_ARGUMENT";
  }
  return "UNKNOWN";
}

/// A cheap, value-semantic error descriptor. The OK status carries no
/// allocation; error statuses hold a message and an optional byte offset
/// into the offending buffer (kNoOffset when not applicable). [[nodiscard]],
/// like StatusOr: the build sets -Werror=unused-result, so a caller that
/// drops one does not compile.
class [[nodiscard]] Status {
 public:
  static constexpr uint64_t kNoOffset = ~uint64_t{0};

  Status() = default;  ///< OK.

  Status(StatusCode code, std::string message, uint64_t offset = kNoOffset)
      : code_(code), offset_(offset), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status Truncated(std::string message, uint64_t offset = kNoOffset) {
    return Status(StatusCode::kTruncated, std::move(message), offset);
  }
  static Status Corrupt(std::string message, uint64_t offset = kNoOffset) {
    return Status(StatusCode::kCorrupt, std::move(message), offset);
  }
  static Status ChecksumMismatch(std::string message,
                                 uint64_t offset = kNoOffset) {
    return Status(StatusCode::kChecksumMismatch, std::move(message), offset);
  }
  static Status UnsupportedVersion(std::string message,
                                   uint64_t offset = kNoOffset) {
    return Status(StatusCode::kUnsupportedVersion, std::move(message), offset);
  }
  static Status Io(std::string message) {
    return Status(StatusCode::kIo, std::move(message));
  }
  static Status Cancelled(std::string message) {
    return Status(StatusCode::kCancelled, std::move(message));
  }
  static Status DeadlineExceeded(std::string message) {
    return Status(StatusCode::kDeadlineExceeded, std::move(message));
  }
  static Status ResourceExhausted(std::string message) {
    return Status(StatusCode::kResourceExhausted, std::move(message));
  }
  static Status NotFound(std::string message) {
    return Status(StatusCode::kNotFound, std::move(message));
  }
  static Status InvalidArgument(std::string message) {
    return Status(StatusCode::kInvalidArgument, std::move(message));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }
  uint64_t offset() const { return offset_; }

  /// "CORRUPT: packed width out of range (offset 1032)".
  std::string ToString() const {
    if (ok()) return "OK";
    std::string s(StatusCodeName(code_));
    if (!message_.empty()) {
      s += ": ";
      s += message_;
    }
    if (offset_ != kNoOffset) {
      s += " (offset ";
      s += std::to_string(offset_);
      s += ")";
    }
    return s;
  }

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  uint64_t offset_ = kNoOffset;
  std::string message_;
};

/// A Status or a value of type T: the return type of fallible constructors
/// such as ColumnReader<T>::Open. Accessing value() on an error is a
/// programming bug and asserts (it never reads uninitialized storage in
/// release builds either; it returns the error-state reference only after
/// the assert, so callers must check ok() first).
template <typename T>
class [[nodiscard]] StatusOr {
 public:
  StatusOr(Status status) : status_(std::move(status)) {  // NOLINT(runtime/explicit)
    assert(!status_.ok() && "OK StatusOr must carry a value");
    if (status_.ok()) status_ = Status::Corrupt("OK StatusOr without a value");
  }

  StatusOr(T value) : has_value_(true) {  // NOLINT(runtime/explicit)
    new (&storage_) T(std::move(value));
  }

  StatusOr(StatusOr&& other) noexcept
      : status_(std::move(other.status_)), has_value_(other.has_value_) {
    if (has_value_) new (&storage_) T(std::move(other.value()));
  }

  StatusOr& operator=(StatusOr&& other) noexcept {
    if (this != &other) {
      Destroy();
      status_ = std::move(other.status_);
      has_value_ = other.has_value_;
      if (has_value_) new (&storage_) T(std::move(other.value()));
    }
    return *this;
  }

  StatusOr(const StatusOr& other)
      : status_(other.status_), has_value_(other.has_value_) {
    if (has_value_) new (&storage_) T(other.value());
  }

  StatusOr& operator=(const StatusOr& other) {
    if (this != &other) {
      Destroy();
      status_ = other.status_;
      has_value_ = other.has_value_;
      if (has_value_) new (&storage_) T(other.value());
    }
    return *this;
  }

  ~StatusOr() { Destroy(); }

  bool ok() const { return has_value_; }
  const Status& status() const { return status_; }

  T& value() {
    assert(has_value_);
    return *std::launder(reinterpret_cast<T*>(&storage_));
  }
  const T& value() const {
    assert(has_value_);
    return *std::launder(reinterpret_cast<const T*>(&storage_));
  }

  T& operator*() { return value(); }
  const T& operator*() const { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  void Destroy() {
    if (has_value_) {
      value().~T();
      has_value_ = false;
    }
  }

  Status status_;
  bool has_value_ = false;
  alignas(T) unsigned char storage_[sizeof(T)];
};

}  // namespace alp

#endif  // ALP_UTIL_STATUS_H_
