#ifndef ALP_UTIL_CANCELLATION_H_
#define ALP_UTIL_CANCELLATION_H_

#include <atomic>
#include <chrono>
#include <cstdint>

#include "util/status.h"

/// \file cancellation.h
/// Cooperative cancellation and deadlines for multi-rowgroup work.
///
/// A request that outlives its usefulness — the client went away, the
/// serving deadline passed — must stop *mid-flight*, not after decoding the
/// remaining hundred rowgroups. Since decode loops are pure compute, the
/// only way to stop them is cooperatively: the long-running entry points
/// (ColumnReader::TryDecode*, ValidateColumn*Ex, the engine scan operators)
/// accept an optional OpContext and poll it at vector/rowgroup boundaries.
///
/// Design points:
///  - An OpContext check is two relaxed loads (cancel flag + whether a
///    deadline exists) plus a steady_clock read only when a deadline is
///    actually set — cheap enough to run once per 1024-value vector.
///  - A null OpContext* means "not cancellable" and costs one branch; every
///    pre-existing call site passes null implicitly via the default
///    argument.
///  - Cancellation is a *request* outcome, not a data outcome: a decode
///    that observes cancellation returns kCancelled / kDeadlineExceeded and
///    its output buffer must be treated as garbage. The serving layer
///    (src/server/) publishes results only on OK, so partial output is
///    never visible to clients.

namespace alp {

/// Thread-safe one-way cancellation flag. The requester keeps the token and
/// calls Cancel(); workers poll cancelled() through an OpContext. Once set
/// the flag never clears (create a new token per request instead).
class CancelToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

/// A point on the steady clock by which work must finish. Default-constructed
/// deadlines are infinite (never expire, never read the clock).
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  Deadline() = default;  ///< Infinite.

  static Deadline Infinite() { return Deadline(); }

  /// Expires \p d from now; non-positive durations are already expired.
  static Deadline After(std::chrono::nanoseconds d) {
    return Deadline(Clock::now() + d);
  }

  static Deadline At(Clock::time_point when) { return Deadline(when); }

  bool infinite() const { return !armed_; }

  bool expired() const { return armed_ && Clock::now() >= when_; }

  /// Time left; zero when expired, a very large value when infinite.
  std::chrono::nanoseconds remaining() const {
    if (!armed_) return std::chrono::nanoseconds::max();
    const auto left = when_ - Clock::now();
    return left.count() > 0 ? std::chrono::duration_cast<std::chrono::nanoseconds>(left)
                            : std::chrono::nanoseconds::zero();
  }

 private:
  explicit Deadline(Clock::time_point when) : when_(when), armed_(true) {}

  Clock::time_point when_{};
  bool armed_ = false;
};

/// Everything a long-running operation needs to know about whether it
/// should keep going. Passed by pointer (null = run to completion) and
/// polled at vector / rowgroup checkpoints.
struct OpContext {
  const CancelToken* cancel = nullptr;
  Deadline deadline;

  /// OK to continue, or the Status the operation must return: cancellation
  /// wins over deadline expiry so both paths report deterministically when
  /// a caller cancels an already-late request.
  Status Check() const {
    if (cancel != nullptr && cancel->cancelled()) {
      return Status::Cancelled("operation cancelled");
    }
    if (deadline.expired()) {
      return Status::DeadlineExceeded("deadline exceeded");
    }
    return Status::Ok();
  }
};

}  // namespace alp

#endif  // ALP_UTIL_CANCELLATION_H_
