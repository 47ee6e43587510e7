#ifndef ALP_UTIL_THREAD_POOL_H_
#define ALP_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

/// \file thread_pool.h
/// A small work-stealing task pool for rowgroup-granular parallelism in the
/// column pipeline (CompressColumn, ColumnReader::Open and TryDecodeAll
/// given a pool) and the scaling benchmarks. Design points:
///
///  - Per-worker deques with the classic stealing discipline: an owner pops
///    its own queue LIFO (locality), a thief steals a victim's oldest task
///    FIFO (fairness). Tasks here are whole rowgroups — hundreds of
///    microseconds to milliseconds each — so queue operations are arbitrated
///    by one pool mutex rather than lock-free deques; at this granularity
///    the lock is invisible in profiles and the simple implementation is
///    easy to keep ThreadSanitizer-clean.
///
///  - Determinism is the caller's contract, not the pool's: tasks run in an
///    unspecified order on unspecified workers, so callers that promise
///    byte-identical output (the column pipeline does) must make each task
///    independent and stitch results by task index afterwards.
///
///  - TaskGroup tracks completion of the tasks *it* submitted, so several
///    callers can share one pool (e.g. concurrent readers decoding through
///    the shared pool) without waiting on each other's work.
///
///  - Shutdown is deterministic: workers drain every queued task before
///    exiting, and a submission that loses the race with shutdown is
///    *refused* (never silently dropped) — TaskGroup then runs the task
///    inline on the submitting thread, so TaskGroup::Wait always returns.
///    A task that throws does not take the process down: the first failure
///    is captured and rethrown from its group's Wait() (and recorded on the
///    pool for callers that only see the pool).
///
/// The default worker count honours the ALP_THREADS environment variable
/// (the CLI also exposes it as --threads); otherwise it is the hardware
/// concurrency.

namespace alp {

class TaskGroup;

/// Work-stealing pool of persistent worker threads.
class ThreadPool {
 public:
  /// Spawns \p threads workers; 0 means DefaultThreadCount().
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// SPMD fork-join entry point (the engine's query operators use this):
  /// runs fn(worker_index) once for every index in [0, size()), fanned out
  /// over the pool, and returns when all invocations are done. Indexes are
  /// unique per call, so callers can give each invocation a private slot in
  /// a partials array; which OS thread runs which index is unspecified.
  void Run(const std::function<void(unsigned)>& fn);

  /// Index of the calling pool-worker thread within its pool, or -1 when
  /// called from a thread that is not a pool worker. Used for worker
  /// attribution in telemetry.
  static int CurrentWorkerIndex();

  /// Worker count from ALP_THREADS (when set and positive), else
  /// std::thread::hardware_concurrency(), never less than 1.
  static unsigned DefaultThreadCount();

  /// Lazily-created process-wide pool with DefaultThreadCount() workers;
  /// the convenience default for the parallel column entry points.
  static ThreadPool& Shared();

  /// Stops accepting work, drains every already-queued task, and joins the
  /// workers. Idempotent; the destructor calls it. Must not be invoked
  /// concurrently with itself or from a pool worker.
  void Shutdown();

  /// First exception thrown by any task run on this pool (null when none).
  /// Sticky across groups — a diagnostic for "did anything ever fail here",
  /// not a per-request channel; per-request failures rethrow from
  /// TaskGroup::Wait.
  std::exception_ptr first_failure() const;

 private:
  friend class TaskGroup;

  /// Enqueues *task onto a worker deque (round-robin) and wakes a worker.
  /// Returns false — leaving *task untouched — when the pool is shutting
  /// down; the caller owns running or dropping it, so work is never
  /// silently lost to a teardown race.
  bool Submit(std::function<void()>* task);

  /// Records the first task failure (later ones are dropped).
  void RecordFailure(std::exception_ptr err);

  void WorkerLoop(unsigned index);

  /// Pops a task: own queue back first, then steals from victims' fronts,
  /// scanning from the next worker upward. Returns false when every queue
  /// is empty. Must be called with mutex_ held.
  bool TryTake(unsigned self, std::function<void()>* task);

  std::vector<std::thread> workers_;
  mutable std::mutex mutex_;
  std::condition_variable work_cv_;
  std::vector<std::deque<std::function<void()>>> queues_;
  size_t next_queue_ = 0;
  size_t queued_ = 0;  ///< Outstanding tasks across all queues (telemetry).
  bool shutdown_ = false;
  std::exception_ptr first_failure_;  ///< Guarded by mutex_.
};

/// Completion tracking for one batch of tasks submitted to a shared pool.
/// Not thread-safe itself: one thread submits and waits (the tasks, of
/// course, run concurrently).
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool* pool) : pool_(pool) {}
  ~TaskGroup() { WaitNoThrow(); }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Schedules \p task on the pool (runs inline when the group was built
  /// with a null pool — the serial fallback the column pipeline uses — or
  /// when the pool refuses work because it is shutting down).
  void Submit(std::function<void()> task);

  /// Blocks until every task submitted through this group has finished,
  /// then rethrows the first exception any of them threw (clearing it, so
  /// the group is reusable afterwards). Must not be called from a pool
  /// worker (a worker waiting on its own pool can deadlock).
  void Wait();

 private:
  /// Wait() minus the rethrow — what the destructor runs (destructors must
  /// not throw; the pool still keeps the failure in first_failure()).
  void WaitNoThrow();

  ThreadPool* pool_;
  std::mutex mutex_;
  std::condition_variable done_cv_;
  size_t pending_ = 0;
  std::exception_ptr failure_;  ///< First task failure; guarded by mutex_.
};

/// Runs fn(i) for every i in [0, n), fanned out over \p pool; returns when
/// all iterations are done. A null \p pool (or n <= 1) runs inline. The
/// iteration-to-worker assignment is unspecified; callers needing
/// deterministic results must make iterations independent.
template <typename Fn>
void ParallelFor(ThreadPool* pool, size_t n, const Fn& fn) {
  if (pool == nullptr || n <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  TaskGroup group(pool);
  for (size_t i = 0; i < n; ++i) {
    group.Submit([&fn, i] { fn(i); });
  }
  group.Wait();
}

}  // namespace alp

#endif  // ALP_UTIL_THREAD_POOL_H_
