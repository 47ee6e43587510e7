#include "util/thread_pool.h"

#include <algorithm>
#include <cstdlib>

#include "obs/trace.h"
#include "util/cycle_clock.h"

namespace alp {

namespace {
// Worker attribution for telemetry: set once per worker thread, -1 on
// threads that do not belong to a pool.
thread_local int tl_worker_index = -1;
}  // namespace

int ThreadPool::CurrentWorkerIndex() { return tl_worker_index; }

unsigned ThreadPool::DefaultThreadCount() {
  if (const char* env = std::getenv("ALP_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<unsigned>(v);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool pool(DefaultThreadCount());
  return pool;
}

ThreadPool::ThreadPool(unsigned threads) {
  const unsigned count = threads == 0 ? DefaultThreadCount() : threads;
  queues_.resize(count);
  workers_.reserve(count);
  for (unsigned i = 0; i < count; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
  ALP_OBS_ONLY({
    obs::MetricRegistry::Global().GetGauge("pool.workers").Set(count);
  });
}

ThreadPool::~ThreadPool() { Shutdown(); }

void ThreadPool::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  // Workers drain every queued task before exiting (see WorkerLoop), so
  // joining here is the "drain" in drain-or-refuse. Second call: threads
  // are already joined and skipped.
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

std::exception_ptr ThreadPool::first_failure() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return first_failure_;
}

void ThreadPool::RecordFailure(std::exception_ptr err) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (first_failure_ == nullptr) first_failure_ = std::move(err);
}

bool ThreadPool::Submit(std::function<void()>* task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Refuse rather than enqueue into queues nobody will ever service
    // again: the one ordering where a task could previously vanish. The
    // caller still holds *task and runs it inline.
    if (shutdown_) return false;
    queues_[next_queue_].push_back(std::move(*task));
    next_queue_ = (next_queue_ + 1) % queues_.size();
    ++queued_;
    ALP_OBS_ONLY({
      static obs::Counter& submits =
          obs::MetricRegistry::Global().GetCounter("pool.submits");
      static obs::Gauge& depth =
          obs::MetricRegistry::Global().GetGauge("pool.queue_depth_max");
      submits.Increment();
      depth.UpdateMax(static_cast<int64_t>(queued_));
    });
  }
  work_cv_.notify_one();
  return true;
}

bool ThreadPool::TryTake(unsigned self, std::function<void()>* task) {
  if (!queues_[self].empty()) {
    *task = std::move(queues_[self].back());  // Own queue: LIFO.
    queues_[self].pop_back();
    --queued_;
    return true;
  }
  const unsigned n = static_cast<unsigned>(queues_.size());
  for (unsigned hop = 1; hop < n; ++hop) {
    auto& victim = queues_[(self + hop) % n];
    if (!victim.empty()) {
      *task = std::move(victim.front());  // Steal: FIFO.
      victim.pop_front();
      --queued_;
      ALP_OBS_ONLY({
        static obs::Counter& steals =
            obs::MetricRegistry::Global().GetCounter("pool.steals");
        steals.Increment();
      });
      return true;
    }
  }
  return false;
}

void ThreadPool::WorkerLoop(unsigned index) {
  tl_worker_index = static_cast<int>(index);
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      // Drain-before-exit: take work even when shutting down, so queued
      // tasks (and the TaskGroups waiting on them) always complete.
#if ALP_OBS
      const bool timing = obs::Enabled();
      const uint64_t idle_start = timing ? CycleNow() : 0;
#endif
      work_cv_.wait(lock, [&] { return TryTake(index, &task) || shutdown_; });
#if ALP_OBS
      if (timing) {
        static obs::Counter& idle =
            obs::MetricRegistry::Global().GetCounter("pool.idle_cycles");
        idle.Add(CycleNow() - idle_start);
      }
#endif
      if (!task) return;  // Shutdown with all queues drained.
    }
    ALP_OBS_ONLY({
      static obs::Counter& tasks =
          obs::MetricRegistry::Global().GetCounter("pool.tasks");
      tasks.Increment();
    });
    task();
  }
}

void ThreadPool::Run(const std::function<void(unsigned)>& fn) {
  ParallelFor(this, size(), [&fn](size_t i) { fn(static_cast<unsigned>(i)); });
}

void TaskGroup::Submit(std::function<void()> task) {
  if (pool_ == nullptr) {
    task();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++pending_;
  }
  std::function<void()> wrapped = [this, task = std::move(task)] {
    // Catch here, not in WorkerLoop: an escaping exception would skip the
    // pending_ decrement (hanging Wait) and then terminate the process.
    std::exception_ptr err;
    try {
      task();
    } catch (...) {
      err = std::current_exception();
    }
    if (err != nullptr) pool_->RecordFailure(err);
    // Notify under the lock: once pending_ hits 0 a waiter may destroy
    // this group the moment it reacquires the mutex, so the notification
    // must not touch members after unlocking.
    std::lock_guard<std::mutex> lock(mutex_);
    if (err != nullptr && failure_ == nullptr) failure_ = std::move(err);
    --pending_;
    done_cv_.notify_all();
  };
  if (!pool_->Submit(&wrapped)) {
    // Lost the race with Shutdown(): run on the submitting thread so the
    // task still executes exactly once and Wait() still returns.
    wrapped();
  }
}

void TaskGroup::Wait() {
  std::exception_ptr err;
  if (pool_ != nullptr) {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [this] { return pending_ == 0; });
    err = failure_;
    failure_ = nullptr;
  }
  if (err != nullptr) std::rethrow_exception(err);
}

void TaskGroup::WaitNoThrow() {
  if (pool_ == nullptr) return;
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [this] { return pending_ == 0; });
}

}  // namespace alp
