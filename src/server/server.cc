#include "server/server.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "alp/constants.h"
#include "alp/kernel_dispatch.h"
#include "alp/predicate.h"
#include "alp/pushdown.h"
#include "engine/operators.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "util/fault_injection.h"

namespace alp::server {

namespace {

using Clock = std::chrono::steady_clock;

uint64_t ElapsedNs(Clock::time_point from, Clock::time_point to) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count());
}

size_t ClassIndex(QueryClass qc) { return static_cast<size_t>(qc); }

/// Bucket bounds for the per-class × per-tenant latency histograms, in
/// microseconds (queue + execution). Spans interactive lookups through
/// multi-second stalled scans.
std::vector<uint64_t> LatencyBoundsUs() {
  return {100,   200,   500,    1000,   2000,   5000,  10000,
          20000, 50000, 100000, 200000, 500000, 1000000};
}

#if ALP_OBS
/// Bucket bounds for the per-class queue-depth-at-admission histograms.
std::vector<uint64_t> QueueDepthBounds() {
  return {0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024};
}
#endif

}  // namespace

/// One admitted request waiting in (or popped from) a class queue. The
/// column is resolved at admission so a concurrent AddColumn replacing the
/// catalog entry cannot pull the data out from under a queued request.
struct Server::Pending {
  Request request;
  std::shared_ptr<const engine::StoredColumn> column;
  std::promise<Response> promise;
  Clock::time_point enqueued;
  /// Armed at admission when the server is recording; written by the
  /// submitting thread (admission annotations) then the executing worker —
  /// the queue hand-off sequences the two, honouring the recorder's
  /// single-writer contract.
  std::unique_ptr<obs::FlightRecorder> recorder;
};

Server::Server(ServerConfig config)
    : config_(config),
      worker_count_(config.workers == 0 ? ThreadPool::DefaultThreadCount()
                                        : config.workers),
      cache_(config.cache_bytes),
      admit_limit_(std::max<size_t>(1, config.queue_capacity)),
      pool_(worker_count_),
      workers_(&pool_) {
  config_.queue_capacity = std::max<size_t>(1, config_.queue_capacity);
  config_.slow_start_floor =
      std::clamp<size_t>(config_.slow_start_floor, 1, config_.queue_capacity);
  // Injected faults (including stall-only stalls, which return OK) report
  // to the flight recorder of whichever request is executing on the firing
  // thread — that is what lets a slow-query dump name the fault site.
  obs::InstallFlightFaultObserver();
  if (!config_.slow_log_path.empty()) {
    // Truncate: each server run owns its slow-query log. fopen failure is
    // non-fatal (the server still serves; dumps surface in flight_json).
    slow_log_ = std::fopen(config_.slow_log_path.c_str(), "wb");
  }
  if (config_.snapshot_period_ms > 0 && !config_.snapshot_path.empty()) {
    snapshot_thread_ = std::thread([this] { SnapshotLoop(); });
  }
  // The worker loops are long-lived tasks occupying every pool worker; the
  // pool's round-robin placement gives each worker exactly one loop.
  for (unsigned i = 0; i < worker_count_; ++i) {
    workers_.Submit([this] { WorkerLoop(); });
  }
}

Server::~Server() { Shutdown(); }

bool Server::RecorderArmed() const {
  return config_.flight_recorder || config_.slow_query_us > 0 ||
         slow_log_ != nullptr;
}

obs::Histogram& Server::LatencyHistogramLocked(QueryClass qc,
                                               const std::string& tenant) {
  std::string key = QueryClassName(qc);
  key += '|';
  key += tenant;
  auto it = latency_histograms_.find(key);
  if (it == latency_histograms_.end()) {
    obs::Histogram& histogram = obs::MetricRegistry::Global().GetHistogram(
        obs::LabeledName("server.latency_us",
                         {{"class", QueryClassName(qc)}, {"tenant", tenant}}),
        LatencyBoundsUs(), "us");
    it = latency_histograms_.emplace(std::move(key), &histogram).first;
  }
  return *it->second;
}

void Server::AppendSlowLog(const std::string& line) {
  if (slow_log_ == nullptr) return;
  std::lock_guard<std::mutex> lock(slow_log_mutex_);
  std::fwrite(line.data(), 1, line.size(), slow_log_);
  std::fputc('\n', slow_log_);
  // Flush per dump: dumps are rare by design, and a crashed or SIGKILLed
  // run must still leave the lines it wrote.
  std::fflush(slow_log_);
}

void Server::SnapshotLoop() {
  // A failed write (disk full, directory gone) has no caller to return to on
  // this thread: it is counted, and the next period writes again.
  const auto write_snapshot = [this] {
    const Status written = obs::WriteTextFile(
        config_.snapshot_path,
        obs::PrometheusText(obs::MetricRegistry::Global().Snapshot()),
        /*atomic=*/true);
    if (written.ok()) return;
    ALP_OBS_ONLY({
      static obs::Counter& failed =
          obs::MetricRegistry::Global().GetCounter("server.snapshot_write_failed");
      failed.Increment();
    });
  };
  const auto period = std::chrono::milliseconds(config_.snapshot_period_ms);
  std::unique_lock<std::mutex> lock(snapshot_mutex_);
  while (!snapshot_stop_) {
    snapshot_cv_.wait_for(lock, period, [this] { return snapshot_stop_; });
    if (snapshot_stop_) break;
    lock.unlock();
    write_snapshot();
    lock.lock();
  }
  lock.unlock();
  // Final snapshot at shutdown: servers shorter-lived than one period still
  // leave an artifact, and the last one reflects the complete run.
  write_snapshot();
}

Status Server::AddColumn(const std::string& name, const double* data,
                         size_t n) {
  return AddColumn(name, engine::StoredColumn::MakeAlp(data, n));
}

Status Server::AddColumn(const std::string& name,
                         engine::StoredColumn column) {
  if (column.AlpReader() == nullptr) {
    return Status::Corrupt("server catalog requires ALP columns");
  }
  // Every catalog column serves through the out-of-core reader: chunked,
  // checksum-verified reads sharing one decoded-vector cache. A capacity-0
  // cache (cache_bytes = 0) keeps the chunked path but caches nothing.
  Status seekable = column.EnableSeekable(&cache_, name);
  if (!seekable.ok()) return seekable;
  auto shared =
      std::make_shared<const engine::StoredColumn>(std::move(column));
  std::lock_guard<std::mutex> lock(mutex_);
  if (shutdown_) return Status::ResourceExhausted("server shutting down");
  catalog_[name] = std::move(shared);
  return Status::Ok();
}

Status Server::AdmitLocked(
    const Request& request,
    std::shared_ptr<const engine::StoredColumn>* column) {
  if (shutdown_) {
    ++stats_.shed_shutdown;
    return Status::ResourceExhausted("server shutting down");
  }
  // Never queue work that is already dead: a request whose deadline passed
  // (or whose caller cancelled) before admission would only waste a worker
  // discovering that later.
  if (request.cancel != nullptr && request.cancel->cancelled()) {
    ++stats_.cancelled;
    return Status::Cancelled("operation cancelled");
  }
  if (request.deadline.expired()) {
    ++stats_.deadline_missed;
    return Status::DeadlineExceeded("deadline exceeded");
  }
  auto it = catalog_.find(request.column);
  if (it == catalog_.end()) {
    ++stats_.not_found;
    return Status::NotFound("unknown column: " + request.column);
  }
  if (config_.tenant_quota > 0) {
    auto tenant_it = tenant_load_.find(request.tenant);
    const unsigned load =
        tenant_it == tenant_load_.end() ? 0 : tenant_it->second;
    if (load >= config_.tenant_quota) {
      ++stats_.shed_tenant;
      return Status::ResourceExhausted("tenant over concurrency quota: " +
                                       request.tenant);
    }
  }
  // Class shedding: each class only admits while the queue is below its
  // fraction of the current limit, so the heaviest class sheds first.
  const size_t ci = ClassIndex(request.query_class);
  const double fraction = std::clamp(config_.shed_fraction[ci], 0.0, 1.0);
  const size_t class_limit =
      static_cast<size_t>(fraction * static_cast<double>(admit_limit_));
  if (class_limit < admit_limit_ && queued_ >= class_limit) {
    ++stats_.shed_class;
    return Status::ResourceExhausted(
        std::string("load shed: ") + QueryClassName(request.query_class) +
        " class");
  }
  if (queued_ >= admit_limit_) {
    ++stats_.shed_queue_full;
    // Overflow: slow-start. Collapse to the floor; completions re-open the
    // limit one request at a time (see WorkerLoop).
    admit_limit_ = config_.slow_start_floor;
    return Status::ResourceExhausted("request queue full");
  }
  *column = it->second;
  return Status::Ok();
}

std::future<Response> Server::Submit(Request request) {
  auto pending = std::make_unique<Pending>();
  std::future<Response> future = pending->promise.get_future();
  pending->enqueued = Clock::now();
  if (request.trace_id == 0) request.trace_id = obs::NewTraceId();
  const uint64_t trace_id = request.trace_id;

  Status admitted;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.submitted;
    admitted = AdmitLocked(request, &pending->column);
    if (admitted.ok()) {
      ++stats_.admitted;
      const unsigned tenant_load = ++tenant_load_[request.tenant];
      pending->request = std::move(request);
      const size_t ci = ClassIndex(pending->request.query_class);
      if (RecorderArmed()) {
        pending->recorder = std::make_unique<obs::FlightRecorder>();
        // The tenant label points into the Pending-owned request string,
        // which outlives the recorder.
        pending->recorder->Reset(trace_id,
                                 QueryClassName(pending->request.query_class),
                                 pending->request.tenant.c_str());
        // Admission snapshot: the queue/shed state this request saw, so a
        // dump explains whether its latency was queueing or execution.
        pending->recorder->Annotate("admit.queue_depth", queued_);
        pending->recorder->Annotate("admit.limit", admit_limit_);
        pending->recorder->Annotate("admit.tenant_load", tenant_load);
      }
      queues_[ci].push_back(std::move(pending));
      ++queued_;
      stats_.max_queue_depth =
          std::max<uint64_t>(stats_.max_queue_depth, queued_);
      ALP_OBS_ONLY({
        static obs::Gauge& depth =
            obs::MetricRegistry::Global().GetGauge("server.queue_depth_max");
        depth.UpdateMax(static_cast<int64_t>(queued_));
        if (obs::Enabled()) {
          static obs::Histogram* class_depth[kQueryClassCount] = {
              &obs::MetricRegistry::Global().GetHistogram(
                  obs::LabeledName("server.queue_depth",
                                   {{"class", QueryClassName(
                                                  QueryClass::kPointLookup)}}),
                  QueueDepthBounds(), "requests"),
              &obs::MetricRegistry::Global().GetHistogram(
                  obs::LabeledName(
                      "server.queue_depth",
                      {{"class", QueryClassName(QueryClass::kAggregate)}}),
                  QueueDepthBounds(), "requests"),
              &obs::MetricRegistry::Global().GetHistogram(
                  obs::LabeledName(
                      "server.queue_depth",
                      {{"class", QueryClassName(QueryClass::kScan)}}),
                  QueueDepthBounds(), "requests"),
          };
          class_depth[ci]->Record(queued_);
        }
      });
    } else {
      ALP_OBS_ONLY({
        static obs::Counter& shed =
            obs::MetricRegistry::Global().GetCounter("server.rejected");
        shed.Increment();
      });
    }
  }
  if (!admitted.ok()) {
    Response response;
    response.status = std::move(admitted);
    response.query_class = request.query_class;
    response.trace_id = trace_id;
    pending->promise.set_value(std::move(response));
    return future;
  }
  work_cv_.notify_one();
  return future;
}

Response Server::Execute(Request request) {
  return Submit(std::move(request)).get();
}

void Server::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    work_cv_.wait(lock, [this] { return shutdown_ || queued_ > 0; });
    if (queued_ == 0) {
      if (shutdown_) return;
      continue;  // Spurious wake between notify and another worker's pop.
    }
    // Service priority = QueryClass order: point lookups drain before
    // aggregates, aggregates before scans.
    std::unique_ptr<Pending> pending;
    for (auto& queue : queues_) {
      if (!queue.empty()) {
        pending = std::move(queue.front());
        queue.pop_front();
        break;
      }
    }
    --queued_;
    lock.unlock();

    const Clock::time_point started = Clock::now();
    obs::FlightRecorder* recorder = pending->recorder.get();
    // The request context rides OpContext through every layer below; the
    // ambient attribution covers instrumentation (spans, fault fires, trace
    // rings) that has no OpContext in scope.
    obs::RequestContext request_ctx;
    request_ctx.trace_id = pending->request.trace_id;
    request_ctx.query_class = QueryClassName(pending->request.query_class);
    request_ctx.tenant = pending->request.tenant.c_str();
    request_ctx.recorder = recorder;
    OpContext ctx;
    ctx.cancel = pending->request.cancel;
    ctx.deadline = pending->request.deadline;
    ctx.request = &request_ctx;

    Response response;
    {
      obs::ScopedRequestAttribution attribution(request_ctx.trace_id,
                                                recorder);
      ALP_OBS_SPAN(request_span, "server.request", 1);
      // The request's one hardware-counter sample, over the whole execute
      // (two group reads, when counters exist), so a slow-query dump names
      // its IPC and miss rate without per-span perf being enabled.
      obs::PerfScope perf;
      if (recorder != nullptr) perf.Arm();
      response = ExecuteOnColumn(pending->request, *pending->column, ctx);
      if (recorder != nullptr) recorder->AddPerf(perf.Finish());
    }
    response.query_class = pending->request.query_class;
    response.trace_id = pending->request.trace_id;
    response.queue_ns = ElapsedNs(pending->enqueued, started);
    response.exec_ns = ElapsedNs(started, Clock::now());

    // Dump policy: a request dumps its flight recorder when it is slow
    // (queue + exec over the threshold), failed in any way, or tripped an
    // armed fault site (stall-only stalls included — they return OK but are
    // exactly the "why was this slow" evidence the dump exists for). Fast
    // clean requests drop the recorder for free.
    const uint64_t total_us =
        (response.queue_ns + response.exec_ns) / 1000;
    const bool slow =
        config_.slow_query_us > 0 && total_us >= config_.slow_query_us;
    bool dumped = false;
    if (recorder != nullptr) {
      const bool error = !response.status.ok();
      const bool faulted = recorder->FaultFires() > 0;
      if (slow || error || faulted) {
        recorder->SetOutcome(response.status, response.queue_ns,
                             response.exec_ns);
        recorder->Label("kernel_tier", kernels::ActiveTierName());
        const StatusCode sc = response.status.code();
        recorder->Label("dump_reason",
                        sc == StatusCode::kCancelled          ? "cancelled"
                        : sc == StatusCode::kDeadlineExceeded ? "deadline"
                        : error                               ? "error"
                        : slow                                ? "slow"
                                                              : "fault");
        response.flight_json = recorder->ToJson();
        AppendSlowLog(response.flight_json);
        dumped = true;
      }
    }

    const StatusCode code = response.status.code();
    pending->promise.set_value(std::move(response));

    lock.lock();
    // Completion accounting + slow-start additive increase.
    auto tenant_it = tenant_load_.find(pending->request.tenant);
    if (tenant_it != tenant_load_.end() && --tenant_it->second == 0) {
      tenant_load_.erase(tenant_it);
    }
    admit_limit_ = std::min(config_.queue_capacity, admit_limit_ + 1);
    switch (code) {
      case StatusCode::kOk: ++stats_.completed; break;
      case StatusCode::kCancelled: ++stats_.cancelled; break;
      case StatusCode::kDeadlineExceeded: ++stats_.deadline_missed; break;
      default: ++stats_.failed; break;
    }
    if (slow) ++stats_.slow_queries;
    if (dumped) ++stats_.flight_dumps;
    ALP_OBS_ONLY({
      static obs::Counter& done =
          obs::MetricRegistry::Global().GetCounter("server.requests");
      done.Increment();
      // Labeled latency dimension. The handle cache keeps this to one map
      // lookup under the mutex the completion path already holds, so the
      // registry's lock-free recording path is untouched; skipped entirely
      // while recording is off (no per-request key allocation).
      if (obs::Enabled()) {
        LatencyHistogramLocked(pending->request.query_class,
                               pending->request.tenant)
            .Record(total_us);
      }
    });
    pending.reset();
  }
}

Response Server::ExecuteOnColumn(const Request& request,
                                 const engine::StoredColumn& column,
                                 const OpContext& ctx) {
  Response response;
  response.status = ctx.Check();
  if (!response.status.ok()) return response;
  // The "I/O tier" fault site: a stall here models a slow storage read in
  // front of the decode, an error models a failed one.
  response.status = fault::Check("server.request_io");
  if (!response.status.ok()) return response;

  // Every catalog column executes through the out-of-core SeekableReader:
  // chunk fetch → checksum verify → structural open → bounds-checked decode,
  // with hot decoded vectors served from the shared cache (when the server
  // was configured with a cache budget).
  const io::SeekableReader<double>* seekable = column.Seekable();
  if (seekable == nullptr) {
    // AddColumn rejects non-ALP columns and fails on EnableSeekable errors,
    // so this is an internal invariant.
    response.status = Status::Corrupt("catalog column has no seekable reader");
    return response;
  }

  // All results below are staged in locals and published into the Response
  // only when the full decode came back OK — a cancelled, deadline-missed
  // or faulted request returns nothing but its Status.
  switch (request.query_class) {
    case QueryClass::kPointLookup: {
      if (request.vector_index >= seekable->vector_count()) {
        response.status = Status::NotFound("vector index out of range");
        return response;
      }
      alignas(64) double buffer[kVectorSize];
      response.status =
          seekable->TryDecodeVector(request.vector_index, buffer, &ctx);
      if (!response.status.ok()) return response;
      const unsigned len = seekable->VectorLength(request.vector_index);
      response.values.assign(buffer, buffer + len);
      response.sum = pushdown::StripedSumAll(buffer, len);
      response.tuples = len;
      return response;
    }
    case QueryClass::kAggregate: {
      // The engine's per-rowgroup SUM and FILTER-SUM bodies, driven
      // rowgroup by rowgroup on this thread. The source polls ctx once per
      // fetched vector; this loop once per rowgroup, like RunParallel.
      engine::VectorSource source(column, &ctx);
      const TranslatedPredicate tp(
          Predicate::Between(request.filter_lo, request.filter_hi));
      pushdown::VectorCounters counters;
      double sum = 0.0;
      for (size_t rg = 0; rg < column.rowgroup_count(); ++rg) {
        response.status = ctx.Check();
        if (!response.status.ok()) return response;
        if (request.has_filter) {
          // One running sum across the column: every vector's survivor sum
          // is added straight into it, in index order.
          response.status = engine::RowgroupFilterSum(
              source, rg, tp, engine::FilterMode::kAuto, &sum, &counters);
        } else {
          // Rowgroup partials, as in engine::RunSum on one worker.
          double partial = 0.0;
          response.status = engine::RowgroupSum(source, rg, &partial);
          sum += partial;
        }
        if (!response.status.ok()) return response;
      }
      response.sum = sum;
      response.tuples = column.value_count();
      if (request.has_filter) {
        response.vectors_skipped = counters.skipped;
        response.vectors_packed_eval = counters.packed_eval;
        // `tuples` counts the values in vectors that passed the zone map;
        // every vector but the last is full.
        const size_t vectors = seekable->vector_count();
        response.tuples = (vectors - counters.skipped) * kVectorSize;
        if (vectors > 0 && seekable->VectorMayContain(vectors - 1,
                                                      request.filter_lo,
                                                      request.filter_hi)) {
          response.tuples -= kVectorSize - seekable->VectorLength(vectors - 1);
        }
      }
      return response;
    }
    case QueryClass::kScan: {
      // Same hand-off checksum as the engine's scan operator: touch one
      // value per vector, in vector order, so the decode is consumed. The
      // decoded column is only materialized when the caller asked for it.
      double checksum = 0.0;
      std::vector<double> values;
      if (request.return_values) values.reserve(seekable->value_count());
      response.status = seekable->Scan(
          [&](size_t, const double* vec, unsigned len) {
            checksum += vec[0];
            if (request.return_values) {
              values.insert(values.end(), vec, vec + len);
            }
            return Status::Ok();
          },
          &ctx);
      if (!response.status.ok()) return response;
      response.sum = checksum;
      response.tuples = seekable->value_count();
      response.values = std::move(values);
      return response;
    }
  }
  response.status = Status::Corrupt("unknown query class");
  return response;
}

void Server::Shutdown() {
  std::vector<std::unique_ptr<Pending>> orphans;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!shutdown_) {
      shutdown_ = true;
      // Deterministic drain: every queued request resolves with a typed
      // rejection instead of hanging its future forever.
      for (auto& queue : queues_) {
        for (auto& pending : queue) orphans.push_back(std::move(pending));
        queue.clear();
      }
      queued_ = 0;
      for (auto& pending : orphans) {
        auto tenant_it = tenant_load_.find(pending->request.tenant);
        if (tenant_it != tenant_load_.end() && --tenant_it->second == 0) {
          tenant_load_.erase(tenant_it);
        }
        ++stats_.shed_shutdown;
      }
    }
  }
  work_cv_.notify_all();
  for (auto& pending : orphans) {
    Response response;
    response.status = Status::ResourceExhausted("server shutting down");
    response.query_class = pending->request.query_class;
    response.trace_id = pending->request.trace_id;
    pending->promise.set_value(std::move(response));
  }
  workers_.Wait();
  pool_.Shutdown();
  if (snapshot_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(snapshot_mutex_);
      snapshot_stop_ = true;
    }
    snapshot_cv_.notify_all();
    snapshot_thread_.join();
  }
  if (slow_log_ != nullptr) {
    std::lock_guard<std::mutex> lock(slow_log_mutex_);
    std::fclose(slow_log_);
    slow_log_ = nullptr;
  }
}

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ServerStats snapshot = stats_;
  snapshot.admit_limit = admit_limit_;
  return snapshot;
}

}  // namespace alp::server
