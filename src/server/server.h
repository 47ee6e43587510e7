#ifndef ALP_SERVER_SERVER_H_
#define ALP_SERVER_SERVER_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/column_store.h"
#include "io/decoded_vector_cache.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "util/cancellation.h"
#include "util/status.h"
#include "util/thread_pool.h"

/// \file server.h
/// alp::server::Server — the embeddable concurrent serving layer over the
/// engine: admits scan / aggregate / point-lookup requests against a shared
/// catalog of compressed columns and executes them on a bounded worker
/// fleet. The design goal is *graceful degradation*: under overload the
/// server rejects with a typed Status at admission time instead of letting
/// queues (and memory, and tail latency) grow without bound.
///
/// Admission pipeline, in order (all under one mutex, constant-time):
///   1. shutdown            → kResourceExhausted
///   2. deadline already hit → kDeadlineExceeded (never queued just to die)
///   3. unknown column      → kNotFound
///   4. tenant over quota   → kResourceExhausted (per-tenant in-flight cap)
///   5. class shed          → kResourceExhausted (see below)
///   6. queue at admit limit → kResourceExhausted + slow-start backoff
///
/// Load shedding by query class: each class admits only while the queue
/// depth is below its fraction of the current admit limit (defaults: point
/// lookups 1.0, aggregates 0.75, scans 0.5). As pressure builds, the
/// heaviest class is turned away first — cheap interactive lookups keep
/// flowing while bulk scans shed.
///
/// Slow-start after overload: hitting the admit limit collapses it to
/// `slow_start_floor`; every completed request raises it again by one (up
/// to `queue_capacity`). After a burst the server re-opens gradually
/// instead of oscillating between full-open and overflow.
///
/// Execution: workers run as long-lived loop tasks on an owned
/// alp::ThreadPool, popping the highest-priority non-empty class queue.
/// Each request decodes through the fallible ColumnReader paths with its
/// OpContext threaded through, so cancellation / deadline expiry stops
/// multi-rowgroup work mid-flight. Results are staged in worker-local
/// buffers and published into the Response only when the decode Status is
/// OK — a request that fails or is cancelled never exposes partial output.
/// Requests never run *on top of* the engine's data-parallel operators
/// (that would nest fork-join inside the serving pool and deadlock);
/// parallelism here is across requests, which is what a serving tier wants.

namespace alp::server {

/// Request classes, in service-priority order (lower = served first, shed
/// last). The shed policy is indexed by this enum.
enum class QueryClass : uint8_t {
  kPointLookup = 0,  ///< Decode one named vector (1024 values).
  kAggregate = 1,    ///< SUM over the column, optional zone-map filter.
  kScan = 2,         ///< Full decode; checksum returned (values optional).
};
inline constexpr size_t kQueryClassCount = 3;

constexpr const char* QueryClassName(QueryClass qc) {
  switch (qc) {
    case QueryClass::kPointLookup: return "point_lookup";
    case QueryClass::kAggregate: return "aggregate";
    case QueryClass::kScan: return "scan";
  }
  return "unknown";
}

/// Every member has a default initializer, so designated initializers may
/// name any subset of them.
struct ServerConfig {
  unsigned workers = 0;        ///< 0 = ThreadPool::DefaultThreadCount().
  size_t queue_capacity = 256; ///< Hard bound on queued requests (all classes).
  unsigned tenant_quota = 0;   ///< Max queued+running per tenant; 0 = off.
  /// Admit fraction of the current limit per class, indexed by QueryClass.
  double shed_fraction[kQueryClassCount] = {1.0, 0.75, 0.5};
  size_t slow_start_floor = 8; ///< Admit limit right after an overflow.
  /// Byte budget for the decoded-vector cache shared across the whole
  /// catalog (the CLI's --catalog-bytes-limit). 0 disables caching: every
  /// request decodes from the compressed chunks. Catalog columns always
  /// execute through the out-of-core SeekableReader either way.
  size_t cache_bytes = 0;

  // --- request-scoped observability (see docs/OBSERVABILITY.md) ----------

  /// Slow-query threshold in microseconds over queue + execution time. A
  /// request at or above it dumps its flight recorder even when it
  /// succeeded. 0 = no threshold. Setting it arms the recorder.
  uint64_t slow_query_us = 0;
  /// Slow-query log: flight-recorder dumps are appended as JSON lines to
  /// this path (truncated at construction). Empty = dumps only surface in
  /// Response::flight_json. Setting it arms the recorder.
  std::string slow_log_path{};
  /// Arm a flight recorder for every request even without a threshold or
  /// log file; failed / cancelled / faulted requests then still dump into
  /// Response::flight_json (tests use this).
  bool flight_recorder = false;
  /// Periodic metrics export: every snapshot_period_ms the server writes a
  /// Prometheus-text snapshot of the global registry to snapshot_path
  /// (write-to-temp + rename, so scrapers never see a torn file; a final
  /// snapshot is written at shutdown). 0 or an empty path = off.
  unsigned snapshot_period_ms = 0;
  std::string snapshot_path{};
};

struct Request {
  std::string column;                ///< Catalog name.
  QueryClass query_class = QueryClass::kScan;
  std::string tenant = "default";
  Deadline deadline;                 ///< Infinite by default.
  const CancelToken* cancel = nullptr;  ///< Must outlive the response.
  // Aggregate: optional range filter (SUM(x) WHERE lo <= x <= hi) answered
  // through the zone maps.
  bool has_filter = false;
  double filter_lo = 0.0;
  double filter_hi = 0.0;
  // Point lookup: which vector to decode.
  size_t vector_index = 0;
  // Scan: also copy the decoded values into Response::values (tests use
  // this to prove byte-identity; the load generator leaves it off).
  bool return_values = false;
  /// Request identity carried through every span/counter the request
  /// touches. 0 = the server assigns a fresh ID at submission (the common
  /// case); callers that already have an upstream trace set it themselves.
  uint64_t trace_id = 0;
};

struct Response {
  Status status;               ///< OK, or why the request failed/was shed.
  QueryClass query_class = QueryClass::kScan;
  double sum = 0.0;            ///< Aggregate / scan checksum / values[0].
  size_t tuples = 0;           ///< Logical values the request covered.
  size_t vectors_skipped = 0;  ///< Zone-map skips (filtered aggregate).
  /// Vectors evaluated on FFOR-packed lanes without decoding (filtered
  /// aggregate; see alp/pushdown.h).
  size_t vectors_packed_eval = 0;
  std::vector<double> values;  ///< Point-lookup vector / opted-in scan.
  uint64_t queue_ns = 0;       ///< Admission → start of execution.
  uint64_t exec_ns = 0;        ///< Execution wall time.
  uint64_t trace_id = 0;       ///< The request's (possibly assigned) ID.
  /// Flight-recorder dump (one JSON object) when this request tripped a
  /// dump condition — slow, failed, cancelled, or hit an armed fault site —
  /// and the recorder was armed. Empty otherwise. The same line goes to the
  /// slow-query log when ServerConfig::slow_log_path is set.
  std::string flight_json;
};

/// Monotonic counters for tests, the CLI and the load generator — available
/// even when the obs layer is compiled out or disabled. Snapshot via
/// Server::stats(); all counts since construction.
struct ServerStats {
  uint64_t submitted = 0;
  uint64_t admitted = 0;
  uint64_t completed = 0;        ///< Finished OK.
  uint64_t failed = 0;           ///< Finished with a data/fault error.
  uint64_t shed_shutdown = 0;    ///< Rejected: server shutting down.
  uint64_t shed_queue_full = 0;  ///< Rejected: admit limit hit (slow-start).
  uint64_t shed_class = 0;       ///< Rejected: class shed fraction.
  uint64_t shed_tenant = 0;      ///< Rejected: tenant quota.
  uint64_t not_found = 0;        ///< Rejected: unknown column.
  uint64_t deadline_missed = 0;  ///< kDeadlineExceeded (admission or exec).
  uint64_t cancelled = 0;        ///< kCancelled during execution.
  uint64_t max_queue_depth = 0;  ///< High-water mark of queued requests.
  uint64_t admit_limit = 0;      ///< Current slow-start admit limit.
  uint64_t slow_queries = 0;     ///< Finished over the slow-query threshold.
  uint64_t flight_dumps = 0;     ///< Flight-recorder dumps emitted.

  uint64_t SheddedTotal() const {
    return shed_shutdown + shed_queue_full + shed_class + shed_tenant;
  }
};

/// The serving layer. Thread-safe: any number of threads may Submit
/// concurrently; AddColumn may race with Submit (a request for a column
/// mid-registration is simply kNotFound until registration completes).
class Server {
 public:
  explicit Server(ServerConfig config = {});
  ~Server();  ///< Shutdown(): drains by rejecting queued work, joins workers.

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Compresses \p n doubles into an ALP column and registers it under
  /// \p name (replacing any previous column of that name).
  Status AddColumn(const std::string& name, const double* data, size_t n);

  /// Registers an already-built stored column.
  Status AddColumn(const std::string& name, engine::StoredColumn column);

  /// Admission + asynchronous execution. The future always resolves:
  /// immediately (with the rejection Status) when admission declines, or
  /// when a worker finishes the request otherwise.
  std::future<Response> Submit(Request request);

  /// Submit + wait: the convenience path for tests and the CLI.
  Response Execute(Request request);

  /// Stops admission (subsequent Submits resolve kResourceExhausted),
  /// fails all queued requests with kResourceExhausted, and joins the
  /// workers. Idempotent; the destructor calls it.
  void Shutdown();

  ServerStats stats() const;

  /// Aggregated decoded-vector cache counters (hits / misses / evictions /
  /// resident bytes) across every catalog column; all-zero when
  /// ServerConfig::cache_bytes is 0.
  io::DecodedVectorCache::Stats cache_stats() const {
    return cache_.TotalStats();
  }

  unsigned workers() const { return worker_count_; }

 private:
  struct Pending;

  void WorkerLoop();
  void SnapshotLoop();
  Response ExecuteOnColumn(const Request& request,
                           const engine::StoredColumn& column,
                           const OpContext& ctx);
  /// Called with mutex_ held; classifies + counts one admission decision
  /// and, on OK, resolves the catalog column into *column.
  Status AdmitLocked(const Request& request,
                     std::shared_ptr<const engine::StoredColumn>* column);
  /// Whether requests get a flight recorder at admission.
  bool RecorderArmed() const;
  /// Per-class × per-tenant latency histogram; registered on first use and
  /// cached so the hot path only pays one map lookup under the already-held
  /// completion mutex. Called with mutex_ held.
  obs::Histogram& LatencyHistogramLocked(QueryClass qc,
                                         const std::string& tenant);
  void AppendSlowLog(const std::string& line);

  ServerConfig config_;
  unsigned worker_count_ = 0;

  // Declared before catalog_: the columns' SeekableReaders reference the
  // cache, so it must be destroyed after them.
  io::DecodedVectorCache cache_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;
  std::map<std::string, std::shared_ptr<const engine::StoredColumn>> catalog_;
  std::deque<std::unique_ptr<Pending>> queues_[kQueryClassCount];
  std::map<std::string, unsigned> tenant_load_;  ///< Queued + running.
  size_t queued_ = 0;
  size_t admit_limit_ = 0;  ///< Slow-start state, <= queue_capacity.
  bool shutdown_ = false;
  ServerStats stats_;
  /// Handles for the labeled server.latency_us{class=,tenant=} histograms,
  /// keyed "class|tenant"; guarded by mutex_ (registration is rare, lookups
  /// ride the completion critical section).
  std::map<std::string, obs::Histogram*> latency_histograms_;

  /// Slow-query log (JSON lines); own mutex so dump appends never contend
  /// with admission.
  std::mutex slow_log_mutex_;
  std::FILE* slow_log_ = nullptr;

  /// Periodic Prometheus snapshot writer.
  std::mutex snapshot_mutex_;
  std::condition_variable snapshot_cv_;
  bool snapshot_stop_ = false;
  std::thread snapshot_thread_;

  ThreadPool pool_;
  TaskGroup workers_;
};

}  // namespace alp::server

#endif  // ALP_SERVER_SERVER_H_
