#ifndef ALP_OBS_FLIGHT_RECORDER_H_
#define ALP_OBS_FLIGHT_RECORDER_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"  // ALP_OBS default.
#include "obs/perf_counters.h"
#include "obs/trace_buffer.h"
#include "util/status.h"

/// \file flight_recorder.h
/// Request-scoped telemetry: a trace-identified context threaded through
/// OpContext, and a per-request *flight recorder* that dumps to JSON (the
/// slow-query log) when the request fails, is cancelled, trips a fault
/// site, or exceeds the slow-query threshold, and costs nothing to drop on
/// fast success.
///
/// Where the MetricRegistry answers "how is the process doing" and the
/// trace rings answer "what ran when", the flight recorder answers "why was
/// THIS request slow": its dump carries the trace ID, queue wait, per-stage
/// spans, cache hits/misses, chunk fetch bytes, decode exception counts,
/// injected-fault attribution, the kernel tier and one hardware-counter
/// sample — everything needed to explain one tail-latency outlier from one
/// artifact.
///
/// The recorder is a filtered view of the span stream, not a second set of
/// accounts: ScopedTimer hands it the same SpanRecord it hands the stage
/// registry and the trace ring, its events sit in the trace buffer's
/// SpanRing, and its dump times use the trace buffer's CycleCalibration.
/// What it adds is per-request: one keyed table folding counters, stages
/// and fault sites, string labels, the outcome, and the request's summed
/// PerfSample.
///
/// Cost model:
///  - A request without a recorder (the common case) pays one null-pointer
///    check per instrumented site; the per-vector IO sites are additionally
///    compiled out under -DALP_OBS=OFF, like every other hot-path
///    instrumentation in the repo.
///  - A recorder is fixed-size: events land in a bounded ring (oldest
///    dropped and counted), and the table keeps aggregates lossless once the
///    ring wraps. No allocation happens on the recording path after
///    construction (labels excepted — they are per-request, not per-vector).
///
/// Threading: one recorder belongs to one request and is written by one
/// thread at a time — the submitter during admission, then the worker that
/// executes the request (the server's queue hand-off sequences the two).
/// Code that fans a request out across threads (the engine's data-parallel
/// operators) must record from the orchestrating thread only.
///
/// Ambient attribution: the executing worker installs a
/// ScopedRequestAttribution for the request's lifetime, which makes the
/// recorder and trace ID visible to instrumentation that has no OpContext
/// in scope — ScopedTimer feeds every ALP_OBS_SPAN site on the thread into
/// the recorder, the trace rings stamp spans with the trace ID, and the
/// fault layer's fire observer attributes injected faults to the request.

namespace alp::obs {

class FlightRecorder;

/// Identity of one in-flight request, carried by OpContext::request through
/// every layer a request touches (server → engine → SeekableReader →
/// decode). The strings must outlive the context (the server points them at
/// static class names and the request-owned tenant string).
struct RequestContext {
  uint64_t trace_id = 0;          ///< 64-bit request identity; 0 = none.
  const char* query_class = "";   ///< Static class label.
  const char* tenant = "";        ///< Tenant label (request-owned storage).
  FlightRecorder* recorder = nullptr;  ///< Null = not recording.
};

/// Bounded per-request recorder. See the file comment for the model.
class FlightRecorder {
 public:
  /// Events retained (ring; oldest dropped and counted once full).
  static constexpr size_t kEventCapacity = 192;
  /// Distinct aggregate keys: counters, stages and fault sites together.
  static constexpr size_t kTableCapacity = 64;

  FlightRecorder() = default;
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Rebinds the recorder to a new request and clears all recorded state.
  /// Anchors the cycle→wall calibration used when dumping span times.
  void Reset(uint64_t trace_id, const char* query_class, const char* tenant);

  // --- recording (single-threaded; keys/names must have static storage) ---

  /// Folds \p delta into the aggregate counter \p key and appends a ring
  /// event. Use for per-vector facts (cache hit/miss, exception counts).
  void Count(const char* key, uint64_t delta = 1);

  /// Appends one point annotation (admission queue depth, decisions, ...).
  void Annotate(const char* key, uint64_t value);

  /// Records a completed span: folds it into its stage's calls/cycles/items
  /// and appends a ring event. ScopedTimer calls this for every
  /// ALP_OBS_SPAN on the attributed thread.
  void Span(const SpanRecord& span);

  /// Attributes one injected-fault fire at \p site to this request.
  void RecordFault(const char* site, bool failed, uint64_t stall_us);

  /// Attaches a string label (kernel tier, dump reason, ...). Allocates;
  /// per-request frequency only.
  void Label(const char* key, std::string value);

  /// Folds one multiplex-scaled hardware-counter delta
  /// (obs/perf_counters.h) into the request's perf totals. The server is
  /// the one writer: it samples the worker's counter group once, around the
  /// whole execute, when counters exist. Spans do not add theirs (their
  /// deltas go to their stages), so the totals cover the request once. The
  /// dump derives IPC and the cache-miss rate from the totals, so a slow
  /// query names its miss rate. Invalid deltas are ignored.
  void AddPerf(const PerfSample& delta);

  /// Final outcome, emitted as top-level dump fields.
  void SetOutcome(const Status& status, uint64_t queue_ns, uint64_t exec_ns);

  // --- introspection (tests) and dumping -------------------------------

  uint64_t trace_id() const { return trace_id_; }
  uint64_t CounterValue(const char* key) const;
  uint64_t SpanCalls(const char* name) const;
  uint64_t FaultFires() const;  ///< Total injected-fault fires attributed.
  uint64_t PerfSamples() const { return perf_samples_; }
  size_t EventCount() const { return events_.size(); }
  uint64_t DroppedEvents() const { return events_.dropped(); }

  /// The dump: one JSON object (single line — the slow-query log is JSON
  /// lines) with trace_id (hex string), class/tenant, status, queue/exec
  /// micros, labels, aggregate counters, per-stage span totals, attributed
  /// faults, and the retained event ring with span times in microseconds.
  std::string ToJson() const;

 private:
  /// What an event or aggregate is. The table's kNote rows are counters.
  enum class Kind : uint8_t { kNote, kSpan, kFault };
  struct Event {
    const char* name = nullptr;
    Kind kind = Kind::kNote;
    uint64_t a = 0;  ///< value | begin_cycles | stall_us.
    uint64_t b = 0;  ///< 0 | end_cycles | failed.
    uint64_t c = 0;  ///< 0 | items | 0.
  };
  struct Aggregate {
    Kind kind = Kind::kNote;
    const char* key = nullptr;
    uint64_t calls = 0;
    uint64_t value = 0;  ///< Counter total | span cycles | fault errors.
    uint64_t items = 0;  ///< 0 | span items | fault stall_us.
  };

  void Push(const Event& event);
  /// Adds one call of (value, items) to the (kind, key) aggregate; a full
  /// table drops the fold (the ring event still lands).
  void Fold(Kind kind, const char* key, uint64_t value, uint64_t items);
  /// Index of the (kind, key) aggregate, or table_size_ when absent.
  size_t IndexOf(Kind kind, const char* key) const;

  uint64_t trace_id_ = 0;
  const char* query_class_ = "";
  const char* tenant_ = "";

  SpanRing<Event, kEventCapacity> events_;
  std::array<Aggregate, kTableCapacity> table_;
  size_t table_size_ = 0;

  std::vector<std::pair<const char*, std::string>> labels_;

  /// Summed scaled hardware-counter deltas (AddPerf); 0 samples = the dump
  /// carries no "perf" object (counters unavailable or never read).
  uint64_t perf_samples_ = 0;
  PerfSample perf_;

  CycleCalibration calibration_;  ///< Anchored by Reset.

  std::optional<Status> outcome_;
  uint64_t queue_ns_ = 0;
  uint64_t exec_ns_ = 0;
};

// ---------------------------------------------------------------------------
// Ambient (thread-local) attribution. Installed by the executing worker for
// the request's duration; read by ScopedTimer, the trace rings and the fault
// fire observer — instrumentation that has no OpContext in scope.
// ---------------------------------------------------------------------------

namespace internal {
extern thread_local constinit FlightRecorder* g_tl_recorder;
extern thread_local constinit uint64_t g_tl_trace_id;
}  // namespace internal

/// The flight recorder attributed to the calling thread's in-flight
/// request, or null (one thread-local load; hot-path safe).
inline FlightRecorder* CurrentFlightRecorder() {
  return internal::g_tl_recorder;
}

/// The calling thread's in-flight trace ID, or 0.
inline uint64_t CurrentTraceId() { return internal::g_tl_trace_id; }

/// RAII scope installing (trace_id, recorder) as the calling thread's
/// ambient attribution; restores the previous attribution on destruction
/// (nesting is safe — the innermost request wins).
class ScopedRequestAttribution {
 public:
  ScopedRequestAttribution(uint64_t trace_id, FlightRecorder* recorder)
      : saved_recorder_(internal::g_tl_recorder),
        saved_trace_id_(internal::g_tl_trace_id) {
    internal::g_tl_recorder = recorder;
    internal::g_tl_trace_id = trace_id;
  }
  ScopedRequestAttribution(const ScopedRequestAttribution&) = delete;
  ScopedRequestAttribution& operator=(const ScopedRequestAttribution&) = delete;
  ~ScopedRequestAttribution() {
    internal::g_tl_recorder = saved_recorder_;
    internal::g_tl_trace_id = saved_trace_id_;
  }

 private:
  FlightRecorder* saved_recorder_;
  uint64_t saved_trace_id_;
};

/// Registers the fault-layer fire observer that attributes injected faults
/// (errors and stall-only stalls alike) to the calling thread's ambient
/// flight recorder. Idempotent; the Server constructor calls it.
void InstallFlightFaultObserver();

/// Process-unique 64-bit trace IDs (splitmix64 over an atomic counter mixed
/// with a per-process seed; never returns 0).
uint64_t NewTraceId();

/// Canonical rendering of a trace ID: 16 lowercase hex digits (JSON numbers
/// would lose precision past 2^53, so dumps and logs carry the string).
std::string TraceIdHex(uint64_t trace_id);

}  // namespace alp::obs

#endif  // ALP_OBS_FLIGHT_RECORDER_H_
