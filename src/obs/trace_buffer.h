#ifndef ALP_OBS_TRACE_BUFFER_H_
#define ALP_OBS_TRACE_BUFFER_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"  // ALP_OBS default + the enabled-gate idiom.
#include "util/cycle_clock.h"
#include "util/status.h"

/// \file trace_buffer.h
/// Per-thread trace-event ring buffers behind the existing ALP_OBS gates.
///
/// Where the MetricRegistry (metrics.h) aggregates — total cycles per stage,
/// merged across the run — tracing keeps *individual* spans with their
/// begin/end timestamps, so a run can be replayed on a timeline: which
/// worker compressed which rowgroup when, how sampling overlapped encoding,
/// where the pool sat idle. The already-instrumented ALP_OBS_SPAN sites are
/// the producers; no extra instrumentation is needed to capture a trace.
///
/// Design:
///  - One fixed-capacity SpanRing per thread (registered on first span,
///    reused for the thread's lifetime). The recording path is lock-free
///    and wait-free: the owning thread writes a slot and publishes it with
///    one release store; no CAS, no shared counters. When a ring wraps, the
///    oldest spans are overwritten and counted as dropped (recent activity
///    is what a timeline viewer needs). The flight recorder keeps its
///    per-request events in the same ring type.
///  - Worker attribution reuses ThreadPool::CurrentWorkerIndex(): spans on
///    pool workers carry tid == worker index; other threads get synthetic
///    tids starting at kSyntheticTidBase (the process main thread first).
///  - Recording is gated on a dedicated relaxed atomic (TraceEnabled()),
///    independent of the metrics gate, and the whole subsystem compiles to
///    no-ops under -DALP_OBS=OFF: the macros in trace.h vanish, so no ring
///    is ever allocated and no span is ever recorded. The API below still
///    exists so the CLI and bench harness need no conditional code; exports
///    from an OFF build are valid, empty traces.
///  - Timestamps are RDTSC cycles (util/cycle_clock.h) at record time and
///    are converted to microseconds at export by a CycleCalibration
///    anchored at StartTracing() (re-measured at export, so the scale
///    improves as the traced interval grows). The flight recorder converts
///    its dump times with the same calibration, anchored per request.
///
/// Export is Chrome trace_event JSON ("X" complete events inside a
/// {"traceEvents": [...]} object), loadable in Perfetto
/// (https://ui.perfetto.dev) and chrome://tracing. The CLI exposes it as
/// `alp --trace=<path> <command>` and every bench binary as
/// `--trace=<path>` (see bench/bench_common.h TraceSession).
///
/// Collecting (CollectTraceSpans / TraceToJson) is intended for quiescent
/// moments — after the traced pipeline ran, before the next one. It is safe
/// to call while writers are active (slots are published with release
/// stores and read with acquire loads), but spans recorded concurrently
/// with the collection may or may not be included.

namespace alp::obs {

/// First synthetic tid handed to non-pool threads, keeping them visually
/// apart from worker indexes (0..15ish) on the trace timeline.
inline constexpr int kSyntheticTidBase = 1000;

/// Spans each thread ring retains; older spans are dropped on wrap.
inline constexpr size_t kTraceRingCapacity = size_t{1} << 14;

/// One completed span: the record ScopedTimer builds once and hands to
/// every observer (stage registry, trace ring, flight recorder).
struct SpanRecord {
  const char* name = nullptr;  ///< Stage literal (static storage).
  uint64_t begin_cycles = 0;   ///< CycleNow() at scope entry.
  uint64_t end_cycles = 0;     ///< CycleNow() at scope exit.
  uint64_t items = 0;          ///< Items processed (throughput unit).
  uint64_t trace_id = 0;       ///< Owning request's trace ID; 0 = none.
};

/// Fixed-capacity single-writer ring; the oldest entry is overwritten (and
/// counted as dropped) once it is full. Only the owning thread pushes. A
/// reader on another thread sees every slot published by the head it
/// acquires; a slot overwritten while it is being read may be torn, so
/// readers collect at quiescent moments. Compiled in every build: the
/// flight recorder uses it under -DALP_OBS=OFF too.
template <typename T, size_t kCapacity>
class SpanRing {
 public:
  /// Appends \p entry; true when that overwrote the oldest retained one.
  bool Push(const T& entry) {
    const uint64_t h = head_.load(std::memory_order_relaxed);
    slots_[h % kCapacity] = entry;
    head_.store(h + 1, std::memory_order_release);
    return h >= kCapacity;
  }

  void Clear() { head_.store(0, std::memory_order_relaxed); }

  /// Entries retained: min(pushed, capacity).
  size_t size() const {
    return static_cast<size_t>(std::min<uint64_t>(Head(), kCapacity));
  }

  /// Entries overwritten since the last Clear().
  uint64_t dropped() const { return Head() - size(); }

  /// Calls \p fn on each retained entry, oldest first.
  template <typename Fn>
  void ForEach(const Fn& fn) const {
    const uint64_t h = Head();
    for (uint64_t i = h - std::min<uint64_t>(h, kCapacity); i < h; ++i) {
      fn(slots_[i % kCapacity]);
    }
  }

 private:
  uint64_t Head() const { return head_.load(std::memory_order_acquire); }

  std::array<T, kCapacity> slots_;
  /// Total entries ever pushed; slot = head % capacity.
  std::atomic<uint64_t> head_{0};
};

/// Converts cycle stamps to wall time: a (cycles, steady-clock ns) anchor,
/// with the scale measured between the anchor and the conversion.
class CycleCalibration {
 public:
  void Anchor() {
    cycles_ = ::alp::CycleNow();
    ns_ = ::alp::NanoNow();
  }
  uint64_t anchor_cycles() const { return cycles_; }

  /// Microseconds per cycle from the anchor to now; a nominal 1 GHz when
  /// never anchored or no time has passed since.
  double MicrosPerCycle() const {
    const uint64_t cycles = ::alp::CycleNow();
    const uint64_t ns = ::alp::NanoNow();
    if (cycles_ == 0 || cycles <= cycles_ || ns <= ns_) return 1e-3;
    return static_cast<double>(ns - ns_) * 1e-3 /
           static_cast<double>(cycles - cycles_);
  }

 private:
  uint64_t cycles_ = 0;
  uint64_t ns_ = 0;
};

namespace internal {
extern std::atomic<bool> g_trace_enabled;
}  // namespace internal

/// Whether span tracing is recording (relaxed read; hot-path safe).
inline bool TraceEnabled() {
#if ALP_OBS
  return internal::g_trace_enabled.load(std::memory_order_relaxed);
#else
  return false;
#endif
}

/// Clears every thread ring and the dropped-span count, re-anchors the
/// cycle→time calibration, and enables recording. Call while the pipeline
/// is idle. No-op (recording never starts) under -DALP_OBS=OFF.
void StartTracing();

/// Disables recording; the captured spans stay collectable.
void StopTracing();

/// Clears captured spans without touching the enabled flag.
void ResetTrace();

/// One captured span, resolved for export.
struct TraceSpan {
  std::string name;       ///< Stage name (the ALP_OBS_SPAN literal).
  uint64_t begin_cycles;  ///< CycleNow() at scope entry.
  uint64_t end_cycles;    ///< CycleNow() at scope exit; >= begin_cycles.
  uint64_t items;         ///< Items processed (the span's throughput unit).
  uint64_t trace_id = 0;  ///< Owning request's trace ID; 0 = unattributed.
  int tid;                ///< Worker index, or a synthetic id (>= 1000).
};

/// Records one completed span on the calling thread's ring. Called by
/// obs::ScopedTimer when TraceEnabled(), with the span's trace ID set so
/// timeline spans join against the slow-query log; \p span.name must have
/// static storage duration (the ring stores the pointer).
void TraceRecordSpan(const SpanRecord& span);

/// Every retained span across all thread rings, in per-thread recording
/// order (threads ordered by registration).
std::vector<TraceSpan> CollectTraceSpans();

/// Spans lost to ring overflow since StartTracing().
uint64_t TraceDroppedSpans();

/// The capture as Chrome trace_event JSON: {"traceEvents": [...]} with one
/// "X" (complete) event per span — ts/dur in microseconds, pid 1, tid the
/// span's thread — plus "M" metadata events naming each thread. Valid (an
/// empty traceEvents array) even when nothing was recorded.
std::string TraceToJson();

/// Writes TraceToJson() to \p path. kIo on filesystem failure.
Status WriteTraceFile(const std::string& path);

}  // namespace alp::obs

#endif  // ALP_OBS_TRACE_BUFFER_H_
