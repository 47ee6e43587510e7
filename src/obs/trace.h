#ifndef ALP_OBS_TRACE_H_
#define ALP_OBS_TRACE_H_

#include <cstdint>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/perf_counters.h"
#include "obs/trace_buffer.h"
#include "util/cycle_clock.h"

/// \file trace.h
/// Per-stage span tracing over the RDTSC cycle clock. A span attributes a
/// region's cycles (and the number of items it processed) to a named
/// pipeline stage in the global MetricRegistry:
///
/// ```cpp
/// {
///   ALP_OBS_SPAN(span, "compress.encode", vector_length);
///   EncodeVector(...);
/// }  // span destructor records cycles + items into stage "compress.encode"
/// ```
///
/// The macros expand to nothing when the library is configured with
/// `-DALP_OBS=OFF`, so the disabled build carries zero instrumentation code;
/// when compiled in, a span with every observer off costs one thread-local
/// load and two relaxed loads, and no RDTSC read.

namespace alp::obs {

/// RAII cycle-span. Captures CycleNow() only while metric recording, span
/// tracing, or a request's flight recorder is active, so the fully disabled
/// path is one thread-local load and two relaxed loads, and never touches
/// RDTSC. The span builds one SpanRecord and publishes it to each active
/// observer: aggregate StageStats in the registry (when Enabled()), the
/// calling thread's trace ring (when TraceEnabled()), and the ambient
/// flight recorder of the request running on this thread (when the serving
/// layer installed one) — which is how every existing ALP_OBS_SPAN site
/// becomes per-request attributable without changing call sites. \p name
/// must have static storage duration — both rings store the pointer
/// (ALP_OBS_SPAN passes its stage literal).
class ScopedTimer {
 public:
  ScopedTimer(StageStats& stage, const char* name, uint64_t items)
      : stage_(stage), recorder_(CurrentFlightRecorder()) {
    span_.name = name;
    span_.items = items;
    const bool metrics = Enabled();
    if (metrics || TraceEnabled() || recorder_ != nullptr) {
      armed_ = true;
      // Hardware counters ride the span into its stage when the per-span
      // perf gate is open (two syscalls per span, so opt-in). Arm before
      // the rdtsc read: the group read's syscall cost then sits outside the
      // timed interval on the begin side at least.
      if (metrics && PerfSpansEnabled()) perf_.Arm();
      span_.begin_cycles = ::alp::CycleNow();
    }
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  /// Adjusts the item count after construction (e.g. when the span covers a
  /// loop whose trip count is only known at the end).
  void SetItems(uint64_t items) { span_.items = items; }

  ~ScopedTimer() {
    if (!armed_) return;
    const bool metrics = Enabled();
    const bool trace = TraceEnabled();
    if (!metrics && !trace && recorder_ == nullptr) return;
    span_.end_cycles = ::alp::CycleNow();
    span_.trace_id = CurrentTraceId();
    if (metrics) {
      stage_.Record(span_.end_cycles - span_.begin_cycles, span_.items);
    }
    if (trace) TraceRecordSpan(span_);
    if (recorder_ != nullptr) recorder_->Span(span_);
    // A span's counter delta belongs to its stage only: the request's one
    // perf sample is the server's, so nested spans never count twice.
    if (metrics && perf_.armed()) {
      const PerfSample delta = perf_.Finish();
      if (delta.valid) {
        stage_.RecordPerf(delta.cycles, delta.instructions,
                          delta.cache_references, delta.cache_misses,
                          delta.branch_misses, span_.items);
      }
    }
  }

 private:
  StageStats& stage_;
  FlightRecorder* recorder_;
  SpanRecord span_;
  PerfScope perf_;
  bool armed_ = false;
};

}  // namespace alp::obs

// ---------------------------------------------------------------------------
// Instrumentation-site macros — the only telemetry constructs allowed on hot
// paths. Both compile to nothing when ALP_OBS == 0.
// ---------------------------------------------------------------------------

#if ALP_OBS

/// Compiles its arguments only in observability builds. Use for counter /
/// histogram recording sites:
///   ALP_OBS_ONLY({
///     static auto& c = alp::obs::MetricRegistry::Global()
///                          .GetCounter("sampler.scheme.alp");
///     c.Increment();
///   });
#define ALP_OBS_ONLY(...) __VA_ARGS__

/// Declares a ScopedTimer named `var` attributing the enclosing scope's
/// cycles and `items` items to pipeline stage `stage` (a string literal).
#define ALP_OBS_SPAN(var, stage, items)                              \
  static ::alp::obs::StageStats& var##_stage =                       \
      ::alp::obs::MetricRegistry::Global().GetStage(stage);          \
  ::alp::obs::ScopedTimer var(var##_stage, (stage), (items))

#else  // !ALP_OBS

#define ALP_OBS_ONLY(...)
#define ALP_OBS_SPAN(var, stage, items) \
  do {                                  \
  } while (false)

#endif  // ALP_OBS

#endif  // ALP_OBS_TRACE_H_
