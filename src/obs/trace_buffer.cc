#include "obs/trace_buffer.h"

#include <algorithm>
#include <cstdio>
#include <mutex>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "util/thread_pool.h"

namespace alp::obs {

namespace internal {
std::atomic<bool> g_trace_enabled{false};
}  // namespace internal

#if ALP_OBS

namespace {

/// One thread's span ring. Only the owning thread pushes; collectors read
/// under the registry mutex.
struct ThreadRing {
  int tid = 0;
  SpanRing<SpanRecord, kTraceRingCapacity> spans;
};

struct TraceRegistry {
  std::mutex mu;
  /// Owned rings in registration order. Leaked on purpose (like the metric
  /// registry): worker threads may outlive any scope that could free them.
  std::vector<ThreadRing*> rings;
  int next_synthetic_tid = kSyntheticTidBase;
  /// Anchored by StartTracing, so export measures the cycle scale over the
  /// traced interval itself.
  CycleCalibration calibration;
};

TraceRegistry& Registry() {
  static TraceRegistry* r = new TraceRegistry();
  return *r;
}

ThreadRing& LocalRing() {
  thread_local ThreadRing* ring = nullptr;
  if (ring == nullptr) {
    ring = new ThreadRing();
    TraceRegistry& reg = Registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    const int worker = ThreadPool::CurrentWorkerIndex();
    ring->tid = worker >= 0 ? worker : reg.next_synthetic_tid++;
    reg.rings.push_back(ring);
  }
  return *ring;
}

std::string FormatMicros(double us) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", us < 0.0 ? 0.0 : us);
  return buf;
}

}  // namespace

void StartTracing() {
  TraceRegistry& reg = Registry();
  {
    std::lock_guard<std::mutex> lock(reg.mu);
    for (ThreadRing* ring : reg.rings) ring->spans.Clear();
    reg.calibration.Anchor();
  }
  internal::g_trace_enabled.store(true, std::memory_order_relaxed);
}

void StopTracing() {
  internal::g_trace_enabled.store(false, std::memory_order_relaxed);
}

void ResetTrace() {
  TraceRegistry& reg = Registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (ThreadRing* ring : reg.rings) ring->spans.Clear();
}

void TraceRecordSpan(const SpanRecord& span) {
  // ScopedTimer checks the gate before timing, but direct callers may not:
  // spans must never land in the rings while tracing is stopped.
  if (!TraceEnabled()) return;
  if (LocalRing().spans.Push(span)) {
    // Overwrote the oldest retained span. Mirror the loss into the metric
    // registry (AddAlways: tracing can run with the metrics gate closed,
    // and span loss is exactly what the obs-health counter must not lose
    // to that gate).
    static Counter& dropped =
        MetricRegistry::Global().GetCounter("obs.trace.dropped");
    dropped.AddAlways(1);
  }
}

std::vector<TraceSpan> CollectTraceSpans() {
  std::vector<TraceSpan> out;
  TraceRegistry& reg = Registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (const ThreadRing* ring : reg.rings) {
    ring->spans.ForEach([&](const SpanRecord& s) {
      out.push_back(TraceSpan{s.name != nullptr ? s.name : "", s.begin_cycles,
                              s.end_cycles, s.items, s.trace_id, ring->tid});
    });
  }
  return out;
}

uint64_t TraceDroppedSpans() {
  TraceRegistry& reg = Registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  uint64_t dropped = 0;
  for (const ThreadRing* ring : reg.rings) dropped += ring->spans.dropped();
  return dropped;
}

std::string TraceToJson() {
  const std::vector<TraceSpan> spans = CollectTraceSpans();
  const CycleCalibration& calibration = Registry().calibration;
  const double us_per_cycle = calibration.MicrosPerCycle();
  const uint64_t anchor_cycles = calibration.anchor_cycles();

  // Thread-name metadata first, one per distinct tid.
  std::vector<int> tids;
  for (const TraceSpan& s : spans) {
    if (std::find(tids.begin(), tids.end(), s.tid) == tids.end()) {
      tids.push_back(s.tid);
    }
  }
  std::sort(tids.begin(), tids.end());

  std::string out;
  out.reserve(128 + spans.size() * 96);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (int tid : tids) {
    if (!first) out += ',';
    first = false;
    const std::string name = tid >= kSyntheticTidBase
                                 ? (tid == kSyntheticTidBase
                                        ? std::string("main")
                                        : "thread-" + std::to_string(tid))
                                 : "worker-" + std::to_string(tid);
    out += "{\"ph\":\"M\",\"pid\":1,\"tid\":" + std::to_string(tid);
    out += ",\"name\":\"thread_name\",\"args\":{\"name\":";
    out += JsonQuote(name);
    out += "}}";
  }
  for (const TraceSpan& s : spans) {
    if (!first) out += ',';
    first = false;
    // Cycles before the anchor (spans begun before StartTracing) clamp to 0.
    const double ts =
        s.begin_cycles >= anchor_cycles
            ? static_cast<double>(s.begin_cycles - anchor_cycles) * us_per_cycle
            : 0.0;
    const double dur = s.end_cycles >= s.begin_cycles
                           ? static_cast<double>(s.end_cycles - s.begin_cycles) *
                                 us_per_cycle
                           : 0.0;
    out += "{\"ph\":\"X\",\"pid\":1,\"tid\":" + std::to_string(s.tid);
    out += ",\"name\":";
    out += JsonQuote(s.name);
    out += ",\"ts\":" + FormatMicros(ts);
    out += ",\"dur\":" + FormatMicros(dur);
    out += ",\"args\":{\"items\":" + std::to_string(s.items);
    if (s.trace_id != 0) {
      // The same 16-hex-digit rendering the flight-recorder dump uses, so a
      // Perfetto span joins against its slow-query-log line by string match.
      out += ",\"trace_id\":";
      out += JsonQuote(TraceIdHex(s.trace_id));
    }
    out += "}}";
  }
  out += "],\"otherData\":{\"dropped_spans\":";
  out += std::to_string(TraceDroppedSpans());
  out += "}}";
  return out;
}

#else  // !ALP_OBS

// Disabled builds keep the API (callers need no conditional code) but never
// record: StartTracing does not set the flag, so TraceEnabled() stays false
// and exports are valid empty traces.
void StartTracing() {}
void StopTracing() {}
void ResetTrace() {}
void TraceRecordSpan(const SpanRecord&) {}
std::vector<TraceSpan> CollectTraceSpans() { return {}; }
uint64_t TraceDroppedSpans() { return 0; }
std::string TraceToJson() {
  return "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[],"
         "\"otherData\":{\"dropped_spans\":0}}";
}

#endif  // ALP_OBS

Status WriteTraceFile(const std::string& path) {
  const std::string json = TraceToJson();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::Io("cannot open trace file for writing: " + path);
  }
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const int close_rc = std::fclose(f);
  if (written != json.size() || close_rc != 0) {
    return Status::Io("short write to trace file: " + path);
  }
  return Status::Ok();
}

}  // namespace alp::obs
