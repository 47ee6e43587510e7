#include "obs/flight_recorder.h"

#include <atomic>
#include <cstdio>
#include <cstring>

#include "obs/sink.h"
#include "util/cycle_clock.h"
#include "util/fault_injection.h"

namespace alp::obs {

namespace internal {
thread_local constinit FlightRecorder* g_tl_recorder = nullptr;
thread_local constinit uint64_t g_tl_trace_id = 0;
}  // namespace internal

namespace {

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

void AppendU64(std::string* out, uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  *out += buf;
}

}  // namespace

void FlightRecorder::Reset(uint64_t trace_id, const char* query_class,
                           const char* tenant) {
  trace_id_ = trace_id;
  query_class_ = query_class != nullptr ? query_class : "";
  tenant_ = tenant != nullptr ? tenant : "";
  events_.Clear();
  table_size_ = 0;
  labels_.clear();
  perf_samples_ = 0;
  perf_ = PerfSample{};
  calibration_.Anchor();
  outcome_.reset();
  queue_ns_ = 0;
  exec_ns_ = 0;
}

void FlightRecorder::Push(const Event& event) {
  if (events_.Push(event)) {
    // Surface the loss in the process-wide registry too (AddAlways: the
    // recorder runs even when the metrics gate is closed, and a dropped
    // event is obs-health evidence, not pipeline telemetry).
    static Counter& dropped =
        MetricRegistry::Global().GetCounter("obs.recorder.dropped");
    dropped.AddAlways(1);
  }
}

size_t FlightRecorder::IndexOf(Kind kind, const char* key) const {
  // Pointer equality first: instrumentation passes string literals, and
  // within one binary the same site usually hands back the same pointer.
  // Fall back to strcmp because literal merging across translation units is
  // not guaranteed.
  for (size_t i = 0; i < table_size_; ++i) {
    if (table_[i].kind == kind && table_[i].key == key) return i;
  }
  for (size_t i = 0; i < table_size_; ++i) {
    if (table_[i].kind == kind && std::strcmp(table_[i].key, key) == 0) {
      return i;
    }
  }
  return table_size_;
}

void FlightRecorder::Fold(Kind kind, const char* key, uint64_t value,
                          uint64_t items) {
  const size_t i = IndexOf(kind, key);
  if (i == table_size_) {
    if (table_size_ == kTableCapacity) return;
    table_[table_size_++] = Aggregate{kind, key};
  }
  ++table_[i].calls;
  table_[i].value += value;
  table_[i].items += items;
}

void FlightRecorder::Count(const char* key, uint64_t delta) {
  // The ring keeps the per-vector timeline (which vector hit, which
  // missed); the aggregate stays lossless once the ring wraps.
  Fold(Kind::kNote, key, delta, 0);
  Push({key, Kind::kNote, delta});
}

void FlightRecorder::Annotate(const char* key, uint64_t value) {
  Push({key, Kind::kNote, value});
}

void FlightRecorder::Span(const SpanRecord& span) {
  Fold(Kind::kSpan, span.name, span.end_cycles - span.begin_cycles,
       span.items);
  Push({span.name, Kind::kSpan, span.begin_cycles, span.end_cycles,
        span.items});
}

void FlightRecorder::RecordFault(const char* site, bool failed,
                                 uint64_t stall_us) {
  Fold(Kind::kFault, site, failed ? 1 : 0, stall_us);
  Push({site, Kind::kFault, stall_us, failed ? 1u : 0u});
}

void FlightRecorder::Label(const char* key, std::string value) {
  for (auto& [k, v] : labels_) {
    if (k == key || std::strcmp(k, key) == 0) {
      v = std::move(value);
      return;
    }
  }
  labels_.emplace_back(key, std::move(value));
}

void FlightRecorder::AddPerf(const PerfSample& delta) {
  if (!delta.valid) return;
  ++perf_samples_;
  perf_ += delta;
}

void FlightRecorder::SetOutcome(const Status& status, uint64_t queue_ns,
                                uint64_t exec_ns) {
  outcome_ = status;
  queue_ns_ = queue_ns;
  exec_ns_ = exec_ns;
}

uint64_t FlightRecorder::CounterValue(const char* key) const {
  const size_t i = IndexOf(Kind::kNote, key);
  return i < table_size_ ? table_[i].value : 0;
}

uint64_t FlightRecorder::SpanCalls(const char* name) const {
  const size_t i = IndexOf(Kind::kSpan, name);
  return i < table_size_ ? table_[i].calls : 0;
}

uint64_t FlightRecorder::FaultFires() const {
  uint64_t total = 0;
  for (size_t i = 0; i < table_size_; ++i) {
    if (table_[i].kind == Kind::kFault) total += table_[i].calls;
  }
  return total;
}

std::string FlightRecorder::ToJson() const {
  // Cycle deltas convert to wall time at the scale measured over the
  // request's own interval (Reset to now).
  const double us_per_cycle = calibration_.MicrosPerCycle();
  const uint64_t anchor = calibration_.anchor_cycles();
  auto cycles_to_us = [&](uint64_t cycles) -> uint64_t {
    return static_cast<uint64_t>(static_cast<double>(cycles) * us_per_cycle);
  };
  auto append_field = [](std::string* out, const char* key, uint64_t v) {
    *out += ",\"";
    *out += key;
    *out += "\":";
    AppendU64(out, v);
  };

  std::string out;
  out.reserve(2048);
  out += "{\"trace_id\":";
  out += JsonQuote(TraceIdHex(trace_id_));
  out += ",\"class\":";
  out += JsonQuote(query_class_);
  out += ",\"tenant\":";
  out += JsonQuote(tenant_);
  if (outcome_.has_value()) {
    out += ",\"status\":";
    out += JsonQuote(StatusCodeName(outcome_->code()));
    if (!outcome_->message().empty()) {
      out += ",\"status_message\":";
      out += JsonQuote(outcome_->message());
    }
    append_field(&out, "queue_us", queue_ns_ / 1000);
    append_field(&out, "exec_us", exec_ns_ / 1000);
  }
  for (const auto& [key, value] : labels_) {
    out += ",";
    out += JsonQuote(key);
    out += ":";
    out += JsonQuote(value);
  }

  // Hardware-counter attribution (only when at least one scaled delta was
  // folded in): the request-level totals plus the derived rates a tail
  // investigation reads first. multiplex_scale > 1 flags that the PMU was
  // shared and the totals are scaled estimates.
  if (perf_samples_ > 0) {
    out += ",\"perf\":{\"samples\":";
    AppendU64(&out, perf_samples_);
    append_field(&out, "cycles", perf_.cycles);
    append_field(&out, "instructions", perf_.instructions);
    append_field(&out, "cache_references", perf_.cache_references);
    append_field(&out, "cache_misses", perf_.cache_misses);
    append_field(&out, "branch_misses", perf_.branch_misses);
    out += ",\"ipc\":";
    out += JsonDouble(perf_.Ipc());
    out += ",\"cache_miss_rate\":";
    out += JsonDouble(perf_.CacheMissRate());
    out += ",\"multiplex_scale\":";
    out += JsonDouble(perf_.Scale());
    out += "}";
  }

  // The keyed table, one section per kind, each in first-seen order.
  auto for_each = [&](Kind kind, const auto& render) {
    bool first = true;
    for (size_t i = 0; i < table_size_; ++i) {
      if (table_[i].kind != kind) continue;
      if (!first) out += ",";
      first = false;
      render(table_[i]);
    }
  };
  out += ",\"counters\":{";
  for_each(Kind::kNote, [&](const Aggregate& agg) {
    out += JsonQuote(agg.key);
    out += ":";
    AppendU64(&out, agg.value);
  });
  out += "},\"stages\":{";
  for_each(Kind::kSpan, [&](const Aggregate& agg) {
    out += JsonQuote(agg.key);
    out += ":{\"calls\":";
    AppendU64(&out, agg.calls);
    append_field(&out, "total_us", cycles_to_us(agg.value));
    append_field(&out, "items", agg.items);
    out += "}";
  });
  out += "},\"faults\":[";
  for_each(Kind::kFault, [&](const Aggregate& agg) {
    out += "{\"site\":";
    out += JsonQuote(agg.key);
    append_field(&out, "fires", agg.calls);
    append_field(&out, "errors", agg.value);
    append_field(&out, "stall_us", agg.items);
    out += "}";
  });
  out += "]";

  append_field(&out, "events_dropped", events_.dropped());
  out += ",\"events\":[";
  bool first = true;
  events_.ForEach([&](const Event& event) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":";
    out += JsonQuote(event.name != nullptr ? event.name : "");
    switch (event.kind) {
      case Kind::kSpan:
        out += ",\"kind\":\"span\"";
        append_field(&out, "t_us",
                     event.a >= anchor ? cycles_to_us(event.a - anchor) : 0);
        append_field(&out, "dur_us", cycles_to_us(event.b - event.a));
        append_field(&out, "items", event.c);
        break;
      case Kind::kFault:
        out += ",\"kind\":\"fault\"";
        append_field(&out, "stall_us", event.a);
        out += ",\"failed\":";
        out += event.b != 0 ? "true" : "false";
        break;
      case Kind::kNote:
        out += ",\"kind\":\"note\"";
        append_field(&out, "value", event.a);
        break;
    }
    out += "}";
  });
  out += "]}";
  return out;
}

// ---------------------------------------------------------------------------
// Fault attribution and trace-ID generation.
// ---------------------------------------------------------------------------

namespace {

void FlightFaultObserver(const char* site, bool failed, uint64_t stall_us) {
  if (FlightRecorder* rec = CurrentFlightRecorder()) {
    rec->RecordFault(site, failed, stall_us);
  }
}

}  // namespace

void InstallFlightFaultObserver() {
  fault::SetFireObserver(&FlightFaultObserver);
}

uint64_t NewTraceId() {
  // The per-process seed keeps IDs from colliding across runs whose logs
  // are later merged; the counter keeps them unique within a run.
  static const uint64_t seed =
      SplitMix64(NanoNow() ^ (reinterpret_cast<uintptr_t>(&NewTraceId)));
  static std::atomic<uint64_t> counter{0};
  const uint64_t n = counter.fetch_add(1, std::memory_order_relaxed) + 1;
  uint64_t id = SplitMix64(seed ^ n);
  if (id == 0) id = 1;
  return id;
}

std::string TraceIdHex(uint64_t trace_id) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(trace_id));
  return std::string(buf, 16);
}

}  // namespace alp::obs
