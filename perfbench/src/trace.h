#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

/// \file trace.h
/// In-memory spans for the traced run, recorded from the benchmark's own
/// code around its calls into each library layer. Header-only and free of
/// library dependencies so tests/test_stats.cc can check the ledger rule.
///
/// Each measured unit of work (one column ingested, one query, one
/// request) is a root span named "unit.<kind>". Its children are the layer
/// calls that make up the same work, replayed one at a time right after
/// the unit with the same inputs, plus, on `serve`, the server's own
/// queue/exec split. Because replayed children do not sit inside their
/// parent's interval, a span's self time is its duration minus the summed
/// durations of its children (not minus their interval cover). Summed over
/// one tree the self times telescope to the root's duration exactly, so
/// the root's own self time is the unattributed remainder of the unit:
///
///   unit duration == root self (unattributed) + sum of layer self times
///
/// It is signed: a replay that costs more than the unit reads negative.

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Span {
  const char* name = "";  ///< Static string: "unit.<kind>" or a layer name.
  uint32_t parent = 0;    ///< Parent span id; 0 for a root.
  uint64_t request = 0;   ///< Unit id (the server's trace id on `serve`).
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;

  int64_t duration_ns() const {
    return static_cast<int64_t>(end_ns) - static_cast<int64_t>(start_ns);
  }
};

/// Unit-root prefix; roots with any other name (probes) stay out of the
/// ledger.
inline constexpr char kUnitPrefix[] = "unit.";

class Tracer {
 public:
  /// Opens a span now and returns its id (ids start at 1).
  uint32_t Begin(const char* name, uint32_t parent, uint64_t request) {
    return Add(name, parent, request, NowNs(), 0);
  }
  void End(uint32_t id) {
    if (id != 0) spans_[id - 1].end_ns = NowNs();
  }

  /// Records a span whose interval was measured elsewhere. Past the
  /// capacity the span is dropped and 0 returned; callers check full()
  /// before opening a unit, so only a runaway tree can lose spans.
  uint32_t Add(const char* name, uint32_t parent, uint64_t request,
               uint64_t start_ns, uint64_t end_ns) {
    if (spans_.size() >= kCapacity) {
      ++dropped_;
      return 0;
    }
    spans_.push_back({name, parent, request, start_ns, end_ns});
    return static_cast<uint32_t>(spans_.size());
  }

  /// Whether another unit tree may not fit: the traced run stops there.
  bool full() const { return spans_.size() + kTreeHeadroom >= kCapacity; }

  const std::vector<Span>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }

  /// Self time of every span (index = id - 1): duration minus the summed
  /// durations of its children.
  std::vector<int64_t> SelfNs() const {
    std::vector<int64_t> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].duration_ns();
    for (const Span& s : spans_) {
      if (s.parent != 0) self[s.parent - 1] -= s.duration_ns();
    }
    return self;
  }

  /// Summed duration of every span named \p name, in nanoseconds.
  double TotalNs(const std::string& name) const {
    int64_t sum = 0;
    for (const Span& s : spans_) sum += name == s.name ? s.duration_ns() : 0;
    return static_cast<double>(sum);
  }

  /// The reconciliation of every unit tree.
  struct Ledger {
    int64_t e2e_ns = 0;                     ///< Summed unit durations.
    int64_t unattributed_ns = 0;            ///< Summed unit self times.
    std::map<std::string, int64_t> layer_self_ns;  ///< Non-root self times.
    size_t units = 0;

    int64_t AttributedNs() const {
      int64_t sum = 0;
      for (const auto& [name, ns] : layer_self_ns) sum += ns;
      return sum;
    }
    double UnattributedFrac() const {
      return e2e_ns == 0 ? 0.0
                         : static_cast<double>(unattributed_ns) /
                               static_cast<double>(e2e_ns);
    }
  };

  Ledger BuildLedger() const {
    const std::vector<int64_t> self = SelfNs();
    // A span belongs to a unit tree when its root is a unit root.
    std::vector<uint8_t> in_unit(spans_.size(), 0);
    Ledger ledger;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.parent == 0) {
        in_unit[i] = std::string(s.name).rfind(kUnitPrefix, 0) == 0;
        if (in_unit[i]) {
          ledger.e2e_ns += s.duration_ns();
          ledger.unattributed_ns += self[i];
          ++ledger.units;
        }
      } else {
        // Parents are always recorded before their children.
        in_unit[i] = in_unit[s.parent - 1];
        if (in_unit[i]) ledger.layer_self_ns[s.name] += self[i];
      }
    }
    return ledger;
  }

  /// Writes every span as one JSON document; \p context_json is an object
  /// literal copied in verbatim, and \p tier goes on every record.
  bool WriteJson(const std::string& path, const std::string& context_json,
                 const std::string& tier) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"context\": %s, \"dropped\": %llu, \"spans\": [\n",
                 context_json.c_str(), static_cast<unsigned long long>(dropped_));
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"id\": %zu, \"parent\": %u, \"name\": \"%s\", "
                   "\"request\": %llu, \"start_ns\": %llu, \"end_ns\": %llu, "
                   "\"tier\": \"%s\"}",
                   i == 0 ? "" : ",\n", i + 1, s.parent, s.name,
                   static_cast<unsigned long long>(s.request),
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns), tier.c_str());
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  static constexpr size_t kCapacity = size_t{1} << 20;
  static constexpr size_t kTreeHeadroom = 8192;  ///< Largest unit tree.

  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
};

/// Opens a span on construction and closes it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint32_t parent, uint64_t request)
      : tracer_(tracer), id_(tracer->Begin(name, parent, request)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  uint32_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
