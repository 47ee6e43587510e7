#ifndef ALP_OBS_PERF_COUNTERS_H_
#define ALP_OBS_PERF_COUNTERS_H_

#include <cstdint>
#include <string>

#include "obs/metrics.h"  // ALP_OBS default + StageStats (PerfScope's sink).

/// \file perf_counters.h
/// Hardware-counter attribution over Linux `perf_event_open`. Where the
/// cycle clock (util/cycle_clock.h) says *how long* a stage or kernel tier
/// ran, this subsystem says *why*: instructions retired (IPC), cache
/// references/misses and branch mispredicts over the same interval, so a
/// tuples-per-cycle regression can be read as "decode went memory-bound"
/// instead of guessed at.
///
/// Design constraints, in order:
///
///  - **Never fatal.** Containers and hardened kernels routinely forbid
///    `perf_event_open` (`/proc/sys/kernel/perf_event_paranoid`, seccomp,
///    missing PMU in a VM). A process-wide probe classifies the environment
///    once; every consumer (benches, `alp stats --perf`, the server) keeps
///    working on the rdtsc-only path and *reports* the probe verdict instead
///    of failing. No API here returns a Status — unavailability is data.
///  - **Grouped per-thread counters.** Each thread lazily opens one counter
///    group (leader: cycles; siblings: instructions, cache-references,
///    cache-misses, branch-misses) so a single `read()` yields one coherent
///    snapshot of all five. Groups are scheduled onto the PMU together;
///    when the kernel multiplexes them against other sessions, the read
///    carries `time_enabled`/`time_running` and `PerfDelta` scales raw
///    deltas by enabled/running over the measured interval — the standard
///    multiplex correction. A sibling the PMU cannot host (common for
///    cache-references in VMs) is skipped, not fatal: its delta reads 0 and
///    the probe detail names the events that did open.
///  - **Opt-in on hot paths.** A group read is a syscall (~1 µs) — three
///    orders of magnitude over a ScopedTimer's rdtsc pair. Per-span
///    attribution therefore sits behind its own runtime gate
///    (`PerfSpansEnabled()`, default off, `ALP_OBS_PERF=1` or
///    `SetPerfSpansEnabled(true)`) separate from the metrics gate, which
///    ScopedTimer checks before arming its PerfScope; coarse consumers
///    (bench hot loops, one sample per request in the server) arm a
///    PerfScope directly and need no gate.
///  - **Compiled out with the rest of obs.** Under `-DALP_OBS=OFF` (or off
///    Linux) everything here is a stub: the probe reports why, reads return
///    false, a PerfScope never arms. Compressed bytes never depend on any of
///    this in any configuration.

namespace alp::obs {

// ---------------------------------------------------------------------------
// Probe: is perf_event_open usable in this process?
// ---------------------------------------------------------------------------

enum class PerfAvailability {
  kAvailable,            ///< Counter group opened; hardware attribution on.
  kCompiledOut,          ///< Library built with -DALP_OBS=OFF.
  kUnsupportedPlatform,  ///< Not Linux; no perf_event_open syscall.
  kForbidden,            ///< perf_event_paranoid / seccomp denied (EPERM/EACCES).
  kNoHardware,           ///< Syscall exists but no PMU (VMs: ENOENT/ENODEV).
};

/// Stable lowercase token for CI and JSON ("available", "compiled-out",
/// "unsupported-platform", "forbidden", "no-hardware").
const char* PerfAvailabilityName(PerfAvailability availability);

/// Result of the one-time process-wide capability probe.
struct PerfProbeResult {
  PerfAvailability availability = PerfAvailability::kCompiledOut;
  /// /proc/sys/kernel/perf_event_paranoid, or -1 when unreadable (non-Linux,
  /// masked /proc). Advisory: the trial open is what decides availability.
  int paranoid = -1;
  /// One human-readable line: which events opened, or why nothing could
  /// ("forbidden: perf_event_paranoid=4 (EACCES)"). Never empty.
  std::string detail;

  bool available() const {
    return availability == PerfAvailability::kAvailable;
  }
};

/// Probes once per process (trial counter group on the calling thread,
/// closed immediately) and caches the verdict. Never fatal, never throws;
/// thread-safe.
const PerfProbeResult& PerfProbe();

/// Shorthand for PerfProbe().available().
inline bool PerfAvailable() { return PerfProbe().available(); }

// ---------------------------------------------------------------------------
// Samples and per-thread reads
// ---------------------------------------------------------------------------

/// One reading (or scaled delta) of the five-event group. From
/// `PerfReadCurrent` the counter fields are raw cumulative values and
/// `time_enabled`/`time_running` are cumulative scheduling times; from
/// `PerfDelta` every field is an interval delta and the counters have been
/// multiplex-scaled (× enabled/running over the interval).
struct PerfSample {
  bool valid = false;
  uint64_t time_enabled = 0;   ///< ns the group was enabled.
  uint64_t time_running = 0;   ///< ns the group was actually on the PMU.
  uint64_t cycles = 0;
  uint64_t instructions = 0;
  uint64_t cache_references = 0;
  uint64_t cache_misses = 0;
  uint64_t branch_misses = 0;

  /// Multiplex scaling factor of this reading: 1.0 means the group owned
  /// the PMU the whole time, 2.0 means it ran half the time and counts were
  /// doubled. 0 when nothing ran.
  double Scale() const {
    return time_running == 0
               ? 0.0
               : static_cast<double>(time_enabled) /
                     static_cast<double>(time_running);
  }
  double Ipc() const {
    return cycles == 0 ? 0.0
                       : static_cast<double>(instructions) /
                             static_cast<double>(cycles);
  }
  double CacheMissRate() const {
    return cache_references == 0
               ? 0.0
               : static_cast<double>(cache_misses) /
                     static_cast<double>(cache_references);
  }

  /// Adds another interval's delta to this running total (every field,
  /// including the scheduling times Scale() divides).
  PerfSample& operator+=(const PerfSample& delta) {
    time_enabled += delta.time_enabled;
    time_running += delta.time_running;
    cycles += delta.cycles;
    instructions += delta.instructions;
    cache_references += delta.cache_references;
    cache_misses += delta.cache_misses;
    branch_misses += delta.branch_misses;
    return *this;
  }
};

/// Reads the calling thread's counter group into \p out (opening it lazily
/// on first use). Returns false — leaving *out invalid — when counters are
/// unavailable or the read fails; callers fall back to rdtsc-only data.
bool PerfReadCurrent(PerfSample* out);

/// Interval between two raw readings of the same thread's group, with the
/// multiplex correction applied. Invalid if either endpoint is.
PerfSample PerfDelta(const PerfSample& begin, const PerfSample& end);

// ---------------------------------------------------------------------------
// Per-span gate + RAII scope
// ---------------------------------------------------------------------------

/// Whether ScopedTimer spans also read hardware counters (two syscalls per
/// span — keep off for per-vector work; see the file comment). Defaults to
/// the ALP_OBS_PERF environment variable.
bool PerfSpansEnabled();
void SetPerfSpansEnabled(bool enabled);

/// One hardware-counter interval on the calling thread: Arm() takes the
/// begin reading (when counters are available); Finish() takes the end
/// reading and returns the scaled delta (invalid when never armed or a read
/// failed). It has no gate of its own: ScopedTimer arms one only while
/// PerfSpansEnabled(), and coarse consumers arm one directly.
/// Default-constructed state is disarmed and free, so embedding one in
/// every ScopedTimer costs nothing until it is armed.
class PerfScope {
 public:
  PerfScope() = default;
  PerfScope(const PerfScope&) = delete;
  PerfScope& operator=(const PerfScope&) = delete;

  void Arm() { armed_ = PerfReadCurrent(&begin_); }
  bool armed() const { return armed_; }

  PerfSample Finish() {
    PerfSample delta;  // invalid by default
    if (!armed_) return delta;
    armed_ = false;
    PerfSample end;
    if (!PerfReadCurrent(&end)) return delta;
    return PerfDelta(begin_, end);
  }

 private:
  PerfSample begin_;
  bool armed_ = false;
};

/// Publishes the probe verdict into the global MetricRegistry as gauge
/// `obs.perf.available` (1/0) so `alp stats` output and the Prometheus
/// exposition carry the capability alongside the numbers it qualifies.
/// Call after SetEnabled(true) (gauge writes honor the runtime gate).
void PublishPerfAvailability();

}  // namespace alp::obs

#endif  // ALP_OBS_PERF_COUNTERS_H_
