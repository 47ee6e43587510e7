#ifndef ALP_UTIL_CYCLE_CLOCK_H_
#define ALP_UTIL_CYCLE_CLOCK_H_

#include <chrono>
#include <cstdint>

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#endif

/// \file cycle_clock.h
/// Cycle counter used by the benchmark harness to report the paper's
/// "tuples per CPU cycle" metric. On x86 this is RDTSC (the TSC ticks at the
/// base frequency, matching how the paper measures with turbo disabled);
/// elsewhere it falls back to a steady clock scaled by an estimated
/// frequency.

namespace alp {

/// Current cycle count. Only differences are meaningful.
inline uint64_t CycleNow() {
#if defined(__x86_64__) || defined(_M_X64)
  return __rdtsc();
#else
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(now).count();
  return static_cast<uint64_t>(ns);  // 1 "cycle" == 1 ns on non-x86 hosts.
#endif
}

/// Wall-clock nanoseconds from the steady clock. Only differences are
/// meaningful. The serving layer reports latencies in real time units (the
/// TSC is for throughput metrics; tail latencies want nanoseconds).
inline uint64_t NanoNow() {
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(now).count());
}

}  // namespace alp

#endif  // ALP_UTIL_CYCLE_CLOCK_H_
