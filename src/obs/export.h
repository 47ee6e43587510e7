#ifndef ALP_OBS_EXPORT_H_
#define ALP_OBS_EXPORT_H_

#include <string>

#include "obs/metrics.h"
#include "util/status.h"

/// \file export.h
/// Snapshot exporter: the Prometheus text exposition format (for scrapers
/// and the CI linter), a pure function of a MetricsSnapshot. The JSON
/// rendering of the same snapshot is TraceSink::ToJson (obs/sink.h).
/// Surfaced through `alp stats --prom`, the server's periodic snapshot
/// thread, and `bench_serving_load --metrics-out=`.

namespace alp::obs {

/// Renders \p snapshot in the Prometheus text exposition format:
///  - names are sanitized (`.` → `_`, invalid chars → `_`) and prefixed
///    `alp_`; label blocks produced by LabeledName() pass through as
///    exposition-format labels;
///  - counters get a `_total` suffix and `# TYPE ... counter`;
///  - gauges are emitted as-is with `# TYPE ... gauge`;
///  - histograms become cumulative `_bucket{le="..."}` series plus `_sum`
///    and `_count` (the `le="+Inf"` bucket equals `_count`);
///  - stages become three counters: `_calls_total`, `_cycles_total`,
///    `_items_total`.
/// One `# TYPE` line per metric family, families name-sorted. Ends with a
/// trailing newline as the format requires.
std::string PrometheusText(const MetricsSnapshot& snapshot);

/// Atomically-enough writes \p content to \p path (truncate; flush; close).
/// The server's snapshot thread writes to `path + ".tmp"` and renames via
/// this helper's `atomic` flag so scrapers never read a torn file.
Status WriteTextFile(const std::string& path, const std::string& content,
                     bool atomic = false);

}  // namespace alp::obs

#endif  // ALP_OBS_EXPORT_H_
