#ifndef ALP_ENGINE_OPERATORS_H_
#define ALP_ENGINE_OPERATORS_H_

#include <cstdint>

#include "alp/predicate.h"
#include "engine/column_store.h"
#include "util/cancellation.h"
#include "util/status.h"
#include "util/thread_pool.h"

/// \file operators.h
/// The vectorized query operators of the end-to-end experiments (paper
/// Section 4.3): SCAN decompresses every vector of a column; SUM pipes the
/// scan vector-at-a-time into an aggregation (in-memory ALP columns decode
/// one vector into L1 and reduce it before decoding the next). Both
/// parallelize over rowgroup morsels claimed from a shared counter, and
/// report elapsed cycles so the harness can compute the paper's
/// tuples-per-cycle-per-core metric.

namespace alp::engine {

/// The engine shares the instrumented work-stealing pool from util/ — its
/// SPMD Run(fn(worker_index)) entry point covers the morsel-loop operators
/// here, so the engine no longer carries a pool of its own.
using ::alp::ThreadPool;

/// Outcome of one query execution. When `status` is non-OK (the query was
/// cancelled, missed its deadline, or hit an injected fault mid-flight) the
/// data fields are meaningless partial state and must not be consumed — the
/// serving layer only publishes results whose status is OK.
struct QueryResult {
  Status status;           ///< OK, or why the query stopped early.
  double sum = 0.0;        ///< Aggregate (SUM query; checksum for SCAN).
  uint64_t cycles = 0;     ///< Elapsed cycles (wall TSC) for the query.
  size_t tuples = 0;       ///< Logical tuples processed.
  size_t vectors_skipped = 0;  ///< Vectors never decoded (FILTER push-down).
  size_t vectors_packed_eval = 0;   ///< Vectors filtered on packed lanes.
  size_t vectors_full_inside = 0;   ///< Vectors summed whole (zone-map proof).
  unsigned threads = 1;

  /// The paper's Table 6 metric.
  double TuplesPerCyclePerCore() const {
    return cycles == 0 ? 0.0
                       : static_cast<double>(tuples) /
                             (static_cast<double>(cycles) * threads);
  }

  /// Figure 6's metric (lower is better).
  double CyclesPerTuple() const {
    return tuples == 0 ? 0.0
                       : static_cast<double>(cycles) * threads /
                             static_cast<double>(tuples);
  }
};

/// All morsel-loop operators below poll an optional OpContext between
/// rowgroup morsels (and observe the engine.rowgroup fault site), so a
/// cancelled or deadline-missed query stops within one morsel's work and
/// reports kCancelled/kDeadlineExceeded in QueryResult::status. When
/// several workers stop at once, the lowest-indexed morsel's Status wins —
/// the same one a serial scan would have hit first.

/// SCAN: decompress every rowgroup (vector-at-a-time consumption is modeled
/// by a per-vector checksum touch so the compiler cannot elide the work).
QueryResult RunScan(const StoredColumn& column, ThreadPool& pool,
                    const OpContext* ctx = nullptr);

/// SUM: scan + aggregate. One definition for every storage kind: a
/// vector's sum is pushdown::StripedSumAll (the FILTER-SUM oracle with
/// every value selected), vector sums are added in index order into their
/// rowgroup's partial, and each rowgroup partial is added into its worker's
/// accumulator. On a 1-worker pool SUM of NaN-free data therefore equals,
/// bit for bit and on any storage, FILTER-SUM over a range holding every
/// value; and no vector pays a serial FP-add chain.
QueryResult RunSum(const StoredColumn& column, ThreadPool& pool,
                   const OpContext* ctx = nullptr);

/// COMP: (re)compress \p data into the same storage scheme as \p column,
/// measuring compression cycles; the result buffer is discarded.
QueryResult RunCompression(const StoredColumn& column, const double* data, size_t n);

/// How FILTER queries evaluate vectors that survive the zone map.
enum class FilterMode {
  /// Compressed-domain execution: the predicate is translated into the
  /// integer domain and evaluated on FFOR-packed lanes; only survivors are
  /// materialized (alp/pushdown.h). Vectors the packed path cannot serve
  /// (ALP_rd, Delta, non-ALP storage) decode-then-filter per vector.
  kAuto,
  /// Always decode every surviving vector and run the predicated loop —
  /// the bit-identity oracle the packed path is measured and tested
  /// against.
  kDecodeThenFilter,
};

/// FILTER + SUM: SUM(x) WHERE lo <= x <= hi. ALP columns push the predicate
/// down to the per-vector zone maps and skip decoding disjoint vectors (the
/// paper's skippability advantage); block-based storage must decode whole
/// rowgroups. `vectors_skipped` in the result reports the push-down effect.
QueryResult RunFilterSum(const StoredColumn& column, double lo, double hi,
                         ThreadPool& pool, const OpContext* ctx = nullptr);

/// General form: arbitrary open/closed range predicate and an explicit
/// evaluation mode. Both modes return bit-identical sums (enforced by
/// tests/test_pushdown.cc at every kernel tier); kAuto additionally
/// reports `vectors_packed_eval` / `vectors_full_inside`.
QueryResult RunFilterSum(const StoredColumn& column, const Predicate& pred,
                         ThreadPool& pool, const OpContext* ctx = nullptr,
                         FilterMode mode = FilterMode::kAuto);

/// MIN/MAX aggregate. ALP columns answer from the zone maps alone - zero
/// vectors decoded (vectors_skipped == all) - while every other storage
/// scheme must materialize the data. NaNs are ignored, SQL-style.
QueryResult RunMinMax(const StoredColumn& column, ThreadPool& pool, double* min_out,
                      double* max_out, const OpContext* ctx = nullptr);

}  // namespace alp::engine

#endif  // ALP_ENGINE_OPERATORS_H_
