#ifndef ALP_ALP_PUSHDOWN_H_
#define ALP_ALP_PUSHDOWN_H_

#include <cstddef>
#include <cstdint>

#include "alp/column.h"
#include "alp/constants.h"
#include "alp/predicate.h"

/// \file pushdown.h
/// Per-vector compressed-domain FILTER, shared by the engine operators, the
/// out-of-core reader and the server. Filtered aggregation is one pipeline,
/// and pushdown.cc writes each step once:
///   1. Select. The dispatched cmp_range64 kernel compares a translated
///      range predicate (alp/predicate.h) on the vector's FFOR-packed lanes,
///      leaving the unpacked lanes in EvalScratch. Tail lanes are cleared
///      and exception positions are decided from the exception values. A
///      vector with no packed plan decodes and selects from its values
///      (SelectValues) into the same bitmap and count.
///   2. Gather. gather64 late-materializes the survivors, in ascending
///      index order, from the lanes the select unpacked; selected
///      exceptions are patched in at their rank. Values already in memory
///      are compacted by walking the bitmap (CompactSelected).
///   3. Sum. StripedSumAll over the compacted survivors (StripedDotAll for
///      survivor products).
/// FilterSumVector is select, then: nothing survives, add nothing; every
/// lane survives, fused decode + StripedSumAll; otherwise gather +
/// StripedSumAll. There is no dense plan: at 70-99% survivors the gather
/// measured faster than a decode plus the predicated oracle loop on every
/// tier (DESIGN.md §9 has the cycles).
///
/// Selection-vector format: 16 little-endian uint64 words, bit i of word
/// i/64 = lane i qualifies. Tail bits at and beyond the vector length are
/// always clear.
///
/// Bit-identity contract: every function here produces results bitwise
/// identical to the decode-then-filter oracle at every kernel tier. The
/// oracle is defined per vector as a *striped survivor sum* (SurvivorSum
/// below): survivors in ascending index order are added round-robin into 8
/// accumulators keyed by survivor ordinal, reduced by a fixed tree, and
/// the vector's reduction is added to the running query sum. Eight
/// independent accumulators break the loop-carried FP-add latency chain a
/// single serial sum would impose — the whole point of late materializing
/// into a compacted array — while staying fully deterministic.
///
/// Skipping a non-survivor's `+= 0.0` (or a skipped vector's `+= +0.0`
/// reduction) is exact because an accumulator that starts at +0.0 can
/// never become -0.0 (IEEE-754 round-to-nearest: +0.0 + (-0.0) = +0.0,
/// and exact cancellation of non-zero addends yields +0.0), and x + 0.0
/// == x for every x except -0.0.
///
/// Fallback matrix — these decode-then-filter per vector, bit-identically:
///   - ALP_rd rowgroups (lanes are bit-split raw doubles, not decimals;
///     RD also round-trips NaN *without* exceptions),
///   - Delta-encoded vectors (no frame-of-reference lane domain),
///   - hand-built frames whose base + mask overflows int64 (the lane
///     range does not apply; the decode still may).
/// A corrupt/hostile header (invalid width/e/f, out-of-buffer extents, an
/// exception position >= n) has no packed view either. Its fallback decode
/// is TryDecodeVector's, so the call returns kCorrupt and adds nothing.
/// NaN/±inf/-0.0 *values* need no fallback: they only ever appear as ALP
/// exceptions, which are always checked with the double predicate.

namespace alp::pushdown {

/// Per-call vector accounting, accumulated by the caller into query
/// results; the same events also feed the global obs counters
/// engine.pushdown.vectors_{skipped,packed_eval,materialized,full_inside}.
struct VectorCounters {
  size_t skipped = 0;      ///< vectors excluded by the zone map
  size_t packed_eval = 0;  ///< vectors filtered on packed lanes
  size_t decoded = 0;      ///< vectors that fell back to decode-then-filter
  size_t full_inside = 0;  ///< vectors summed whole via the zone-map proof
};

/// Reusable per-worker scratch: unpacked lanes (filled by the compare
/// kernel, reused by the gather so lanes unpack once), survivor values,
/// and a spare bitmap.
struct EvalScratch {
  alignas(64) uint64_t lanes[kVectorSize];
  alignas(64) double values[kVectorSize];
  uint64_t bitmap[kVectorSize / 64];
};

/// The canonical per-vector filtered-sum accumulator — THE definition of
/// the oracle every execution path must match bitwise. Survivors (in
/// ascending index order) go round-robin into 8 accumulators keyed by
/// survivor ordinal; Reduce() folds them with a fixed tree. Every path —
/// packed-lane, decode-then-filter, cache-hit, full-inside — feeds the
/// same survivor sequence through this same structure, so their results
/// are bitwise equal while no path pays a 1024-deep serial FP-add chain.
struct SurvivorSum {
  double acc[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
  unsigned k = 0;  ///< Survivor ordinal (stripe cursor).

  /// Adds survivor \p x (known to match).
  void Add(double x) { acc[k++ & 7] += x; }

  /// The oracle's predicated form (FilterSumValues): non-survivors add
  /// +0.0 to the current stripe without advancing it (exact no-op; see the
  /// -0.0 lemma). One serial FP-add chain over the vector, so only the
  /// oracle runs it.
  void AddPredicated(double x, bool selected) {
    acc[k & 7] += selected ? x : 0.0;
    k += selected ? 1u : 0u;
  }

  /// Fixed reduction tree; +0.0 when no survivor was added.
  double Reduce() const {
    return ((acc[0] + acc[1]) + (acc[2] + acc[3])) +
           ((acc[4] + acc[5]) + (acc[6] + acc[7]));
  }
};

/// StripedSumAll(v, n) == { SurvivorSum ss; for i < n: ss.Add(v[i]);
/// ss.Reduce() } — bit-for-bit, but with the stripe index static (i & 7),
/// so the eight accumulator chains are independent in registers and the
/// compiler can vectorize them (one vaddpd per 8 values instead of a
/// serial FP-add every value). Use whenever every element survives: the
/// compacted output of a gather, a full-inside vector, survivor products.
inline double StripedSumAll(const double* v, unsigned n) {
  double acc[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
  unsigned i = 0;
  for (; i + 8 <= n; i += 8) {
    for (unsigned j = 0; j < 8; ++j) acc[j] += v[i + j];
  }
  // The < 8 tail lanes: i is a multiple of 8, so lane i + j is stripe j.
  for (unsigned j = 0; j < 8 && i + j < n; ++j) acc[j] += v[i + j];
  return ((acc[0] + acc[1]) + (acc[2] + acc[3])) +
         ((acc[4] + acc[5]) + (acc[6] + acc[7]));
}

/// Survivor-product variant: bitwise equal to feeding a[i] * b[i] for
/// i < n through SurvivorSum.
inline double StripedDotAll(const double* a, const double* b, unsigned n) {
  double acc[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
  unsigned i = 0;
  for (; i + 8 <= n; i += 8) {
    for (unsigned j = 0; j < 8; ++j) acc[j] += a[i + j] * b[i + j];
  }
  for (unsigned j = 0; j < 8 && i + j < n; ++j) acc[j] += a[i + j] * b[i + j];
  return ((acc[0] + acc[1]) + (acc[2] + acc[3])) +
         ((acc[4] + acc[5]) + (acc[6] + acc[7]));
}

/// Whether the zone map *proves* every decodable value of the vector
/// satisfies \p pred. Only a proof when the vector is ALP-scheme with
/// zero exceptions: ALP forces NaN/±inf into exceptions (so no-exception
/// vectors hold only finite values inside [min, max]), while ALP_rd
/// round-trips NaN with no exception record.
bool ZoneFullInside(const VectorStats& stats, const Predicate& pred);

/// ZoneFullInside plus the scheme / exception-count gate, for readers
/// that carry a zone map (not rowgroup-chunk readers).
bool CanSumWholeVector(const ColumnReader<double>& reader, size_t v,
                       const Predicate& pred);

/// The decode-then-filter oracle for one vector's values: every value fed
/// through SurvivorSum::AddPredicated, reduced. Every other path must match
/// it bit for bit.
double FilterSumValues(const double* values, unsigned n, const Predicate& pred);

/// Select from values already in memory: writes the 16-word selection
/// bitmap of values[0, n) under \p pred and returns the survivor count.
unsigned SelectValues(const double* values, unsigned n, const Predicate& pred,
                      uint64_t* bitmap);

/// Gather from values already in memory: copies the survivors of
/// values[0, n) per \p bitmap into out[] in ascending index order and
/// returns their count.
unsigned CompactSelected(const double* values, unsigned n,
                         const uint64_t* bitmap, double* out);

/// The three per-vector steps below evaluate on packed lanes when the
/// vector has a packed plan and otherwise decode through TryDecodeVector
/// (see the fallback matrix); counters->packed_eval or counters->decoded
/// records which path ran. Each returns the decode's Status: a vector the
/// decoder rejects (or an injected column.decode_vector fault) returns
/// non-OK and leaves every output argument untouched.

/// Filters vector \p v and adds the qualifying values to *sum in index
/// order: select, then gather + StripedSumAll (see the file comment).
/// Zone-map skipping and the full-inside fast path are the caller's job.
Status FilterSumVector(const ColumnReader<double>& reader, size_t v,
                       const TranslatedPredicate& pred, EvalScratch* scratch,
                       double* sum, VectorCounters* counters);

/// The select step alone: vector \p v's selection bitmap (16 words) under
/// \p pred and its survivor count.
Status SelectVector(const ColumnReader<double>& reader, size_t v,
                    const TranslatedPredicate& pred, EvalScratch* scratch,
                    uint64_t* bitmap, unsigned* count, VectorCounters* counters);

/// The gather step alone: materializes vector \p v's survivors per
/// \p bitmap into out[] (room for the bitmap's popcount) in ascending
/// index order. Works for any selection bitmap (the predicate is not
/// needed): unpacks and gathers when the vector is FFOR-packed, else
/// decodes and compacts.
Status GatherVector(const ColumnReader<double>& reader, size_t v,
                    const uint64_t* bitmap, EvalScratch* scratch, double* out,
                    VectorCounters* counters);

/// Records zone-map-skipped vectors on the obs counter
/// engine.pushdown.vectors_skipped (no-op without ALP_OBS).
void NoteSkippedVectors(size_t n);

/// Records one full-inside fast-path vector on the obs counter
/// engine.pushdown.vectors_full_inside. CanSumWholeVector records
/// automatically; callers proving full-inside from an external zone map
/// (the out-of-core reader) record through this.
void NoteFullInsideVector();

}  // namespace alp::pushdown

#endif  // ALP_ALP_PUSHDOWN_H_
