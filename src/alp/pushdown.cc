#include "alp/pushdown.h"

#include <bit>
#include <cstring>

#include "alp/kernel_dispatch.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace alp::pushdown {
namespace {

constexpr unsigned kBitmapWords = kVectorSize / 64;

void NotePackedEval(VectorCounters* counters) {
  ++counters->packed_eval;
  ALP_OBS_ONLY({
    static auto& c = obs::MetricRegistry::Global().GetCounter(
        "engine.pushdown.vectors_packed_eval");
    c.Increment();
  });
}

void NoteMaterialized(VectorCounters* counters) {
  ++counters->decoded;
  ALP_OBS_ONLY({
    static auto& c = obs::MetricRegistry::Global().GetCounter(
        "engine.pushdown.vectors_materialized");
    c.Increment();
  });
}

// Clears bitmap bits at and beyond `len` (the encoder pads partial blocks
// with an in-range value, so tail lanes would otherwise qualify).
void ClearTail(uint64_t* bitmap, unsigned len) {
  const unsigned word = len / 64;
  if (word >= kBitmapWords) return;
  bitmap[word] &= (len % 64) ? ((uint64_t{1} << (len % 64)) - 1) : 0;
  for (unsigned w = word + 1; w < kBitmapWords; ++w) bitmap[w] = 0;
}

// Exception slots hold placeholder integers; their bitmap bits are decided
// from the exception *values* instead. List order so later entries win on
// (never encoder-produced) duplicate positions, matching patch semantics.
void FixupExceptionBits(const ColumnReader<double>::PackedVectorView& view,
                        const TranslatedPredicate& pred, uint64_t* bitmap) {
  for (unsigned i = 0; i < view.exc_count; ++i) {
    const unsigned pos = view.exc_positions[i];
    if (pos >= view.n) continue;
    const uint64_t bit = uint64_t{1} << (pos % 64);
    if (pred.Matches(std::bit_cast<double>(view.exc_bits[i]))) {
      bitmap[pos / 64] |= bit;
    } else {
      bitmap[pos / 64] &= ~bit;
    }
  }
}

unsigned PopcountBitmap(const uint64_t* bitmap) {
  unsigned n = 0;
  for (unsigned w = 0; w < kBitmapWords; ++w) {
    n += static_cast<unsigned>(std::popcount(bitmap[w]));
  }
  return n;
}

// Survivor index of `pos` in the compacted output: set bits before it.
unsigned Rank(const uint64_t* bitmap, unsigned pos) {
  unsigned r = 0;
  for (unsigned w = 0; w < pos / 64; ++w) {
    r += static_cast<unsigned>(std::popcount(bitmap[w]));
  }
  return r + static_cast<unsigned>(
                 std::popcount(bitmap[pos / 64] & ((uint64_t{1} << (pos % 64)) - 1)));
}

// Overwrites the gather's placeholder decodes at selected exception
// positions with the actual exception values.
void PatchSurvivors(const ColumnReader<double>::PackedVectorView& view,
                    const uint64_t* bitmap, double* values) {
  for (unsigned i = 0; i < view.exc_count; ++i) {
    const unsigned pos = view.exc_positions[i];
    if (pos >= view.n) continue;
    if (!(bitmap[pos / 64] & (uint64_t{1} << (pos % 64)))) continue;
    values[Rank(bitmap, pos)] = std::bit_cast<double>(view.exc_bits[i]);
  }
}

// Packed-domain view + applicable lane range, or nothing (fallback).
struct PackedPlan {
  ColumnReader<double>::PackedVectorView view;
  LaneRange range;
  bool ok = false;
};

PackedPlan PlanPacked(const ColumnReader<double>& reader, size_t v,
                      const TranslatedPredicate& pred) {
  PackedPlan plan;
  if (!reader.GetPackedVectorView(v, &plan.view)) return plan;
  plan.range = ToLaneRange(pred.Bounds(plan.view.c), plan.view.ffor);
  plan.ok = plan.range.applicable;
  return plan;
}

// SELECT on packed lanes: unpacks every lane into `lanes` and compares
// it, clears the tail, decides exception positions from their values, and
// returns the survivor count. An empty lane range still unpacks (lo > hi
// selects no lane), so a gather of exception-only survivors never reads
// stale lanes.
unsigned SelectPacked(const PackedPlan& plan, const TranslatedPredicate& pred,
                      uint64_t* lanes, uint64_t* bitmap) {
  const uint64_t lo = plan.range.empty ? 1 : plan.range.lo;
  const uint64_t hi = plan.range.empty ? 0 : plan.range.hi;
  kernels::Active().cmp_range64(plan.view.packed, plan.view.ffor.width, lo, hi,
                                lanes, bitmap);
  ClearTail(bitmap, plan.view.n);
  FixupExceptionBits(plan.view, pred, bitmap);
  return PopcountBitmap(bitmap);
}

// GATHER from unpacked lanes: decodes the survivors per `bitmap` into
// out[] in ascending index order, then patches selected exceptions.
unsigned GatherPacked(const ColumnReader<double>::PackedVectorView& view,
                      const uint64_t* lanes, const uint64_t* bitmap,
                      double* out) {
  const unsigned count = kernels::Active().gather64(
      lanes, view.ffor.base, AlpTraits<double>::kF10[view.c.f],
      AlpTraits<double>::kIF10[view.c.e], bitmap, out);
  PatchSurvivors(view, bitmap, out);
  return count;
}

}  // namespace

bool ZoneFullInside(const VectorStats& stats, const Predicate& pred) {
  if (!(stats.min <= stats.max)) return false;  // no comparable values
  return (pred.lo_open ? stats.min > pred.lo : stats.min >= pred.lo) &&
         (pred.hi_open ? stats.max < pred.hi : stats.max <= pred.hi);
}

bool CanSumWholeVector(const ColumnReader<double>& reader, size_t v,
                       const Predicate& pred) {
  if (reader.VectorScheme(v) != Scheme::kAlp) return false;
  if (!ZoneFullInside(reader.Stats(v), pred)) return false;
  if (reader.VectorExceptionCount(v) != 0) return false;
  NoteFullInsideVector();
  return true;
}

double FilterSumValues(const double* values, unsigned n, const Predicate& pred) {
  SurvivorSum ss;
  for (unsigned i = 0; i < n; ++i) {
    ss.AddPredicated(values[i], pred.Matches(values[i]));
  }
  return ss.Reduce();
}

unsigned SelectValues(const double* values, unsigned n, const Predicate& pred,
                      uint64_t* bitmap) {
  std::memset(bitmap, 0, kBitmapWords * sizeof(uint64_t));
  unsigned count = 0;
  for (unsigned i = 0; i < n; ++i) {
    const bool hit = pred.Matches(values[i]);
    bitmap[i / 64] |= uint64_t{hit} << (i % 64);
    count += hit;
  }
  return count;
}

unsigned CompactSelected(const double* values, unsigned n,
                         const uint64_t* bitmap, double* out) {
  unsigned count = 0;
  for (unsigned i = 0; i < n; ++i) {
    if (bitmap[i / 64] & (uint64_t{1} << (i % 64))) out[count++] = values[i];
  }
  return count;
}

Status FilterSumVector(const ColumnReader<double>& reader, size_t v,
                       const TranslatedPredicate& pred, EvalScratch* scratch,
                       double* sum, VectorCounters* counters) {
  const PackedPlan plan = PlanPacked(reader, v, pred);
  if (!plan.ok) {
    const unsigned len = reader.VectorLength(v);
    ALP_OBS_SPAN(span, "engine.pushdown.decode", len);
    NoteMaterialized(counters);
    Status s = reader.TryDecodeVector(v, scratch->values);
    if (s.ok()) *sum += FilterSumValues(scratch->values, len, pred.pred());
    return s;
  }
  const unsigned len = plan.view.n;
  ALP_OBS_SPAN(span, "engine.pushdown.packed", len);
  NotePackedEval(counters);
  const unsigned count =
      SelectPacked(plan, pred, scratch->lanes, scratch->bitmap);
  // Nothing survives: adding nothing equals the oracle's +0.0 (the -0.0
  // lemma). Everything survives (the zone map could not prove it, e.g.
  // exceptions in range): the fused decode beats a gather of all lanes.
  if (count == len) {
    Status s = reader.TryDecodeVector(v, scratch->values);
    if (!s.ok()) return s;
    *sum += StripedSumAll(scratch->values, len);
  } else if (count != 0) {
    GatherPacked(plan.view, scratch->lanes, scratch->bitmap, scratch->values);
    *sum += StripedSumAll(scratch->values, count);
  }
  return Status::Ok();
}

Status SelectVector(const ColumnReader<double>& reader, size_t v,
                    const TranslatedPredicate& pred, EvalScratch* scratch,
                    uint64_t* bitmap, unsigned* count, VectorCounters* counters) {
  const PackedPlan plan = PlanPacked(reader, v, pred);
  if (!plan.ok) {
    const unsigned len = reader.VectorLength(v);
    ALP_OBS_SPAN(span, "engine.pushdown.decode", len);
    NoteMaterialized(counters);
    Status s = reader.TryDecodeVector(v, scratch->values);
    if (s.ok()) *count = SelectValues(scratch->values, len, pred.pred(), bitmap);
    return s;
  }
  ALP_OBS_SPAN(span, "engine.pushdown.packed", plan.view.n);
  NotePackedEval(counters);
  *count = SelectPacked(plan, pred, scratch->lanes, bitmap);
  return Status::Ok();
}

Status GatherVector(const ColumnReader<double>& reader, size_t v,
                    const uint64_t* bitmap, EvalScratch* scratch, double* out,
                    VectorCounters* counters) {
  ColumnReader<double>::PackedVectorView view;
  if (!reader.GetPackedVectorView(v, &view)) {
    const unsigned len = reader.VectorLength(v);
    ALP_OBS_SPAN(span, "engine.pushdown.decode", len);
    NoteMaterialized(counters);
    Status s = reader.TryDecodeVector(v, scratch->values);
    if (s.ok()) CompactSelected(scratch->values, len, bitmap, out);
    return s;
  }
  ALP_OBS_SPAN(span, "engine.pushdown.gather", view.n);
  // Unpack the lanes through the compare kernel with the full range (the
  // all-ones side bitmap is discarded); then gather the selection.
  kernels::Active().cmp_range64(view.packed, view.ffor.width, 0, ~uint64_t{0},
                                scratch->lanes, scratch->bitmap);
  GatherPacked(view, scratch->lanes, bitmap, out);
  return Status::Ok();
}

void NoteSkippedVectors(size_t n) {
  ALP_OBS_ONLY({
    static auto& c = obs::MetricRegistry::Global().GetCounter(
        "engine.pushdown.vectors_skipped");
    c.Add(n);
  });
  (void)n;
}

void NoteFullInsideVector() {
  ALP_OBS_ONLY({
    static auto& c = obs::MetricRegistry::Global().GetCounter(
        "engine.pushdown.vectors_full_inside");
    c.Increment();
  });
}

}  // namespace alp::pushdown
