#include "alp/pushdown.h"

#include <bit>
#include <cstring>

#include "alp/kernel_dispatch.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace alp::pushdown {
namespace {

constexpr unsigned kBitmapWords = kVectorSize / 64;

void NotePackedEval() {
  ALP_OBS_ONLY({
    static auto& c = obs::MetricRegistry::Global().GetCounter(
        "engine.pushdown.vectors_packed_eval");
    c.Increment();
  });
}

void NoteMaterialized() {
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
// Returns whether any exception position ended up selected.
bool FixupExceptionBits(const ColumnReader<double>::PackedVectorView& view,
                        const TranslatedPredicate& pred, unsigned len,
                        uint64_t* bitmap) {
  bool any = false;
  for (unsigned i = 0; i < view.exc_count; ++i) {
    const unsigned pos = view.exc_positions[i];
    if (pos >= len) continue;
    const uint64_t bit = uint64_t{1} << (pos % 64);
    if (pred.Matches(std::bit_cast<double>(view.exc_bits[i]))) {
      bitmap[pos / 64] |= bit;
      any = true;
    } else {
      bitmap[pos / 64] &= ~bit;
    }
  }
  return any;
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
                    unsigned len, const uint64_t* bitmap, double* values) {
  for (unsigned i = 0; i < view.exc_count; ++i) {
    const unsigned pos = view.exc_positions[i];
    if (pos >= len) continue;
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

bool FilterSumVector(const ColumnReader<double>& reader, size_t v,
                     const TranslatedPredicate& pred, EvalScratch* scratch,
                     double* sum, VectorCounters* counters) {
  const PackedPlan plan = PlanPacked(reader, v, pred);
  if (plan.ok) {
    const unsigned len = plan.view.n;
    ALP_OBS_SPAN(span, "engine.pushdown.packed", len);
    ++counters->packed_eval;
    NotePackedEval();
    SurvivorSum ss;
    if (plan.range.empty) {
      // No lane can qualify; only exception values (ascending positions,
      // hence index order) can match.
      for (unsigned i = 0; i < plan.view.exc_count; ++i) {
        if (plan.view.exc_positions[i] >= len) continue;
        const double x = std::bit_cast<double>(plan.view.exc_bits[i]);
        if (pred.Matches(x)) ss.Add(x);
      }
      *sum += ss.Reduce();
      return true;
    }
    const kernels::DecodeKernels& k = kernels::Active();
    k.cmp_range64(plan.view.packed, plan.view.ffor.width, plan.range.lo,
                  plan.range.hi, scratch->lanes, scratch->bitmap);
    ClearTail(scratch->bitmap, len);
    const bool exc_selected =
        FixupExceptionBits(plan.view, pred, len, scratch->bitmap);
    const unsigned selected = PopcountBitmap(scratch->bitmap);
    if (selected == len) {
      // Everything survives (but the zone map couldn't prove it up front,
      // e.g. exceptions in range): fused SIMD decode + vectorized striped
      // sum, no gather and no predicate.
      reader.DecodeVector(v, scratch->values);
      *sum += StripedSumAll(scratch->values, len);
      return true;
    }
    if (selected * 4 >= len * 3) {
      // Dense selection: the fused SIMD decode beats a survivor-at-a-time
      // gather when most lanes survive anyway. The bitmap (already exact:
      // packed compare + exception fixup) drives the oracle's predicated
      // striped loop over the decoded values.
      reader.DecodeVector(v, scratch->values);
      for (unsigned i = 0; i < len; ++i) {
        const bool bit =
            (scratch->bitmap[i / 64] >> (i % 64)) & 1u;
        ss.AddPredicated(scratch->values[i], bit);
      }
      *sum += ss.Reduce();
      return true;
    }
    const double f10_f = AlpTraits<double>::kF10[plan.view.c.f];
    const double if10_e = AlpTraits<double>::kIF10[plan.view.c.e];
    const unsigned count = k.gather64(scratch->lanes, plan.view.ffor.base,
                                      f10_f, if10_e, scratch->bitmap,
                                      scratch->values);
    if (exc_selected) {
      PatchSurvivors(plan.view, len, scratch->bitmap, scratch->values);
    }
    *sum += StripedSumAll(scratch->values, count);
    return true;
  }

  // Decode-then-filter fallback: exactly the oracle loop.
  const unsigned len = reader.VectorLength(v);
  ALP_OBS_SPAN(span, "engine.pushdown.decode", len);
  ++counters->decoded;
  NoteMaterialized();
  reader.DecodeVector(v, scratch->values);
  SurvivorSum ss;
  for (unsigned i = 0; i < len; ++i) {
    const double x = scratch->values[i];
    ss.AddPredicated(x, pred.Matches(x));
  }
  *sum += ss.Reduce();
  return false;
}

bool SelectVector(const ColumnReader<double>& reader, size_t v,
                  const TranslatedPredicate& pred, EvalScratch* scratch,
                  uint64_t* bitmap, unsigned* count, VectorCounters* counters) {
  const PackedPlan plan = PlanPacked(reader, v, pred);
  if (plan.ok) {
    const unsigned len = plan.view.n;
    ALP_OBS_SPAN(span, "engine.pushdown.packed", len);
    ++counters->packed_eval;
    NotePackedEval();
    if (plan.range.empty) {
      std::memset(bitmap, 0, kBitmapWords * sizeof(uint64_t));
      FixupExceptionBits(plan.view, pred, len, bitmap);
    } else {
      kernels::Active().cmp_range64(plan.view.packed, plan.view.ffor.width,
                                    plan.range.lo, plan.range.hi,
                                    scratch->lanes, bitmap);
      ClearTail(bitmap, len);
      FixupExceptionBits(plan.view, pred, len, bitmap);
    }
    *count = PopcountBitmap(bitmap);
    return true;
  }

  const unsigned len = reader.VectorLength(v);
  ALP_OBS_SPAN(span, "engine.pushdown.decode", len);
  ++counters->decoded;
  NoteMaterialized();
  reader.DecodeVector(v, scratch->values);
  std::memset(bitmap, 0, kBitmapWords * sizeof(uint64_t));
  unsigned n = 0;
  for (unsigned i = 0; i < len; ++i) {
    if (pred.Matches(scratch->values[i])) {
      bitmap[i / 64] |= uint64_t{1} << (i % 64);
      ++n;
    }
  }
  *count = n;
  return false;
}

unsigned GatherVector(const ColumnReader<double>& reader, size_t v,
                      const uint64_t* bitmap, EvalScratch* scratch,
                      double* out, VectorCounters* counters) {
  ColumnReader<double>::PackedVectorView view;
  if (reader.GetPackedVectorView(v, &view)) {
    ALP_OBS_SPAN(span, "engine.pushdown.gather", view.n);
    // Unpack the lanes through the compare kernel with the full range
    // (the all-ones side bitmap is discarded); then gather the selection.
    const kernels::DecodeKernels& k = kernels::Active();
    k.cmp_range64(view.packed, view.ffor.width, 0, ~uint64_t{0},
                  scratch->lanes, scratch->bitmap);
    const double f10_f = AlpTraits<double>::kF10[view.c.f];
    const double if10_e = AlpTraits<double>::kIF10[view.c.e];
    const unsigned count = k.gather64(scratch->lanes, view.ffor.base, f10_f,
                                      if10_e, bitmap, out);
    for (unsigned i = 0; i < view.exc_count; ++i) {
      const unsigned pos = view.exc_positions[i];
      if (pos >= view.n) continue;
      if (!(bitmap[pos / 64] & (uint64_t{1} << (pos % 64)))) continue;
      out[Rank(bitmap, pos)] = std::bit_cast<double>(view.exc_bits[i]);
    }
    return count;
  }

  const unsigned len = reader.VectorLength(v);
  ALP_OBS_SPAN(span, "engine.pushdown.decode", len);
  ++counters->decoded;
  NoteMaterialized();
  reader.DecodeVector(v, scratch->values);
  unsigned count = 0;
  for (unsigned i = 0; i < len; ++i) {
    if (bitmap[i / 64] & (uint64_t{1} << (i % 64))) {
      out[count++] = scratch->values[i];
    }
  }
  return count;
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
