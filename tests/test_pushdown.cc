// Compressed-domain predicate push-down: exactness of the e/f predicate
// translation (on-grid and off-grid constants, open vs closed bounds,
// NaN/±inf/-0.0/subnormals), lane-range rebasing edge cases, the striped
// survivor-sum oracle helpers, and randomized bitwise parity between the
// packed-lane execution path and the decode-then-filter oracle — across
// every kernel tier this host supports, through the in-memory engine, the
// out-of-core seekable path, and the two-column dot-sum.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "alp/kernel_dispatch.h"
#include "alp/predicate.h"
#include "alp/pushdown.h"
#include "engine/operators.h"
#include "engine/table.h"
#include "io/decoded_vector_cache.h"
#include "util/bits.h"

namespace alp {
namespace {

using engine::FilterMode;
using engine::QueryResult;
using engine::RunFilterSum;
using engine::StoredColumn;
using engine::ThreadPool;
using kernels::DecodeKernels;
using kernels::Tier;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

struct TierGuard {
  TierGuard() = default;
  TierGuard(const TierGuard&) = delete;
  TierGuard& operator=(const TierGuard&) = delete;
  ~TierGuard() { kernels::ResetForTesting(); }
};

std::vector<const DecodeKernels*> AvailableTiers() {
  std::vector<const DecodeKernels*> tiers;
  for (unsigned t = 0; t < kernels::kTierCount; ++t) {
    if (const DecodeKernels* k = kernels::TierKernels(static_cast<Tier>(t))) {
      tiers.push_back(k);
    }
  }
  return tiers;
}

/// The ALP decode map for one (e, f) combination — the same two ordered
/// multiplies every kernel tier performs.
double DecodeInt(int64_t d, uint8_t e, uint8_t f) {
  return static_cast<double>(d) * AlpTraits<double>::kF10[f] *
         AlpTraits<double>::kIF10[e];
}

/// Clustered drifting series (zone maps discriminate, ALP compresses).
std::vector<double> Clustered(size_t n, uint64_t seed = 7) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> step(-1.0, 1.0);
  std::vector<double> data(n);
  double level = 500.0;
  for (auto& v : data) {
    level += step(rng);
    // Two decimal places: decimal data, the ALP sweet spot.
    v = std::round(level * 100.0) / 100.0;
  }
  return data;
}

/// Clustered data with specials sprinkled in (they become ALP exceptions).
std::vector<double> WithSpecials(size_t n) {
  auto data = Clustered(n, 11);
  const double specials[] = {kNaN,
                             kInf,
                             -kInf,
                             -0.0,
                             std::numeric_limits<double>::denorm_min(),
                             1e300,
                             -1e-300};
  std::mt19937_64 rng(13);
  for (size_t i = 0; i < n / 97 + 1; ++i) {
    data[rng() % n] = specials[rng() % (sizeof(specials) / sizeof(double))];
  }
  return data;
}

/// Full-precision randoms: ALP cannot find a decimal grid, so rowgroups
/// land on ALP_rd (or exception-heavy vectors) — the fallback matrix.
std::vector<double> HighPrecision(size_t n) {
  std::mt19937_64 rng(17);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> data(n);
  for (auto& v : data) v = dist(rng);
  return data;
}

/// Bitwise parity between the packed path and the oracle, at one tier.
void ExpectModeParity(const StoredColumn& column, const Predicate& pred,
                      QueryResult* auto_result = nullptr) {
  ThreadPool pool(1);  // Deterministic partial-sum order.
  const QueryResult a = RunFilterSum(column, pred, pool, nullptr,
                                     FilterMode::kAuto);
  const QueryResult d = RunFilterSum(column, pred, pool, nullptr,
                                     FilterMode::kDecodeThenFilter);
  ASSERT_TRUE(a.status.ok());
  ASSERT_TRUE(d.status.ok());
  EXPECT_EQ(BitsOf(a.sum), BitsOf(d.sum))
      << "auto=" << a.sum << " oracle=" << d.sum;
  if (auto_result != nullptr) *auto_result = a;
}

// ---------------------------------------------------------------------------
// Predicate translation: exactness against the decode map.
// ---------------------------------------------------------------------------

/// For a predicate and one (e, f), integer membership must equal double
/// membership of the decoded value — for every probed integer.
void CheckTranslation(const Predicate& pred, uint8_t e, uint8_t f,
                      const std::vector<int64_t>& probes) {
  const IntBounds b = TranslateToInts(pred, e, f);
  for (int64_t d : probes) {
    const bool in_ints = !b.empty && d >= b.lo && d <= b.hi;
    const bool in_doubles = pred.Matches(DecodeInt(d, e, f));
    EXPECT_EQ(in_ints, in_doubles)
        << "d=" << d << " e=" << int(e) << " f=" << int(f)
        << " decode=" << DecodeInt(d, e, f);
  }
}

std::vector<int64_t> BoundaryProbes(const IntBounds& b) {
  std::vector<int64_t> probes = {0, 1, -1, 1000, -1000};
  if (!b.empty) {
    for (int64_t edge : {b.lo, b.hi}) {
      for (int64_t delta = -2; delta <= 2; ++delta) {
        if ((delta < 0 && edge < INT64_MIN - delta) ||
            (delta > 0 && edge > INT64_MAX - delta)) {
          continue;
        }
        probes.push_back(edge + delta);
      }
    }
  }
  return probes;
}

TEST(PredicateTranslation, OnGridConstantsOpenVsClosed) {
  for (uint8_t e : {uint8_t{0}, uint8_t{2}, uint8_t{9}, uint8_t{14}}) {
    for (uint8_t f = 0; f <= e; f += (e > 2 ? 3 : 1)) {
      for (int64_t d : {int64_t{0}, int64_t{7}, int64_t{-12345},
                        int64_t{999999}}) {
        const double c = DecodeInt(d, e, f);
        for (const Predicate& pred :
             {Predicate::LessThan(c), Predicate::LessEqual(c),
              Predicate::GreaterThan(c), Predicate::GreaterEqual(c),
              Predicate::Equals(c)}) {
          const IntBounds b = TranslateToInts(pred, e, f);
          CheckTranslation(pred, e, f, BoundaryProbes(b));
          // On-grid: d itself must land on the correct side.
          const bool in_ints = !b.empty && d >= b.lo && d <= b.hi;
          EXPECT_EQ(in_ints, pred.Matches(c));
        }
      }
    }
  }
}

TEST(PredicateTranslation, OffGridConstants) {
  for (uint8_t e : {uint8_t{1}, uint8_t{5}, uint8_t{12}}) {
    const uint8_t f = static_cast<uint8_t>(e / 2);
    for (int64_t d : {int64_t{3}, int64_t{-400}, int64_t{123456}}) {
      const double on = DecodeInt(d, e, f);
      // Just off the grid in both directions.
      for (double c : {std::nextafter(on, kInf), std::nextafter(on, -kInf)}) {
        for (const Predicate& pred :
             {Predicate::LessEqual(c), Predicate::GreaterThan(c),
              Predicate::Between(c, c + 1.0),
              Predicate{c, c + 1.0, true, true}}) {
          CheckTranslation(pred, e, f, BoundaryProbes(TranslateToInts(pred, e, f)));
        }
      }
    }
  }
}

TEST(PredicateTranslation, SpecialConstants) {
  const uint8_t e = 8, f = 4;
  // NaN bounds select nothing (comparisons are all false).
  EXPECT_TRUE(TranslateToInts(Predicate::GreaterThan(kNaN), e, f).empty);
  EXPECT_TRUE(TranslateToInts(Predicate::Between(kNaN, 5.0), e, f).empty);
  EXPECT_TRUE(TranslateToInts(Predicate::Between(1.0, kNaN), e, f).empty);
  // +inf upper bound selects everything; +inf lower bound selects nothing
  // (no decodable value reaches inf).
  const IntBounds all = TranslateToInts(Predicate::LessEqual(kInf), e, f);
  EXPECT_FALSE(all.empty);
  EXPECT_EQ(all.lo, INT64_MIN);
  EXPECT_EQ(all.hi, INT64_MAX);
  EXPECT_TRUE(TranslateToInts(Predicate::GreaterEqual(kInf), e, f).empty);
  EXPECT_TRUE(TranslateToInts(Predicate::GreaterThan(kInf), e, f).empty);
  // -0.0: equality must capture integer 0 (0.0 == -0.0 in IEEE-754).
  const IntBounds zero = TranslateToInts(Predicate::Equals(-0.0), e, f);
  EXPECT_FALSE(zero.empty);
  EXPECT_LE(zero.lo, 0);
  EXPECT_GE(zero.hi, 0);
  CheckTranslation(Predicate::Equals(-0.0), e, f, BoundaryProbes(zero));
  // Subnormal constants sit between integer 0 and 1 on every grid.
  const double sub = std::numeric_limits<double>::denorm_min();
  CheckTranslation(Predicate::GreaterThan(sub), e, f,
                   BoundaryProbes(TranslateToInts(Predicate::GreaterThan(sub), e, f)));
  CheckTranslation(Predicate::LessEqual(-sub), e, f,
                   BoundaryProbes(TranslateToInts(Predicate::LessEqual(-sub), e, f)));
}

TEST(PredicateTranslation, RandomizedAgainstDecodeMap) {
  std::mt19937_64 rng(23);
  for (int iter = 0; iter < 500; ++iter) {
    const uint8_t e = static_cast<uint8_t>(rng() % (AlpTraits<double>::kMaxExponent + 1));
    const uint8_t f = static_cast<uint8_t>(e == 0 ? 0 : rng() % (e + 1));
    const int64_t d = static_cast<int64_t>(rng() % 2000000) - 1000000;
    double c = DecodeInt(d, e, f);
    if (rng() % 2) c = std::nextafter(c, (rng() % 2) ? kInf : -kInf);
    const bool lo_open = rng() % 2, hi_open = rng() % 2;
    const double width = DecodeInt(static_cast<int64_t>(rng() % 10000), e, f);
    const Predicate pred{c, c + std::fabs(width), lo_open, hi_open};
    CheckTranslation(pred, e, f, BoundaryProbes(TranslateToInts(pred, e, f)));
  }
}

// ---------------------------------------------------------------------------
// Lane-range rebasing.
// ---------------------------------------------------------------------------

TEST(LaneRange, RebaseClampAndEmpty) {
  fastlanes::FforParams ffor;
  ffor.base = static_cast<uint64_t>(int64_t{100});
  ffor.width = 8;  // lanes span [100, 355]
  IntBounds b;
  b.empty = false;

  b.lo = 150, b.hi = 200;  // interior
  LaneRange r = ToLaneRange(b, ffor);
  ASSERT_TRUE(r.applicable);
  EXPECT_FALSE(r.empty);
  EXPECT_EQ(r.lo, 50u);
  EXPECT_EQ(r.hi, 100u);

  b.lo = INT64_MIN, b.hi = INT64_MAX;  // clamp both sides
  r = ToLaneRange(b, ffor);
  ASSERT_TRUE(r.applicable);
  EXPECT_FALSE(r.empty);
  EXPECT_EQ(r.lo, 0u);
  EXPECT_EQ(r.hi, 255u);

  b.lo = 400, b.hi = 500;  // above the lane domain
  r = ToLaneRange(b, ffor);
  ASSERT_TRUE(r.applicable);
  EXPECT_TRUE(r.empty);

  b.lo = 0, b.hi = 50;  // below the lane domain
  r = ToLaneRange(b, ffor);
  ASSERT_TRUE(r.applicable);
  EXPECT_TRUE(r.empty);

  b.empty = true;  // empty translation stays empty
  r = ToLaneRange(b, ffor);
  ASSERT_TRUE(r.applicable);
  EXPECT_TRUE(r.empty);
}

TEST(LaneRange, HostileHeaderOverflowFallsBack) {
  // base + mask overflowing int64 can only come from a corrupt header; the
  // plan must refuse (→ decode-then-filter) rather than wrap.
  fastlanes::FforParams ffor;
  ffor.base = static_cast<uint64_t>(INT64_MAX - 10);
  ffor.width = 8;
  IntBounds b;
  b.empty = false;
  b.lo = 0;
  b.hi = 100;
  EXPECT_FALSE(ToLaneRange(b, ffor).applicable);

  ffor.width = 65;  // width wider than the lane type
  ffor.base = 0;
  EXPECT_FALSE(ToLaneRange(b, ffor).applicable);

  // Full-width lanes are fine when base sits at INT64_MIN (base + mask
  // lands exactly on INT64_MAX — no wrap).
  ffor.width = 64;
  ffor.base = static_cast<uint64_t>(std::numeric_limits<int64_t>::min());
  EXPECT_TRUE(ToLaneRange(b, ffor).applicable);
}

// ---------------------------------------------------------------------------
// Striped survivor-sum oracle helpers.
// ---------------------------------------------------------------------------

TEST(SurvivorSum, StripedHelpersBitwiseEqualToStruct) {
  std::mt19937_64 rng(31);
  std::uniform_real_distribution<double> dist(-1e6, 1e6);
  for (unsigned n : {0u, 1u, 7u, 8u, 9u, 100u, 1024u}) {
    std::vector<double> v(n), w(n);
    for (unsigned i = 0; i < n; ++i) v[i] = dist(rng), w[i] = dist(rng);
    pushdown::SurvivorSum ss;
    for (unsigned i = 0; i < n; ++i) ss.Add(v[i]);
    EXPECT_EQ(BitsOf(ss.Reduce()), BitsOf(pushdown::StripedSumAll(v.data(), n)));
    pushdown::SurvivorSum sd;
    for (unsigned i = 0; i < n; ++i) sd.Add(v[i] * w[i]);
    EXPECT_EQ(BitsOf(sd.Reduce()),
              BitsOf(pushdown::StripedDotAll(v.data(), w.data(), n)));
  }
}

TEST(SurvivorSum, PredicatedNoOpsDoNotPerturb) {
  // Interleaving non-survivor += 0.0 no-ops must leave every accumulator
  // bitwise unchanged (the -0.0 lemma).
  std::mt19937_64 rng(37);
  std::uniform_real_distribution<double> dist(-1e6, 1e6);
  std::vector<double> v(1024);
  for (auto& x : v) x = dist(rng);
  v[3] = -0.0;
  v[700] = 0.0;
  pushdown::SurvivorSum compact, predicated;
  for (unsigned i = 0; i < v.size(); ++i) {
    const bool sel = (i % 3) == 0;
    predicated.AddPredicated(v[i], sel);
    if (sel) compact.Add(v[i]);
  }
  EXPECT_EQ(BitsOf(compact.Reduce()), BitsOf(predicated.Reduce()));
}

// ---------------------------------------------------------------------------
// End-to-end bitwise parity: packed path vs decode-then-filter oracle.
// ---------------------------------------------------------------------------

TEST(PushdownParity, ClusteredDataEveryTier) {
  const auto data = Clustered(kRowgroupSize * 2 + 777);
  const auto column = StoredColumn::MakeAlp(data.data(), data.size());
  TierGuard guard;
  for (const DecodeKernels* k : AvailableTiers()) {
    SCOPED_TRACE(kernels::TierName(k->tier));
    ASSERT_TRUE(kernels::ForceTier(k->tier));
    QueryResult r;
    ExpectModeParity(column, Predicate::Between(480.0, 510.0), &r);
    // The packed path must actually engage on clustered decimal data.
    EXPECT_GT(r.vectors_packed_eval + r.vectors_full_inside, 0u);
    ExpectModeParity(column, Predicate::GreaterThan(data[12345]));
    ExpectModeParity(column, Predicate::LessEqual(data[777]));
    ExpectModeParity(column, Predicate::Equals(data[100]));
    ExpectModeParity(column, Predicate{490.0, 505.0, true, true});
  }

  // Per vector, straight through FilterSumVector: every density branch
  // (0%, under 75%, 75% up to 100%, 100% survivors) must match decode +
  // SurvivorSum::AddPredicated bit for bit. Two bands cut vector 3 at
  // about 90% and 40% survivors; the wide band fills the 0% and 100%
  // buckets.
  const ColumnReader<double>& reader = *column.AlpReader();
  std::vector<double> v3(data.begin() + 3 * kVectorSize,
                         data.begin() + 4 * kVectorSize);
  std::sort(v3.begin(), v3.end());
  const Predicate bands[] = {Predicate::GreaterEqual(v3[100]),
                             Predicate::GreaterEqual(v3[600]),
                             Predicate::Between(480.0, 510.0)};
  const char* bucket_names[] = {"0%", "under 75%", "75% up to 100%", "100%"};
  pushdown::EvalScratch scratch;
  std::vector<double> values(kVectorSize);
  for (const DecodeKernels* k : AvailableTiers()) {
    SCOPED_TRACE(kernels::TierName(k->tier));
    ASSERT_TRUE(kernels::ForceTier(k->tier));
    unsigned hits[4] = {};
    for (const Predicate& pred : bands) {
      const TranslatedPredicate tp(pred);
      for (size_t v = 0; v < reader.vector_count(); ++v) {
        double got = 0.0;
        pushdown::VectorCounters counters;
        const bool packed =
            pushdown::FilterSumVector(reader, v, tp, &scratch, &got, &counters);
        const unsigned len = reader.VectorLength(v);
        reader.DecodeVector(v, values.data());
        pushdown::SurvivorSum oracle;
        unsigned survivors = 0;
        for (unsigned i = 0; i < len; ++i) {
          const bool hit = pred.Matches(values[i]);
          oracle.AddPredicated(values[i], hit);
          survivors += hit;
        }
        EXPECT_EQ(BitsOf(got), BitsOf(0.0 + oracle.Reduce()))
            << "vector " << v << ": " << survivors << "/" << len << " survive";
        if (!packed) continue;
        const unsigned bucket = survivors == 0 ? 0
                                : survivors * 4 < len * 3 ? 1
                                : survivors < len ? 2
                                : 3;
        ++hits[bucket];
      }
    }
    for (unsigned b = 0; b < 4; ++b) {
      EXPECT_GT(hits[b], 0u) << "no packed vector with " << bucket_names[b]
                             << " survivors";
    }
  }
}

TEST(PushdownParity, SpecialsBecomeExceptionsEveryTier) {
  const auto data = WithSpecials(kRowgroupSize + 321);
  const auto column = StoredColumn::MakeAlp(data.data(), data.size());
  TierGuard guard;
  for (const DecodeKernels* k : AvailableTiers()) {
    SCOPED_TRACE(kernels::TierName(k->tier));
    ASSERT_TRUE(kernels::ForceTier(k->tier));
    ExpectModeParity(column, Predicate::Between(480.0, 520.0));
    // Ranges that only exceptions can satisfy (beyond the decodable span).
    ExpectModeParity(column, Predicate::GreaterEqual(1e100));
    ExpectModeParity(column, Predicate::LessEqual(-1e100));
    ExpectModeParity(column, Predicate::Between(-kInf, kInf));
    ExpectModeParity(column, Predicate::Equals(-0.0));
    ExpectModeParity(column, Predicate::LessThan(1e-200));
    // NaN bound: nothing qualifies anywhere, sum stays +0.0.
    QueryResult r;
    ExpectModeParity(column, Predicate::Between(kNaN, 5.0), &r);
    EXPECT_EQ(BitsOf(r.sum), BitsOf(0.0));
  }
}

TEST(PushdownParity, HighPrecisionFallbackEveryTier) {
  // ALP_rd / exception-heavy rowgroups: every vector must take the
  // decode-then-filter fallback, bit-identically.
  const auto data = HighPrecision(kRowgroupSize + 11);
  const auto column = StoredColumn::MakeAlp(data.data(), data.size());
  TierGuard guard;
  for (const DecodeKernels* k : AvailableTiers()) {
    SCOPED_TRACE(kernels::TierName(k->tier));
    ASSERT_TRUE(kernels::ForceTier(k->tier));
    ExpectModeParity(column, Predicate::Between(-0.5, 0.5));
    ExpectModeParity(column, Predicate::GreaterThan(0.0));
  }
}

TEST(PushdownParity, SortedDataFullInsideFastPath) {
  std::vector<double> data(kRowgroupSize * 2);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<double>(i) * 0.01;  // sorted two-decimal series
  }
  const auto column = StoredColumn::MakeAlp(data.data(), data.size());
  // A range covering whole interior vectors: the zone map proves them
  // full-inside, boundary vectors go through the packed compare.
  QueryResult r;
  ExpectModeParity(column, Predicate::Between(400.0, 1200.0), &r);
  EXPECT_GT(r.vectors_full_inside, 0u);
  EXPECT_GT(r.vectors_skipped, 0u);
}

TEST(PushdownParity, UncompressedAndCodecChunkIdentically) {
  // All storage schemes share the per-vector striped oracle, so their
  // filtered sums are bitwise equal for bitwise-equal values.
  const auto data = Clustered(kRowgroupSize + 555, 41);
  auto alp_col = StoredColumn::MakeAlp(data.data(), data.size());
  const auto raw_col = StoredColumn::MakeUncompressed(data);
  auto codec_col =
      StoredColumn::MakeCodec(codecs::MakeGorilla(), data.data(), data.size());
  auto seekable_col = StoredColumn::MakeAlp(data.data(), data.size());
  ASSERT_TRUE(seekable_col.EnableSeekable(nullptr).ok());
  ThreadPool pool(1);
  const Predicate pred = Predicate::Between(490.0, 515.0);
  for (const FilterMode mode :
       {FilterMode::kAuto, FilterMode::kDecodeThenFilter}) {
    const QueryResult u = RunFilterSum(raw_col, pred, pool, nullptr, mode);
    ASSERT_TRUE(u.status.ok());
    for (const StoredColumn* column : {&alp_col, &codec_col, &seekable_col}) {
      const QueryResult r = RunFilterSum(*column, pred, pool, nullptr, mode);
      ASSERT_TRUE(r.status.ok()) << r.status.ToString();
      EXPECT_EQ(BitsOf(r.sum), BitsOf(u.sum))
          << column->scheme() << (column->Seekable() ? " (seekable)" : "")
          << (mode == FilterMode::kAuto ? " auto" : " oracle");
    }
  }
}

TEST(PushdownParity, SeekablePathMatchesOracleAndCaches) {
  const auto data = Clustered(kRowgroupSize * 2 + 99, 43);
  auto column = StoredColumn::MakeAlp(data.data(), data.size());
  io::DecodedVectorCache cache(4 << 20);
  ASSERT_TRUE(column.EnableSeekable(&cache, "pushdown-test").ok());
  ThreadPool pool(1);
  const Predicate pred = Predicate::Between(485.0, 515.0);
  const QueryResult cold = RunFilterSum(column, pred, pool, nullptr,
                                        FilterMode::kAuto);
  const QueryResult oracle = RunFilterSum(column, pred, pool, nullptr,
                                          FilterMode::kDecodeThenFilter);
  ASSERT_TRUE(cold.status.ok());
  ASSERT_TRUE(oracle.status.ok());
  EXPECT_EQ(BitsOf(cold.sum), BitsOf(oracle.sum));
  // The oracle run populated the decoded-vector cache; the warm run takes
  // the cache-hit branch and must still produce the same bits.
  const QueryResult warm = RunFilterSum(column, pred, pool, nullptr,
                                        FilterMode::kAuto);
  ASSERT_TRUE(warm.status.ok());
  EXPECT_EQ(BitsOf(warm.sum), BitsOf(oracle.sum));
}

TEST(PushdownParity, DotSumSelectionVectorsEveryTier) {
  const size_t n = kRowgroupSize + 2048 + 17;
  const auto f = Clustered(n, 47);
  auto a = Clustered(n, 53);
  const auto b = HighPrecision(n);
  a[5] = kNaN;  // Projected columns carry specials through the gather.
  a[6000] = -0.0;

  engine::Table table;
  table.AddColumn("f", StoredColumn::MakeAlp(f.data(), n));
  table.AddColumn("a", StoredColumn::MakeAlp(a.data(), n));
  table.AddColumn("b", StoredColumn::MakeUncompressed(b));

  TierGuard guard;
  ThreadPool pool(1);
  for (const DecodeKernels* k : AvailableTiers()) {
    SCOPED_TRACE(kernels::TierName(k->tier));
    ASSERT_TRUE(kernels::ForceTier(k->tier));
    for (const Predicate& pred :
         {Predicate::Between(490.0, 510.0), Predicate::GreaterThan(f[77]),
          Predicate{495.0, 500.0, true, false}}) {
      const QueryResult push = engine::RunFilteredDotSum(
          table, "f", pred, "a", "b", pool, FilterMode::kAuto);
      const QueryResult oracle = engine::RunFilteredDotSum(
          table, "f", pred, "a", "b", pool, FilterMode::kDecodeThenFilter);
      EXPECT_EQ(BitsOf(push.sum), BitsOf(oracle.sum))
          << "push=" << push.sum << " oracle=" << oracle.sum;
    }
  }
}

TEST(PushdownParity, EmptyAndUniversalRanges) {
  const auto data = Clustered(kRowgroupSize + 1, 59);
  const auto column = StoredColumn::MakeAlp(data.data(), data.size());
  QueryResult r;
  ExpectModeParity(column, Predicate::Between(1e18, 2e18), &r);
  EXPECT_EQ(BitsOf(r.sum), BitsOf(0.0));
  ExpectModeParity(column, Predicate::Between(-kInf, kInf));
  // Inverted range (lo > hi) selects nothing.
  ExpectModeParity(column, Predicate::Between(100.0, -100.0), &r);
  EXPECT_EQ(BitsOf(r.sum), BitsOf(0.0));

  // An empty lane range where an exception matches: no lane of vector 1
  // can reach [1e299, 1e301], but its exception 1e300 does, and the
  // other exception (-1e300) must not. The survivor is gathered at every
  // tier from the lanes the select unpacked.
  auto spiked = data;
  spiked[kVectorSize + 5] = 1e300;
  spiked[kVectorSize + 900] = -1e300;
  const auto spiked_column =
      StoredColumn::MakeAlp(spiked.data(), spiked.size());
  TierGuard guard;
  for (const DecodeKernels* k : AvailableTiers()) {
    SCOPED_TRACE(kernels::TierName(k->tier));
    ASSERT_TRUE(kernels::ForceTier(k->tier));
    ExpectModeParity(spiked_column, Predicate::Between(1e299, 1e301), &r);
    EXPECT_EQ(BitsOf(r.sum), BitsOf(1e300));
    EXPECT_EQ(r.vectors_packed_eval, 1u);
  }

  // A hostile vector whose two exceptions share one position: the second
  // position entry is overwritten with the first, so 1e300 and then -1e300
  // both patch lane 5. The unverified constructor skips the checksums, so
  // the forged bytes need no re-signing; the parser only bounds positions.
  // Decode resolves the clash later-wins (-1e300), and the packed select's
  // exception fixup must agree at every tier, with and without a survivor.
  const std::vector<uint8_t> buffer = CompressColumn(spiked.data(), spiked.size());
  ColumnReader<double> clean(buffer.data(), buffer.size());
  ColumnReader<double>::PackedVectorView view;
  ASSERT_TRUE(clean.GetPackedVectorView(1, &view));
  ASSERT_EQ(view.exc_count, 2u);
  ASSERT_EQ(view.exc_positions[0], 5u);
  std::vector<uint8_t> forged = buffer;
  const size_t positions_at =
      reinterpret_cast<const uint8_t*>(view.exc_positions) - buffer.data();
  std::memcpy(forged.data() + positions_at + sizeof(uint16_t),
              forged.data() + positions_at, sizeof(uint16_t));
  ColumnReader<double> shared(forged.data(), forged.size());
  std::vector<double> values(kVectorSize);
  ASSERT_TRUE(shared.TryDecodeVector(1, values.data()).ok());
  ASSERT_EQ(BitsOf(values[5]), BitsOf(-1e300));
  const unsigned len = shared.VectorLength(1);
  const struct {
    Predicate pred;
    double sum;
  } clashes[] = {{Predicate::Between(1e299, 1e301), 0.0},  // 1e300 was overwritten.
                 {Predicate::Between(-1e301, -1e299), -1e300}};
  pushdown::EvalScratch scratch;
  for (const DecodeKernels* k : AvailableTiers()) {
    SCOPED_TRACE(kernels::TierName(k->tier));
    ASSERT_TRUE(kernels::ForceTier(k->tier));
    for (const auto& clash : clashes) {
      double got = 0.0;
      pushdown::VectorCounters counters;
      EXPECT_TRUE(pushdown::FilterSumVector(shared, 1, TranslatedPredicate(clash.pred),
                                            &scratch, &got, &counters));
      const double oracle = pushdown::FilterSumValues(values.data(), len, clash.pred);
      EXPECT_EQ(BitsOf(got), BitsOf(oracle));
      EXPECT_EQ(BitsOf(got), BitsOf(clash.sum));
    }
  }
}

TEST(PushdownParity, RandomizedPredicatesEveryTier) {
  const auto data = WithSpecials(kRowgroupSize * 2 + 511);
  const auto column = StoredColumn::MakeAlp(data.data(), data.size());
  std::mt19937_64 rng(61);
  TierGuard guard;
  for (const DecodeKernels* k : AvailableTiers()) {
    SCOPED_TRACE(kernels::TierName(k->tier));
    ASSERT_TRUE(kernels::ForceTier(k->tier));
    for (int iter = 0; iter < 25; ++iter) {
      // Bounds drawn from the data itself (on-grid) or nudged off-grid.
      double lo = data[rng() % data.size()];
      double hi = data[rng() % data.size()];
      if (std::isnan(lo) || std::isnan(hi)) continue;
      if (lo > hi) std::swap(lo, hi);
      if (rng() % 3 == 0) lo = std::nextafter(lo, -kInf);
      if (rng() % 3 == 0) hi = std::nextafter(hi, kInf);
      const Predicate pred{lo, hi, rng() % 2 == 0, rng() % 2 == 0};
      ExpectModeParity(column, pred);
    }
  }
}

}  // namespace
}  // namespace alp
