// Tests of the benchmark's own logic: the quantile and block estimators,
// the error-rate accounting and the layer ledger's reconciliation rule.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

TEST(Quantile, InterpolatesBetweenClosestRanks) {
  const std::vector<double> v = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(Quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.25), 1.75);
  EXPECT_TRUE(std::isnan(Quantile({}, 0.5)));
}

TEST(BlockQuantile, SlowPhaseDoesNotMoveTheFigure) {
  // 10 blocks of 100 samples: 7 fast blocks around 100, 3 slow at 300.
  std::vector<double> calm, noisy;
  for (int b = 0; b < 10; ++b) {
    for (int i = 0; i < 100; ++i) {
      const double x = 100.0 + (i % 10);
      calm.push_back(x);
      noisy.push_back(b % 3 == 0 && b < 9 ? 3.0 * x : x);
    }
  }
  const Estimate a = BlockQuantile(calm, 100, 0.5, 0.25);
  const Estimate b = BlockQuantile(noisy, 100, 0.5, 0.25);
  EXPECT_EQ(a.blocks, 10u);
  EXPECT_EQ(a.samples, 1000u);
  EXPECT_DOUBLE_EQ(a.value, b.value);
  // A whole-run median of the noisy series would have moved.
  EXPECT_GT(Quantile(noisy, 0.5), Quantile(calm, 0.5));
}

TEST(BlockQuantile, DropsPartialTailBlockUnlessAlone) {
  std::vector<double> v(250, 1.0);
  v[240] = 1e9;  // Inside the dropped partial block.
  const Estimate e = BlockQuantile(v, 100, 1.0, 1.0);
  EXPECT_EQ(e.blocks, 2u);
  EXPECT_DOUBLE_EQ(e.value, 1.0);
  const Estimate alone = BlockQuantile({5.0, 7.0}, 100, 0.5, 0.5);
  EXPECT_EQ(alone.blocks, 1u);
  EXPECT_DOUBLE_EQ(alone.value, 6.0);
}

TEST(BlockRate, RatePerBlockIsWorkOverTime) {
  // Blocks: (10 work / 2 s) = 5, (10 / 1) = 10, (10 / 4) = 2.5.
  const std::vector<double> work = {5, 5, 5, 5, 5, 5};
  const std::vector<double> secs = {1, 1, 0.5, 0.5, 2, 2};
  const Estimate e = BlockRate(work, secs, 2, 1.0);
  EXPECT_EQ(e.blocks, 3u);
  EXPECT_DOUBLE_EQ(e.value, 10.0);
  EXPECT_DOUBLE_EQ(BlockRate(work, secs, 2, 0.5).value, 5.0);
}

TEST(ErrorRate, NeverZeroAndShrinksWithAttempts) {
  const double small = ErrorRateUpper(0, 100);
  const double large = ErrorRateUpper(0, 100000);
  EXPECT_GT(small, 0.0);
  EXPECT_GT(large, 0.0);
  EXPECT_LT(large, small);
  EXPECT_NEAR(large, 3.8415 / 100000, 1e-7);  // z^2 / n for no failures.
  EXPECT_DOUBLE_EQ(ErrorRateUpper(0, 0), 1.0);
}

TEST(ErrorRate, BoundsTheObservedRate) {
  const double observed = 50.0 / 1000.0;
  const double upper = ErrorRateUpper(50, 1000);
  EXPECT_GT(upper, observed);
  EXPECT_LT(upper, 0.07);
  EXPECT_LE(ErrorRateUpper(1000, 1000), 1.0);
  EXPECT_GT(ErrorRateUpper(1, 1000), ErrorRateUpper(0, 1000));
}

TEST(ErrorRate, WorstBlockIgnoresRunLengthButNotFailures) {
  // No failures: the same figure however many attempts a run made.
  const double healthy = WorstBlockErrorRate({}, 1000, 500);
  EXPECT_DOUBLE_EQ(healthy, ErrorRateUpper(0, 500));
  EXPECT_DOUBLE_EQ(WorstBlockErrorRate({}, 1499, 500), healthy);
  // One failure raises it, wherever it falls, the partial tail included.
  EXPECT_DOUBLE_EQ(WorstBlockErrorRate({10}, 1499, 500), ErrorRateUpper(1, 500));
  EXPECT_DOUBLE_EQ(WorstBlockErrorRate({1400}, 1499, 500), ErrorRateUpper(1, 500));
  EXPECT_GT(WorstBlockErrorRate({1400}, 1499, 500), healthy);
  // The worst block counts, not the run's total.
  EXPECT_DOUBLE_EQ(WorstBlockErrorRate({1, 2, 700}, 1499, 500), ErrorRateUpper(2, 500));
  // Fewer attempts than one block: one block of all of them.
  EXPECT_DOUBLE_EQ(WorstBlockErrorRate({}, 100, 500), ErrorRateUpper(0, 100));
  EXPECT_DOUBLE_EQ(WorstBlockErrorRate({}, 0, 500), 1.0);
}

TEST(Ledger, UnattributedPlusLayerSelfTimesIsTheUnitTime) {
  Tracer t;
  // Unit 1: 1000 ns; children: a layer with a nested layer, and a leaf.
  const uint32_t u1 = t.Add("unit.lookup", 0, 1, 0, 1000);
  const uint32_t exec = t.Add("server.exec", u1, 1, 100, 800);  // 700
  t.Add("alp.column", exec, 1, 900, 1200);                       // 300, replayed
  t.Add("util.checksum", exec, 1, 1200, 1350);                   // 150
  t.Add("server.queue", u1, 1, 0, 100);                          // 100
  // Unit 2: its replay costs more than the unit itself.
  const uint32_t u2 = t.Add("unit.lookup", 0, 2, 2000, 2100);    // 100
  t.Add("alp.column", u2, 2, 2100, 2250);                        // 150
  // A probe tree stays out of the ledger.
  const uint32_t probe = t.Add("probe.lookup", 0, 3, 3000, 3500);
  t.Add("io.seekable_reader.cold", probe, 3, 3000, 3400);

  const Tracer::Ledger ledger = t.BuildLedger();
  EXPECT_EQ(ledger.units, 2u);
  EXPECT_EQ(ledger.e2e_ns, 1100);
  EXPECT_EQ(ledger.unattributed_ns + ledger.AttributedNs(), ledger.e2e_ns);
  EXPECT_EQ(ledger.layer_self_ns.at("server.exec"), 250);  // 700 - 300 - 150
  EXPECT_EQ(ledger.layer_self_ns.at("alp.column"), 450);
  EXPECT_EQ(ledger.unattributed_ns, (1000 - 700 - 100) + (100 - 150));
  EXPECT_EQ(ledger.layer_self_ns.count("io.seekable_reader.cold"), 0u);
  EXPECT_DOUBLE_EQ(ledger.UnattributedFrac(), 150.0 / 1100.0);
}

TEST(Ledger, SelfTimesTelescopeOnEveryTree) {
  Tracer t;
  uint64_t clock = 0;
  for (uint64_t unit = 0; unit < 50; ++unit) {
    const uint32_t root = t.Add("unit.x", 0, unit, clock, clock + 10000 + unit);
    uint32_t parent = root;
    for (int depth = 0; depth < 4; ++depth) {
      parent = t.Add("layer", parent, unit, clock, clock + 1000 * (4 - depth) + unit);
      t.Add("leaf", parent, unit, clock, clock + 7 * depth);
    }
    clock += 20000;
  }
  const auto self = t.SelfNs();
  int64_t total_self = 0, total_roots = 0;
  for (size_t i = 0; i < t.spans().size(); ++i) {
    total_self += self[i];
    if (t.spans()[i].parent == 0) total_roots += t.spans()[i].duration_ns();
  }
  EXPECT_EQ(total_self, total_roots);
  const Tracer::Ledger ledger = t.BuildLedger();
  EXPECT_EQ(ledger.unattributed_ns + ledger.AttributedNs(), ledger.e2e_ns);
}

}  // namespace
}  // namespace perfbench
