// Tests for the LWC+ALP cascade (Table 4): strategy selection, dictionary
// and RLE nesting, and bit-exact round-trips.

#include <gtest/gtest.h>

#include <limits>
#include <random>
#include <vector>

#include "alp/cascade.h"
#include "util/bits.h"

namespace alp {
namespace {

void ExpectBitExact(const std::vector<double>& a, const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(BitsOf(a[i]), BitsOf(b[i])) << "index " << i;
  }
}

std::vector<double> RoundTrip(const std::vector<double>& data,
                              CascadeStrategy* used = nullptr) {
  const auto buffer = CascadeCompress(data.data(), data.size(), {}, used);
  EXPECT_EQ(CascadeValueCount(buffer), data.size());
  std::vector<double> out(data.size());
  const Status s = CascadeDecompress(buffer, out.data());
  EXPECT_TRUE(s.ok()) << s.ToString();
  return out;
}

TEST(Cascade, PlainStrategyOnUniqueDecimals) {
  std::mt19937_64 rng(1);
  std::vector<double> data(50000);
  for (auto& v : data) {
    v = static_cast<double>(static_cast<int64_t>(rng() % 100000000)) / 1000.0;
  }
  CascadeStrategy used;
  const auto out = RoundTrip(data, &used);
  EXPECT_EQ(used, CascadeStrategy::kPlain);
  ExpectBitExact(data, out);
}

TEST(Cascade, RleStrategyOnRunHeavyData) {
  // Gov/26-like: long runs of zero with occasional values.
  std::mt19937_64 rng(2);
  std::vector<double> data;
  while (data.size() < 200000) {
    const size_t zeros = 20 + rng() % 100;
    data.insert(data.end(), zeros, 0.0);
    data.push_back(static_cast<double>(static_cast<int64_t>(rng() % 100000)) / 100.0);
  }
  CascadeStrategy used;
  const auto out = RoundTrip(data, &used);
  EXPECT_EQ(used, CascadeStrategy::kRle);
  ExpectBitExact(data, out);

  // RLE over ALP must land far below the plain 64 bits per value.
  const auto buffer = CascadeCompress(data.data(), data.size());
  EXPECT_LT(static_cast<double>(buffer.size()) * 8 / data.size(), 8.0);
}

TEST(Cascade, DictionaryStrategyOnDuplicateHeavyData) {
  // CMS/1-like: many repeats of a modest set of distinct prices, shuffled
  // (no long runs, so RLE is not preferred).
  std::mt19937_64 rng(3);
  std::vector<double> pool(500);
  for (auto& v : pool) {
    v = static_cast<double>(static_cast<int64_t>(rng() % 100000000)) / 10000.0;
  }
  std::vector<double> data(200000);
  for (auto& v : data) v = pool[rng() % pool.size()];

  CascadeStrategy used;
  const auto out = RoundTrip(data, &used);
  EXPECT_EQ(used, CascadeStrategy::kDictionary);
  ExpectBitExact(data, out);

  const auto buffer = CascadeCompress(data.data(), data.size());
  // 500 distinct values -> 9-bit codes + tiny dictionary.
  EXPECT_LT(static_cast<double>(buffer.size()) * 8 / data.size(), 12.0);
}

TEST(Cascade, DictionaryFallsBackWhenTooManyDistinct) {
  std::mt19937_64 rng(4);
  // Every value duplicated once (50% duplicates triggers the dict attempt)
  // but the distinct count exceeds the configured cap.
  std::vector<double> data;
  for (int i = 0; i < 50000; ++i) {
    const double v = static_cast<double>(i) / 100.0;
    data.push_back(v);
    data.push_back(v);
  }
  // Shuffle lightly so RLE is not chosen.
  for (size_t i = data.size() - 1; i > 0; --i) {
    std::swap(data[i], data[rng() % (i + 1)]);
  }
  CascadeConfig config;
  config.max_dictionary_size = 1000;
  CascadeStrategy used;
  const auto buffer = CascadeCompress(data.data(), data.size(), config, &used);
  EXPECT_EQ(used, CascadeStrategy::kPlain);
  std::vector<double> out(data.size());
  ASSERT_TRUE(CascadeDecompress(buffer, out.data()).ok());
  ExpectBitExact(data, out);
}

TEST(Cascade, EmptyInput) {
  CascadeStrategy used;
  const auto buffer = CascadeCompress(nullptr, 0, {}, &used);
  EXPECT_EQ(CascadeValueCount(buffer), 0u);
}

TEST(Cascade, TinyInput) {
  const std::vector<double> data = {1.5, 1.5, 2.5};
  const auto out = RoundTrip(data);
  ExpectBitExact(data, out);
}

TEST(Cascade, AllSameValue) {
  const std::vector<double> data(100000, 3.14);
  CascadeStrategy used;
  const auto out = RoundTrip(data, &used);
  EXPECT_EQ(used, CascadeStrategy::kRle);
  ExpectBitExact(data, out);
  const auto buffer = CascadeCompress(data.data(), data.size());
  EXPECT_LT(static_cast<double>(buffer.size()) * 8 / data.size(), 0.5);
}

TEST(Cascade, SpecialValuesSurviveEveryStrategy) {
  // Force each strategy and include NaN / -0.0 / inf.
  std::vector<double> specials = {0.0, -0.0,
                                  std::numeric_limits<double>::quiet_NaN(),
                                  std::numeric_limits<double>::infinity()};
  // RLE path.
  std::vector<double> runs;
  for (double s : specials) runs.insert(runs.end(), 1000, s);
  CascadeStrategy used;
  auto out = RoundTrip(runs, &used);
  EXPECT_EQ(used, CascadeStrategy::kRle);
  ExpectBitExact(runs, out);

  // Dictionary path: shuffled repeats.
  std::mt19937_64 rng(5);
  std::vector<double> dict_data(20000);
  for (auto& v : dict_data) v = specials[rng() % specials.size()];
  // Interleave a few uniques so runs stay short.
  for (size_t i = 0; i < dict_data.size(); i += 7) {
    dict_data[i] = static_cast<double>(i) / 100.0;
  }
  out = RoundTrip(dict_data, &used);
  ExpectBitExact(dict_data, out);
}

}  // namespace
}  // namespace alp
