// Golden format vectors: compressed column files committed under
// tests/golden/ pin the on-disk format. Each fixture is checked three ways:
//
//   1. the committed raw values decode from the committed .alp file
//      bit-exactly (backward compatibility: today's reader must keep
//      reading yesterday's files),
//   2. re-encoding the committed values reproduces the committed .alp
//      bytes exactly, serial and parallel alike (forward stability: the
//      encoder must not silently change the format), and
//   3. the in-tree fixture generators still produce the committed values
//      (so the corruption/parallel suites keep testing the same corpora
//      the golden files were built from).
//
// The double fixtures come from test_fixtures.h; a float ALP column built
// from the in-tree dataset generator pins the float encoding too. A v2
// file is committed alongside the v3 ones so the legacy-format read path
// keeps its own golden coverage.
//
// Set ALP_GOLDEN_REGEN=1 to rewrite the files after an *intentional*
// format change (bump kColumnFormatVersion first; the committed history
// of these files is the format's changelog). The column format stores
// host-endian words, so on a big-endian host the byte-level tests skip.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "alp/alp.h"
#include "data/datasets.h"
#include "test_fixtures.h"
#include "util/file_io.h"
#include "util/thread_pool.h"

#ifndef ALP_GOLDEN_DIR
#error "ALP_GOLDEN_DIR must point at tests/golden (set by tests/CMakeLists.txt)"
#endif

namespace alp {
namespace {

using testutil::AlpSmall;
using testutil::RdSmall;
using testutil::StripToV2;

bool HostIsLittleEndian() {
  const uint32_t probe = 1;
  uint8_t first = 0;
  std::memcpy(&first, &probe, 1);
  return first == 1;
}

bool RegenRequested() { return std::getenv("ALP_GOLDEN_REGEN") != nullptr; }

std::string GoldenPath(const std::string& name) {
  return std::string(ALP_GOLDEN_DIR) + "/" + name;
}

template <typename T>
std::vector<uint8_t> ValueBytes(const std::vector<T>& values) {
  std::vector<uint8_t> bytes(values.size() * sizeof(T));
  std::memcpy(bytes.data(), values.data(), bytes.size());
  return bytes;
}

template <typename T>
std::vector<T> ValuesOf(const std::vector<uint8_t>& bytes) {
  std::vector<T> values(bytes.size() / sizeof(T));
  std::memcpy(values.data(), bytes.data(), values.size() * sizeof(T));
  return values;
}

/// Loads golden file \p name; in regen mode writes \p fresh there first, so
/// the load always reflects what a clean checkout would hold.
std::vector<uint8_t> LoadGolden(const std::string& name,
                                const std::vector<uint8_t>& fresh) {
  const std::string path = GoldenPath(name);
  if (RegenRequested()) {
    EXPECT_TRUE(WriteFileBytes(path, fresh.data(), fresh.size()))
        << "cannot regenerate " << path;
  }
  const auto bytes = ReadFileBytes(path);
  EXPECT_TRUE(bytes.has_value())
      << "missing golden file " << path
      << " (run with ALP_GOLDEN_REGEN=1 to create it)";
  return bytes.value_or(std::vector<uint8_t>{});
}

/// A float ALP column (Section 4.4): the Btc-Price generator's values,
/// narrowed to float. Float encoding runs its arithmetic at double
/// precision, and on these values an encoder built with FMA contraction
/// writes different bytes, so this fixture pins float bytes against
/// build-flag drift.
const std::vector<float>& FloatSmall() {
  static const std::vector<float> values = [] {
    const std::vector<double> wide =
        data::Generate(*data::FindDataset("Btc-Price"), 2 * kVectorSize + 77, 1);
    return std::vector<float>(wide.begin(), wide.end());
  }();
  return values;
}

struct GoldenCase {
  const char* values_file;
  const char* column_file;
  bool is_float;
  std::vector<uint8_t> values;  ///< The fixture generator's values.
  std::vector<uint8_t> column;  ///< Today's encoding of them.
};

const std::vector<GoldenCase>& Cases() {
  static const std::vector<GoldenCase> cases = {
      {"alp_small.bin", "alp_small.alp", false, ValueBytes(AlpSmall().values),
       AlpSmall().buffer},
      {"rd_small.bin", "rd_small.alp", false, ValueBytes(RdSmall().values),
       RdSmall().buffer},
      {"alp_small_float.bin", "alp_small_float.alp", true, ValueBytes(FloatSmall()),
       CompressColumn(FloatSmall().data(), FloatSmall().size())},
  };
  return cases;
}

TEST(Golden, FixtureGeneratorsMatchCommittedValues) {
  if (!HostIsLittleEndian()) GTEST_SKIP() << "golden files are little-endian";
  for (const GoldenCase& c : Cases()) {
    SCOPED_TRACE(c.values_file);
    const std::vector<uint8_t> committed = LoadGolden(c.values_file, c.values);
    EXPECT_EQ(committed, c.values)
        << "fixture generator drifted from committed golden values";
  }
}

template <typename T>
void ExpectDecodesTo(const std::vector<uint8_t>& column,
                     const std::vector<uint8_t>& raw) {
  ASSERT_EQ(raw.size() % sizeof(T), 0u);
  const size_t n = raw.size() / sizeof(T);

  StatusOr<ColumnReader<T>> reader = ColumnReader<T>::Open(column.data(), column.size());
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader->format_version(), kColumnFormatVersion);
  ASSERT_EQ(reader->value_count(), n);
  std::vector<T> out(n);
  const Status decode = reader->TryDecodeAll(out.data());
  ASSERT_TRUE(decode.ok()) << decode.ToString();
  EXPECT_EQ(std::memcmp(out.data(), raw.data(), raw.size()), 0);

  // The parallel pipeline reads the same golden bytes to the same values.
  ThreadPool pool(2);
  StatusOr<ColumnReader<T>> preader =
      ColumnReader<T>::OpenParallel(column.data(), column.size(), &pool);
  ASSERT_TRUE(preader.ok()) << preader.status().ToString();
  std::vector<T> pout(n);
  const Status pdecode = preader->TryDecodeAllParallel(pout.data(), &pool);
  ASSERT_TRUE(pdecode.ok()) << pdecode.ToString();
  EXPECT_EQ(std::memcmp(pout.data(), raw.data(), raw.size()), 0);
}

TEST(Golden, CommittedColumnsDecodeBitExactly) {
  if (!HostIsLittleEndian()) GTEST_SKIP() << "golden files are little-endian";
  for (const GoldenCase& c : Cases()) {
    SCOPED_TRACE(c.column_file);
    const std::vector<uint8_t> column = LoadGolden(c.column_file, c.column);
    const std::vector<uint8_t> raw = LoadGolden(c.values_file, c.values);
    if (c.is_float) {
      ExpectDecodesTo<float>(column, raw);
    } else {
      ExpectDecodesTo<double>(column, raw);
    }
  }
}

template <typename T>
void ExpectReencodesTo(const std::vector<uint8_t>& column,
                       const std::vector<uint8_t>& raw) {
  const std::vector<T> values = ValuesOf<T>(raw);
  EXPECT_EQ(CompressColumn(values.data(), values.size()), column)
      << "serial encoder no longer reproduces the committed bytes";

  ThreadPool pool(3);
  EXPECT_EQ(CompressColumnParallel(values.data(), values.size(), {}, nullptr, &pool),
            column)
      << "parallel encoder no longer reproduces the committed bytes";
}

TEST(Golden, ReencodingReproducesCommittedBytes) {
  if (!HostIsLittleEndian()) GTEST_SKIP() << "golden files are little-endian";
  for (const GoldenCase& c : Cases()) {
    SCOPED_TRACE(c.column_file);
    const std::vector<uint8_t> column = LoadGolden(c.column_file, c.column);
    const std::vector<uint8_t> raw = LoadGolden(c.values_file, c.values);
    if (c.is_float) {
      ExpectReencodesTo<float>(column, raw);
    } else {
      ExpectReencodesTo<double>(column, raw);
    }
  }
}

TEST(Golden, CommittedV2ColumnStillDecodes) {
  if (!HostIsLittleEndian()) GTEST_SKIP() << "golden files are little-endian";
  const std::vector<uint8_t> v2 =
      LoadGolden("alp_small_v2.alp", StripToV2(AlpSmall().buffer));

  // The committed legacy file is exactly what stripping today's v3 yields:
  // the v3 layout stays a strict superset of v2.
  EXPECT_EQ(v2, StripToV2(AlpSmall().buffer));

  const std::vector<uint8_t> raw =
      LoadGolden("alp_small.bin", ValueBytes(AlpSmall().values));
  StatusOr<ColumnReader<double>> reader =
      ColumnReader<double>::Open(v2.data(), v2.size());
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader->format_version(), 2);
  ASSERT_EQ(reader->value_count(), raw.size() / sizeof(double));
  std::vector<double> out(reader->value_count());
  const Status decode = reader->TryDecodeAll(out.data());
  ASSERT_TRUE(decode.ok()) << decode.ToString();
  EXPECT_EQ(std::memcmp(out.data(), raw.data(), raw.size()), 0);
}

}  // namespace
}  // namespace alp
