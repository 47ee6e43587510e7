// Sensor time-series store: the workload the paper's introduction
// motivates. A barometric-pressure feed (Air-Pressure surrogate) is stored
// as an ALP column; queries then exploit vector-level random access to
// evaluate a time-range aggregate while *skipping* every compressed vector
// outside the range - the predicate push-down capability the paper
// contrasts with block-based general-purpose compression.

#include <cstdio>
#include <vector>

#include "alp/alp.h"
#include "data/datasets.h"
#include "util/cycle_clock.h"

int main() {
  // One day of a 100 Hz pressure sensor: 8.64M readings.
  constexpr size_t kReadings = 8'640'000;
  const alp::data::DatasetSpec* spec = alp::data::FindDataset("Air-Pressure");
  const std::vector<double> readings = alp::data::Generate(*spec, kReadings);

  const auto compressed = alp::CompressColumn(readings.data(), readings.size());
  std::printf("stored %zu readings: %.2f bits/value (%.1fx compression)\n",
              readings.size(),
              alp::BitsPerValue<double>(compressed, readings.size()),
              64.0 / alp::BitsPerValue<double>(compressed, readings.size()));

  alp::ColumnReader<double> reader(compressed.data(), compressed.size());

  // Query: average pressure between 10:00 and 10:15 (rows [3.6M, 3.69M)).
  const size_t row_begin = 3'600'000;
  const size_t row_end = 3'690'000;
  const size_t vec_begin = row_begin / alp::kVectorSize;
  const size_t vec_end = (row_end + alp::kVectorSize - 1) / alp::kVectorSize;

  const uint64_t start = alp::CycleNow();
  double sum = 0.0;
  size_t count = 0;
  std::vector<double> buffer(alp::kVectorSize);
  for (size_t v = vec_begin; v < vec_end; ++v) {
    // Only these vectors are touched.
    const alp::Status s = reader.TryDecodeVector(v, buffer.data());
    if (!s.ok()) {
      std::printf("decode failed: %s\n", s.ToString().c_str());
      return 1;
    }
    const size_t base = v * alp::kVectorSize;
    const size_t lo = base < row_begin ? row_begin - base : 0;
    const size_t hi = std::min<size_t>(reader.VectorLength(v), row_end - base);
    for (size_t i = lo; i < hi; ++i) {
      sum += buffer[i];
      ++count;
    }
  }
  const uint64_t cycles = alp::CycleNow() - start;

  std::printf("range query touched %zu of %zu vectors (%.2f%% of the column)\n",
              vec_end - vec_begin, reader.vector_count(),
              100.0 * (vec_end - vec_begin) / reader.vector_count());
  std::printf("avg pressure 10:00-10:15 = %.5f kPa over %zu rows\n", sum / count,
              count);
  std::printf("query cost: %.2f cycles/row decoded\n",
              static_cast<double>(cycles) / ((vec_end - vec_begin) * alp::kVectorSize));

  // Compare: a block-based compressor would have decompressed everything.
  std::printf("a 256KB-block compressor would decode >= %zu values for this query\n",
              (row_end - row_begin) == 0 ? 0 : ((row_end / 32768 + 1) * 32768));
  return 0;
}
