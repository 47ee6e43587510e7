// Parallel rowgroup pipeline scaling: encode and decode throughput of the
// Table 5 corpus (every dataset surrogate, concatenated into one column)
// versus worker count, through CompressColumn, ColumnReader::Open and
// TryDecodeAll with a ThreadPool. Timing is wall-clock (std::chrono), not cycles —
// parallel work spreads over cores, so per-core cycle counts undercount it.
//
// The harness also *verifies* the pipeline's determinism contract on every
// run: each thread count must produce a buffer byte-identical to the serial
// encoder's, and every decode must restore the corpus bit-exactly. A speed
// number from a worker count that changed the bytes would be meaningless.
//
// ALP_BENCH_VALUES scales the per-dataset value count (default 2 rowgroups
// per dataset); ALP_BENCH_MAX_THREADS caps the sweep (default 8).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "alp/alp.h"
#include "bench_common.h"
#include "data/datasets.h"
#include "util/thread_pool.h"

namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Best-of-\p reps wall time of fn(), in seconds.
template <typename Fn>
double BestSeconds(const Fn& fn, int reps) {
  double best = 1e100;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const double s = SecondsSince(t0);
    if (s < best) best = s;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  auto trace = alp::bench::TraceSession::FromArgs(argc, argv);
  const size_t per_dataset = alp::bench::ValuesPerDataset(2 * alp::kRowgroupSize);
  unsigned max_threads = 8;
  if (const char* env = std::getenv("ALP_BENCH_MAX_THREADS")) {
    const long v = std::atol(env);
    if (v > 0) max_threads = static_cast<unsigned>(v);
  }

  // The Table 5 corpus: every dataset surrogate, concatenated.
  std::vector<double> corpus;
  for (const auto& spec : alp::data::AllDatasets()) {
    const auto values = alp::data::Generate(spec, per_dataset);
    corpus.insert(corpus.end(), values.begin(), values.end());
  }
  const size_t n = corpus.size();
  const double mb = static_cast<double>(n) * sizeof(double) / 1e6;
  const size_t rowgroups = (n + alp::kRowgroupSize - 1) / alp::kRowgroupSize;

  std::printf("Parallel rowgroup pipeline scaling (Table 5 corpus)\n");
  std::printf("%zu values (%.0f MB raw), %zu rowgroups, hardware threads: %u\n\n",
              n, mb, rowgroups, std::thread::hardware_concurrency());

  // Serial reference: the determinism oracle every thread count must match.
  const std::vector<uint8_t> reference = alp::CompressColumn(corpus.data(), n);
  std::vector<double> restored(n);

  std::printf("%8s %14s %10s %14s %10s  %s\n", "threads", "encode MB/s",
              "speedup", "decode MB/s", "speedup", "bytes");
  alp::bench::Rule('-', 78);

  const int reps = 3;
  double encode_1t = 0.0;
  double decode_1t = 0.0;
  for (unsigned threads = 1; threads <= max_threads; threads *= 2) {
    alp::ThreadPool pool(threads);

    std::vector<uint8_t> buffer;
    const double encode_s = BestSeconds(
        [&] {
          buffer = alp::CompressColumn(corpus.data(), n, {}, nullptr, &pool);
        },
        reps);
    if (buffer != reference) {
      std::printf("FAIL: %u-thread encode is not byte-identical to serial\n",
                  threads);
      return 1;
    }

    const double decode_s = BestSeconds(
        [&] {
          auto reader = alp::ColumnReader<double>::Open(
              buffer.data(), buffer.size(), &pool);
          if (!reader.ok() ||
              !reader->TryDecodeAll(restored.data(), nullptr, &pool).ok()) {
            std::printf("FAIL: parallel open/decode rejected a valid buffer\n");
            std::exit(1);
          }
        },
        reps);
    if (std::memcmp(restored.data(), corpus.data(), n * sizeof(double)) != 0) {
      std::printf("FAIL: %u-thread decode is not value-identical\n", threads);
      return 1;
    }

    const double enc_mbps = mb / encode_s;
    const double dec_mbps = mb / decode_s;
    if (threads == 1) {
      encode_1t = enc_mbps;
      decode_1t = dec_mbps;
    }
    std::printf("%8u %14.1f %9.2fx %14.1f %9.2fx  byte-identical\n", threads,
                enc_mbps, enc_mbps / encode_1t, dec_mbps, dec_mbps / decode_1t);
  }

  std::printf(
      "\nEncode speedup is rowgroup-parallel compression; decode speedup\n"
      "covers checksum verification + structural validation + decoding.\n"
      "Speedups track physical cores (this host: %u); the byte-identical\n"
      "column certifies the determinism contract at every worker count.\n",
      std::thread::hardware_concurrency());
  return 0;
}
