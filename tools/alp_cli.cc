// alp — command-line front end for the ALP column format.
//
//   alp [--threads=N] compress   <in.bin|in.csv> <out.alp>   compress doubles
//   alp [--threads=N] decompress <in.alp> <out.bin|out.csv>  restore doubles
//   alp inspect    <in.alp>                      header, schemes, ratios
//   alp explain    <in.alp> [--json] [--top=N] [--perf]  per-vector x-ray
//                                                report (--perf adds a
//                                                measured decode profile:
//                                                IPC, cache misses/value)
//   alp [--threads=N] verify <in.alp> <original> bit-exactness check
//   alp bench      <in.bin|in.csv>               compare all schemes on a file
//   alp [--threads=N] stats <in.bin|in.csv> [--prom] [--perf]  telemetry
//                                                profile (--prom: Prometheus
//                                                text; --perf: arm per-span
//                                                hardware counters — stage
//                                                IPC and miss rates, rdtsc-
//                                                only when perf_event is
//                                                unavailable)
//   alp gen        <dataset> <count> <out>       emit a surrogate dataset
//   alp datasets                                 list surrogate names
//   alp [--threads=N] serve-bench <in.bin|in.csv> [--requests=N] [--queue=N]
//                     [--catalog-bytes-limit=N]  serving-layer smoke benchmark
//                                                (N bytes of decoded-vector
//                                                cache shared by the catalog;
//                                                0 = off)
//                     [--slow-log=<path>] [--slow-us=N]  arm the per-request
//                                                flight recorder: requests
//                                                over N us (or that fail /
//                                                hit a fault site) append
//                                                their dump as a JSON line
//                                                (see docs/OBSERVABILITY.md)
//
// Exit codes are a documented contract (scripts and tests branch on them):
// every alp::Status class maps to its own code, so a pipeline can tell a
// checksum mismatch from a truncated download without parsing stderr.
//
//   0  success                     13 UNSUPPORTED_VERSION
//   1  generic / data mismatch     14 IO (unreadable/unwritable file)
//   2  usage error                 15 CANCELLED
//   10 TRUNCATED                   16 DEADLINE_EXCEEDED
//   11 CORRUPT                     17 RESOURCE_EXHAUSTED (admission reject)
//   12 CHECKSUM_MISMATCH           18 NOT_FOUND
//                                  19 INVALID_ARGUMENT
//
// Binary files are raw host-endian float64; ".csv"/".txt" files hold one
// value per line. `compress --float32` narrows the input to float before
// encoding, producing a float32 column; `inspect`, `explain` and
// `decompress` detect the column's element type automatically.
//
// --threads=N (or the ALP_THREADS environment variable) sets the worker
// count for the parallel rowgroup pipeline; the default is the hardware
// concurrency. The compressed output is byte-identical at every thread
// count — see README "Threading & determinism".
//
// --kernel=scalar|avx2|avx512|neon|auto forces the decode kernel tier for
// the run (see src/alp/kernel_dispatch.h). Decoded bytes are identical on
// every tier; only speed differs. Requesting a tier this host or build
// cannot run is a hard error (the ALP_FORCE_KERNEL environment variable
// offers the same control with warn-and-fall-back semantics instead).
//
// --metrics=json|text enables the observability registry for the run and
// prints its snapshot (per-stage cycle spans, scheme decisions, exception
// histograms — see docs/OBSERVABILITY.md) after the command completes.
// --trace=<path> records every instrumented span during the command and
// writes a Chrome/Perfetto trace_event JSON file (open in
// https://ui.perfetto.dev). Telemetry never changes the compressed bytes.

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include <algorithm>
#include <future>

#include "alp/alp.h"
#include "codecs/codec.h"
#include "data/datasets.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/perf_counters.h"
#include "obs/sink.h"
#include "obs/trace_buffer.h"
#include "io/decoded_vector_cache.h"
#include "io/random_access_source.h"
#include "io/seekable_reader.h"
#include "obs/xray.h"
#include "server/server.h"
#include "util/cycle_clock.h"
#include "util/file_io.h"
#include "util/thread_pool.h"

namespace {

/// Worker count for the parallel rowgroup pipeline: --threads=N wins, then
/// ALP_THREADS, then hardware concurrency (ThreadPool::DefaultThreadCount).
unsigned g_threads = 0;

/// --metrics mode: 0 = off, 1 = text, 2 = json.
int g_metrics = 0;

/// --trace output path; empty = tracing off.
std::string g_trace_path;

/// --float32: compress narrows the input to float before encoding.
bool g_float32 = false;

alp::ThreadPool& Pool() {
  static alp::ThreadPool pool(g_threads == 0 ? alp::ThreadPool::DefaultThreadCount()
                                             : g_threads);
  return pool;
}

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  alp [--threads=N] [--float32] compress <in.bin|in.csv> <out.alp>\n"
               "  alp [--threads=N] decompress <in.alp> <out.bin|out.csv>\n"
               "  alp inspect    <in.alp>\n"
               "  alp explain    <in.alp> [--json] [--top=N] [--perf]\n"
               "  alp [--threads=N] verify <in.alp> <original.bin|original.csv>\n"
               "  alp bench      <in.bin|in.csv>\n"
               "  alp [--threads=N] stats <in.bin|in.csv> [--prom] [--perf]\n"
               "  alp gen        <dataset> <count> <out.bin|out.csv>\n"
               "  alp datasets\n"
               "  alp [--threads=N] serve-bench <in.bin|in.csv> [--requests=N] "
               "[--queue=N] [--catalog-bytes-limit=N]\n"
               "                    [--slow-log=<path>] [--slow-us=N]\n"
               "\n"
               "--threads=N (or ALP_THREADS) sizes the rowgroup worker pool;\n"
               "output bytes are identical at every thread count.\n"
               "--kernel=scalar|avx2|avx512|neon|auto forces the decode\n"
               "kernel tier (default: best tier the CPU supports; decoded\n"
               "bytes are identical on every tier). Unavailable tiers are a\n"
               "hard error; the ALP_FORCE_KERNEL env var does the same with\n"
               "warn-and-fall-back semantics.\n"
               "--metrics=json|text prints the telemetry registry snapshot\n"
               "after the command (see docs/OBSERVABILITY.md).\n"
               "--trace=<path> writes a Chrome/Perfetto trace_event JSON\n"
               "capture of the command's instrumented spans.\n");
  return 2;
}

int Fail(const char* message, const std::string& detail = "") {
  std::fprintf(stderr, "error: %s%s%s\n", message, detail.empty() ? "" : ": ",
               detail.c_str());
  return 1;
}

/// The documented Status → exit-code mapping (see the header comment;
/// tests/test_cli_xray.py asserts it). Codes 10+ leave 1 and 2 free for
/// generic and usage errors.
int ExitCodeFor(const alp::Status& status) {
  switch (status.code()) {
    case alp::StatusCode::kOk: return 0;
    case alp::StatusCode::kTruncated: return 10;
    case alp::StatusCode::kCorrupt: return 11;
    case alp::StatusCode::kChecksumMismatch: return 12;
    case alp::StatusCode::kUnsupportedVersion: return 13;
    case alp::StatusCode::kIo: return 14;
    case alp::StatusCode::kCancelled: return 15;
    case alp::StatusCode::kDeadlineExceeded: return 16;
    case alp::StatusCode::kResourceExhausted: return 17;
    case alp::StatusCode::kNotFound: return 18;
    case alp::StatusCode::kInvalidArgument: return 19;
  }
  return 1;
}

/// Status-typed failure: prints the full Status (code name, message,
/// offset) and exits with that code's dedicated exit code.
int Fail(const alp::Status& status, const char* message) {
  std::fprintf(stderr, "error: %s: %s\n", message, status.ToString().c_str());
  return ExitCodeFor(status);
}

template <typename T>
int CompressValues(const std::vector<T>& values, const std::string& out_path) {
  alp::CompressionInfo info;
  const uint64_t t0 = alp::CycleNow();
  const auto buffer =
      alp::CompressColumnParallel(values.data(), values.size(), {}, &info, &Pool());
  const uint64_t cycles = alp::CycleNow() - t0;

  if (!alp::WriteFileBytes(out_path, buffer.data(), buffer.size())) {
    return Fail(alp::Status::Io(out_path), "cannot write output");
  }
  std::printf("%zu values -> %zu bytes (%.2f bits/value, %.2fx)\n", values.size(),
              buffer.size(), alp::BitsPerValue<T>(buffer, values.size()),
              values.size() * sizeof(T) / static_cast<double>(buffer.size()));
  std::printf("rowgroups: %zu (%zu ALP_rd) | exceptions/vector: %.2f | "
              "%.3f tuples/cycle | %u threads\n",
              info.rowgroups, info.rowgroups_rd, info.ExceptionsPerVector(),
              cycles == 0 ? 0.0 : static_cast<double>(values.size()) / cycles,
              Pool().size());
  return 0;
}

int CmdCompress(const std::string& in_path, const std::string& out_path) {
  const auto values = alp::ReadDoublesFileEx(in_path);
  if (!values.ok()) return Fail(values.status(), "cannot read input");
  if (g_float32) {
    std::vector<float> narrowed(values->begin(), values->end());
    return CompressValues(narrowed, out_path);
  }
  return CompressValues(*values, out_path);
}

template <typename T>
int DecompressAs(const std::vector<uint8_t>& buffer, const std::string& out_path,
                 const alp::Status& open_error) {
  auto reader =
      alp::ColumnReader<T>::OpenParallel(buffer.data(), buffer.size(), &Pool());
  if (!reader.ok()) {
    // The double error names the real problem when both types fail.
    return Fail(open_error.ok() ? reader.status() : open_error,
                "not a valid ALP column");
  }
  std::vector<T> values(reader->value_count());
  const uint64_t t0 = alp::CycleNow();
  const alp::Status decode = reader->TryDecodeAllParallel(values.data(), &Pool());
  const uint64_t cycles = alp::CycleNow() - t0;
  if (!decode.ok()) return Fail(decode, "cannot decode column");
  // Output files are always float64; float32 columns are widened (lossless).
  const std::vector<double> wide(values.begin(), values.end());
  if (!alp::WriteDoublesFile(out_path, wide.data(), wide.size())) {
    return Fail(alp::Status::Io(out_path), "cannot write output");
  }
  std::printf("%zu values restored (%.3f tuples/cycle, %u threads)\n",
              values.size(),
              cycles == 0 ? 0.0 : static_cast<double>(values.size()) / cycles,
              Pool().size());
  return 0;
}

int CmdDecompress(const std::string& in_path, const std::string& out_path) {
  const auto buffer = alp::ReadFileBytes(in_path);
  if (!buffer.has_value()) return Fail(alp::Status::Io(in_path), "cannot read input");
  auto reader = alp::ColumnReader<double>::OpenParallel(buffer->data(),
                                                        buffer->size(), &Pool());
  if (!reader.ok()) {
    // The header's type tag decides which reader opens; fall back to float32.
    return DecompressAs<float>(*buffer, out_path, reader.status());
  }
  return DecompressAs<double>(*buffer, out_path, alp::Status::Ok());
}

template <typename T>
int InspectAs(const std::string& in_path, const std::vector<uint8_t>& buffer,
              const alp::ColumnReader<T>& reader) {
  std::printf("file:        %s (%zu bytes)\n", in_path.c_str(), buffer.size());
  std::printf("type:        %s\n", sizeof(T) == 8 ? "float64" : "float32");
  std::printf("format:      v%u%s\n", reader.format_version(),
              reader.format_version() >= 3 ? " (checksummed)" : "");
  std::printf("values:      %zu\n", reader.value_count());
  std::printf("vectors:     %zu\n", reader.vector_count());
  std::printf("bits/value:  %.2f\n",
              alp::BitsPerValue<T>(buffer, reader.value_count()));

  size_t rd_vectors = 0;
  double global_min = std::numeric_limits<double>::infinity();
  double global_max = -global_min;
  for (size_t v = 0; v < reader.vector_count(); ++v) {
    rd_vectors += reader.VectorScheme(v) == alp::Scheme::kAlpRd;
    global_min = std::min(global_min, reader.Stats(v).min);
    global_max = std::max(global_max, reader.Stats(v).max);
  }
  std::printf("schemes:     %zu ALP vectors, %zu ALP_rd vectors\n",
              reader.vector_count() - rd_vectors, rd_vectors);
  if (reader.vector_count() > 0) {
    std::printf("value range: [%g, %g]\n", global_min, global_max);
  }
  return 0;
}

int CmdInspect(const std::string& in_path) {
  const auto buffer = alp::ReadFileBytes(in_path);
  if (!buffer.has_value()) return Fail(alp::Status::Io(in_path), "cannot read input");
  // The header's type tag decides which reader opens: try float64, then
  // fall back to float32. When both fail, the float64 error names the real
  // problem (a float32 column is not "corrupt", just narrower).
  auto reader = alp::ColumnReader<double>::Open(buffer->data(), buffer->size());
  if (reader.ok()) return InspectAs<double>(in_path, *buffer, *reader);
  auto reader32 = alp::ColumnReader<float>::Open(buffer->data(), buffer->size());
  if (reader32.ok()) return InspectAs<float>(in_path, *buffer, *reader32);
  return Fail(reader.status(), "not a valid ALP column");
}

int CmdExplain(const std::string& in_path, bool json, size_t top_n,
               bool perf) {
  const auto buffer = alp::ReadFileBytes(in_path);
  if (!buffer.has_value()) return Fail(alp::Status::Io(in_path), "cannot read input");
  const auto report = alp::obs::ColumnXRay::Analyze(buffer->data(), buffer->size());
  if (!report.ok()) {
    return Fail(report.status(), "not a valid ALP column");
  }
  // --perf is the one x-ray section that decodes: repeated full passes
  // under a hardware-counter read. Degrades to rdtsc-only (and says so)
  // when perf_event is unavailable.
  alp::obs::XRayDecodePerf decode_perf;
  const alp::obs::XRayDecodePerf* perf_ptr = nullptr;
  if (perf) {
    const auto measured =
        alp::obs::ColumnXRay::MeasureDecodePerf(buffer->data(), buffer->size());
    if (!measured.ok()) {
      return Fail(measured.status(), "decode-perf measurement failed");
    }
    decode_perf = *measured;
    perf_ptr = &decode_perf;
  }
  if (json) {
    std::printf("%s\n",
                alp::obs::ColumnXRay::ToJson(*report, top_n, perf_ptr).c_str());
  } else {
    std::printf("file: %s\n%s", in_path.c_str(),
                alp::obs::ColumnXRay::ToText(*report, top_n, perf_ptr).c_str());
  }
  return 0;
}

int CmdVerify(const std::string& alp_path, const std::string& original_path) {
  const auto buffer = alp::ReadFileBytes(alp_path);
  if (!buffer.has_value()) return Fail(alp::Status::Io(alp_path), "cannot read input");
  const auto original = alp::ReadDoublesFileEx(original_path);
  if (!original.ok()) {
    return Fail(original.status(), "cannot read original");
  }
  auto reader = alp::ColumnReader<double>::OpenParallel(buffer->data(),
                                                        buffer->size(), &Pool());
  if (!reader.ok()) {
    return Fail(reader.status(), "not a valid ALP column");
  }
  if (reader->value_count() != original->size()) {
    return Fail("value counts differ");
  }
  std::vector<double> restored(reader->value_count());
  const alp::Status decode = reader->TryDecodeAllParallel(restored.data(), &Pool());
  if (!decode.ok()) return Fail(decode, "cannot decode column");
  for (size_t i = 0; i < restored.size(); ++i) {
    if (alp::BitsOf(restored[i]) != alp::BitsOf((*original)[i])) {
      std::fprintf(stderr, "MISMATCH at row %zu\n", i);
      return 1;
    }
  }
  std::printf("OK: %zu values bit-identical\n", restored.size());
  return 0;
}

int CmdBench(const std::string& in_path) {
  const auto values = alp::ReadDoublesFileEx(in_path);
  if (!values.ok()) return Fail(values.status(), "cannot read input");
  if (values->empty()) return Fail("no values in input");
  const size_t n = values->size();

  std::printf("%zu values from %s\n\n", n, in_path.c_str());
  std::printf("%-10s %12s %14s %14s\n", "scheme", "bits/value", "comp t/c",
              "dec t/c");
  std::printf("----------------------------------------------------\n");

  const auto report = [&](const char* name, size_t compressed_bytes,
                          uint64_t comp_cycles, uint64_t dec_cycles) {
    std::printf("%-10s %12.2f %14.3f %14.3f\n", name,
                compressed_bytes * 8.0 / n,
                comp_cycles == 0 ? 0.0 : static_cast<double>(n) / comp_cycles,
                dec_cycles == 0 ? 0.0 : static_cast<double>(n) / dec_cycles);
  };

  // ALP via the column format.
  {
    const uint64_t t0 = alp::CycleNow();
    const auto buffer = alp::CompressColumn(values->data(), n);
    const uint64_t t1 = alp::CycleNow();
    std::vector<double> out(n);
    const alp::Status s = alp::DecompressColumn(buffer, out.data());
    const uint64_t t2 = alp::CycleNow();
    if (!s.ok()) return Fail(s, "ALP decode failed");
    report("ALP", buffer.size(), t1 - t0, t2 - t1);
  }

  for (const auto& codec : alp::codecs::AllDoubleCodecs()) {
    if (codec->name() == "ALP") continue;
    const uint64_t t0 = alp::CycleNow();
    const auto buffer = codec->Compress(values->data(), n);
    const uint64_t t1 = alp::CycleNow();
    std::vector<double> out(n);
    const alp::Status s =
        codec->TryDecompress(buffer.data(), buffer.size(), n, out.data());
    const uint64_t t2 = alp::CycleNow();
    const std::string name(codec->name());
    if (!s.ok()) return Fail(s, (name + " decode failed").c_str());
    report(name.c_str(), buffer.size(), t1 - t0, t2 - t1);
  }
  return 0;
}

/// Full-pipeline telemetry profile of one file: compress + decode + verify
/// in memory with the registry enabled, then dump the snapshot. This is the
/// quickest way to see where a dataset's cycles go and how the sampler
/// behaved, without writing any output file.
int CmdStats(const std::string& in_path, bool prom, bool perf) {
  const auto values = alp::ReadDoublesFileEx(in_path);
  if (!values.ok()) return Fail(values.status(), "cannot read input");

  alp::obs::SetEnabled(true);
  alp::obs::MetricRegistry::Global().Reset();
  // Obs-layer health (trace/recorder drop counts) registered up front so
  // the snapshot and the Prometheus exposition name them even at zero.
  alp::obs::RegisterObsHealthMetrics();
  if (perf) {
    // Arm per-span hardware counters for the run: every instrumented stage
    // (sample/choose/encode/pack, unFFOR-decode, chunk-fetch, ...) reports
    // IPC and miss rates on top of its cycle counts. The probe line goes to
    // stderr so --prom output stays a clean exposition.
    alp::obs::SetPerfSpansEnabled(true);
    alp::obs::PublishPerfAvailability();
    const alp::obs::PerfProbeResult& probe = alp::obs::PerfProbe();
    std::fprintf(stderr, "perf counters: %s\n",
                 probe.detail.empty()
                     ? alp::obs::PerfAvailabilityName(probe.availability)
                     : probe.detail.c_str());
  }

  alp::CompressionInfo info;
  const auto buffer =
      alp::CompressColumnParallel(values->data(), values->size(), {}, &info, &Pool());
  auto reader = alp::ColumnReader<double>::OpenParallel(buffer.data(),
                                                        buffer.size(), &Pool());
  if (!reader.ok()) {
    return Fail(reader.status(), "round-trip open failed");
  }
  std::vector<double> restored(reader->value_count());
  const alp::Status decode = reader->TryDecodeAllParallel(restored.data(), &Pool());
  if (!decode.ok()) return Fail(decode, "round-trip decode failed");
  for (size_t i = 0; i < restored.size(); ++i) {
    if (alp::BitsOf(restored[i]) != alp::BitsOf((*values)[i])) {
      return Fail("round-trip mismatch");
    }
  }

  // Out-of-core pass: decode the same column twice through a SeekableReader
  // sharing a DecodedVectorCache — cold (all misses) then warm (served from
  // cache) — so the profile also covers the io layer's chunk/cache
  // telemetry and the cache counters below have real traffic behind them.
  alp::io::DecodedVectorCache cache(64ull << 20);
  alp::io::SeekableReaderOptions seek_options;
  seek_options.cache = &cache;
  auto seekable = alp::io::SeekableReader<double>::Open(
      std::make_shared<alp::io::MemorySource>(buffer.data(), buffer.size()),
      seek_options);
  if (!seekable.ok()) return Fail(seekable.status(), "seekable open failed");
  for (int pass = 0; pass < 2; ++pass) {
    const alp::Status s = (*seekable)->TryDecodeAll(restored.data());
    if (!s.ok()) return Fail(s, "seekable decode failed");
  }
  for (size_t i = 0; i < restored.size(); ++i) {
    if (alp::BitsOf(restored[i]) != alp::BitsOf((*values)[i])) {
      return Fail("seekable round-trip mismatch");
    }
  }

  const auto snapshot = alp::obs::MetricRegistry::Global().Snapshot();
  if (prom) {
    // Prometheus text exposition of the same snapshot — what a scraper (or
    // the CI linter) consumes; the human profile lines are omitted.
    std::fputs(alp::obs::PrometheusText(snapshot).c_str(), stdout);
    g_metrics = 0;
    return 0;
  }
  const bool json = g_metrics == 2;
  if (!json) {
    std::printf("%zu values | %.2f bits/value | %zu rowgroups (%zu ALP_rd) | "
                "%u threads | kernel tier: %s\n",
                values->size(),
                alp::BitsPerValue<double>(buffer, values->size()),
                info.rowgroups, info.rowgroups_rd, Pool().size(),
                alp::kernels::ActiveTierName());
    const alp::io::DecodedVectorCache::Stats cs = cache.TotalStats();
    std::printf("cache: hits %" PRIu64 " | misses %" PRIu64 " | evictions %"
                PRIu64 " | %" PRIu64 " entries, %" PRIu64 " bytes resident\n",
                cs.hits, cs.misses, cs.evictions, cs.entries, cs.bytes);
  }
  alp::obs::TraceSink::Emit(snapshot, json, std::cout);
  // The command already printed the registry; suppress the end-of-run dump.
  g_metrics = 0;
  return 0;
}

int CmdGen(const std::string& name, const std::string& count_str,
           const std::string& out_path) {
  const auto* spec = alp::data::FindDataset(name);
  if (spec == nullptr) {
    return Fail(alp::Status::NotFound(name), "unknown dataset (try `alp datasets`)");
  }
  const long long count = std::atoll(count_str.c_str());
  if (count <= 0) return Fail("bad count", count_str);
  const auto values = alp::data::Generate(*spec, static_cast<size_t>(count));
  if (!alp::WriteDoublesFile(out_path, values.data(), values.size())) {
    return Fail(alp::Status::Io(out_path), "cannot write output");
  }
  std::printf("%lld values of %s written to %s\n", count, name.c_str(),
              out_path.c_str());
  return 0;
}

/// serve-bench: spin up an alp::server::Server over the input file and push
/// a deterministic mixed-class workload through it (60% point lookups, 30%
/// aggregates, 10% scans by request index). Prints per-class latency
/// percentiles and the admission/shedding counters — the quick smoke check
/// for the serving layer; bench_serving_load is the calibrated generator.
int CmdServeBench(const std::string& in_path, size_t requests, size_t queue,
                  size_t cache_bytes, const std::string& slow_log,
                  uint64_t slow_us) {
  const auto values = alp::ReadDoublesFileEx(in_path);
  if (!values.ok()) return Fail(values.status(), "cannot read input");

  alp::server::ServerConfig config;
  config.workers = g_threads;  // 0 = hardware concurrency.
  config.queue_capacity = queue;
  config.cache_bytes = cache_bytes;
  config.slow_log_path = slow_log;
  config.slow_query_us = slow_us;
  alp::server::Server server(config);
  const alp::Status add = server.AddColumn("col", values->data(), values->size());
  if (!add.ok()) return Fail(add, "cannot build serving column");

  const size_t vectors =
      (values->size() + alp::kVectorSize - 1) / alp::kVectorSize;
  std::vector<uint64_t> latency_ns[alp::server::kQueryClassCount];
  const uint64_t t0 = alp::NanoNow();
  // Submit in batches bounded by the queue so the smoke run measures
  // completion latency, not admission rejections.
  const size_t batch = queue > 1 ? queue / 2 : 1;
  size_t issued = 0;
  while (issued < requests) {
    std::vector<std::pair<alp::server::QueryClass, std::future<alp::server::Response>>>
        batch_futures;
    for (size_t b = 0; b < batch && issued < requests; ++b, ++issued) {
      alp::server::Request req;
      req.column = "col";
      const size_t slot = issued % 10;
      if (slot < 6) {
        req.query_class = alp::server::QueryClass::kPointLookup;
        req.vector_index = vectors == 0 ? 0 : issued % vectors;
      } else if (slot < 9) {
        req.query_class = alp::server::QueryClass::kAggregate;
      } else {
        req.query_class = alp::server::QueryClass::kScan;
      }
      batch_futures.emplace_back(req.query_class, server.Submit(std::move(req)));
    }
    for (auto& [qc, future] : batch_futures) {
      const alp::server::Response r = future.get();
      if (r.status.ok()) {
        latency_ns[static_cast<size_t>(qc)].push_back(r.queue_ns + r.exec_ns);
      }
    }
  }
  const uint64_t wall_ns = alp::NanoNow() - t0;
  server.Shutdown();

  const auto percentile = [](std::vector<uint64_t>& v, double p) -> double {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const size_t idx = static_cast<size_t>(p * (v.size() - 1));
    return v[idx] / 1e3;  // microseconds
  };
  std::printf("serve-bench: %zu requests, %u workers, queue %zu, %.2f ms wall\n",
              requests, server.workers(), queue, wall_ns / 1e6);
  for (size_t c = 0; c < alp::server::kQueryClassCount; ++c) {
    auto& lat = latency_ns[c];
    std::printf("  %-12s %6zu ok | p50 %9.1f us | p99 %9.1f us | p999 %9.1f us\n",
                alp::server::QueryClassName(static_cast<alp::server::QueryClass>(c)),
                lat.size(), percentile(lat, 0.50), percentile(lat, 0.99),
                percentile(lat, 0.999));
  }
  const alp::server::ServerStats stats = server.stats();
  std::printf("  admitted %" PRIu64 "/%" PRIu64 " | completed %" PRIu64
              " | shed %" PRIu64 " (queue_full %" PRIu64 ", class %" PRIu64
              ") | deadline_missed %" PRIu64 " | max_depth %" PRIu64 "\n",
              stats.admitted, stats.submitted, stats.completed,
              stats.SheddedTotal(), stats.shed_queue_full, stats.shed_class,
              stats.deadline_missed, stats.max_queue_depth);
  if (!slow_log.empty() || slow_us > 0) {
    std::printf("  slow queries %" PRIu64 " | flight dumps %" PRIu64 "%s%s\n",
                stats.slow_queries, stats.flight_dumps,
                slow_log.empty() ? "" : " -> ",
                slow_log.c_str());
  }
  const alp::io::DecodedVectorCache::Stats cs = server.cache_stats();
  std::printf("  cache: limit %zu bytes | hits %" PRIu64 " | misses %" PRIu64
              " | evictions %" PRIu64 " | %" PRIu64 " entries, %" PRIu64
              " bytes resident\n",
              cache_bytes, cs.hits, cs.misses, cs.evictions, cs.entries,
              cs.bytes);
  return 0;
}

int CmdDatasets() {
  for (const auto& spec : alp::data::AllDatasets()) {
    std::printf("%-14s %s, ~%" PRIu64 " values in the paper\n",
                std::string(spec.name).c_str(),
                spec.time_series ? "time series" : "non-time series",
                spec.paper_value_count);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Global options come before the command: --threads=N, --metrics=...,
  // --trace=<path> and --float32.
  int arg = 1;
  while (arg < argc && std::strncmp(argv[arg], "--", 2) == 0) {
    if (std::strncmp(argv[arg], "--threads=", 10) == 0) {
      const long v = std::atol(argv[arg] + 10);
      if (v <= 0) return Fail("bad --threads value", argv[arg]);
      g_threads = static_cast<unsigned>(v);
    } else if (std::strcmp(argv[arg], "--metrics=text") == 0) {
      g_metrics = 1;
    } else if (std::strcmp(argv[arg], "--metrics=json") == 0) {
      g_metrics = 2;
    } else if (std::strncmp(argv[arg], "--metrics", 9) == 0) {
      return Fail("bad --metrics value (use --metrics=json or --metrics=text)",
                  argv[arg]);
    } else if (std::strncmp(argv[arg], "--trace=", 8) == 0) {
      g_trace_path = argv[arg] + 8;
      if (g_trace_path.empty()) return Fail("bad --trace value", argv[arg]);
    } else if (std::strcmp(argv[arg], "--float32") == 0) {
      g_float32 = true;
    } else if (std::strncmp(argv[arg], "--kernel=", 9) == 0) {
      // Unlike the ALP_FORCE_KERNEL env (warn + fall back), an explicit
      // flag the user typed is a hard error when it cannot be honored.
      const char* name = argv[arg] + 9;
      if (!alp::kernels::ForceTierByName(name)) {
        return Fail(
            "bad --kernel value (want scalar|avx2|avx512|neon|auto, and the "
            "tier must be available on this host/build)",
            argv[arg]);
      }
    } else {
      return Usage();
    }
    ++arg;
  }
  argc -= arg - 1;
  argv += arg - 1;
  if (argc < 2) return Usage();
  if (g_metrics != 0) alp::obs::SetEnabled(true);
  if (!g_trace_path.empty()) alp::obs::StartTracing();

  const std::string command = argv[1];
  int rc = -1;
  if (command == "compress" && argc == 4) rc = CmdCompress(argv[2], argv[3]);
  else if (command == "decompress" && argc == 4) rc = CmdDecompress(argv[2], argv[3]);
  else if (command == "inspect" && argc == 3) rc = CmdInspect(argv[2]);
  else if (command == "explain" && argc >= 3 && argc <= 6) {
    // Trailing command options: [--json] [--top=N] [--perf], any order.
    bool json = false;
    bool perf = false;
    size_t top = SIZE_MAX;  // Sentinel: per-format default.
    bool bad = false;
    for (int i = 3; i < argc; ++i) {
      if (std::strcmp(argv[i], "--json") == 0) {
        json = true;
      } else if (std::strcmp(argv[i], "--perf") == 0) {
        perf = true;
      } else if (std::strncmp(argv[i], "--top=", 6) == 0) {
        const long v = std::atol(argv[i] + 6);
        if (v < 0) return Fail("bad --top value", argv[i]);
        top = static_cast<size_t>(v);  // 0 = every vector.
      } else {
        bad = true;
      }
    }
    if (!bad) {
      if (top == SIZE_MAX) top = json ? 16 : 5;
      rc = CmdExplain(argv[2], json, top, perf);
    }
  }
  else if (command == "verify" && argc == 4) rc = CmdVerify(argv[2], argv[3]);
  else if (command == "bench" && argc == 3) rc = CmdBench(argv[2]);
  else if (command == "stats" && argc >= 3 && argc <= 5) {
    // Trailing command options: [--prom] [--perf], any order.
    bool prom = false;
    bool perf = false;
    bool bad = false;
    for (int i = 3; i < argc; ++i) {
      if (std::strcmp(argv[i], "--prom") == 0) prom = true;
      else if (std::strcmp(argv[i], "--perf") == 0) perf = true;
      else bad = true;
    }
    if (!bad) rc = CmdStats(argv[2], prom, perf);
  }
  else if (command == "gen" && argc == 5) rc = CmdGen(argv[2], argv[3], argv[4]);
  else if (command == "datasets" && argc == 2) rc = CmdDatasets();
  else if (command == "serve-bench" && argc >= 3 && argc <= 8) {
    // Trailing command options: [--requests=N] [--queue=N]
    // [--catalog-bytes-limit=N] [--slow-log=<path>] [--slow-us=N], any order.
    size_t requests = 2000;
    size_t queue = 256;
    size_t cache_bytes = 0;
    std::string slow_log;
    uint64_t slow_us = 0;
    bool bad = false;
    for (int i = 3; i < argc; ++i) {
      if (std::strncmp(argv[i], "--requests=", 11) == 0) {
        const long v = std::atol(argv[i] + 11);
        if (v <= 0) return Fail("bad --requests value", argv[i]);
        requests = static_cast<size_t>(v);
      } else if (std::strncmp(argv[i], "--queue=", 8) == 0) {
        const long v = std::atol(argv[i] + 8);
        if (v <= 0) return Fail("bad --queue value", argv[i]);
        queue = static_cast<size_t>(v);
      } else if (std::strncmp(argv[i], "--catalog-bytes-limit=", 22) == 0) {
        const long long v = std::atoll(argv[i] + 22);
        if (v < 0) return Fail("bad --catalog-bytes-limit value", argv[i]);
        cache_bytes = static_cast<size_t>(v);  // 0 = cache off.
      } else if (std::strncmp(argv[i], "--slow-log=", 11) == 0) {
        slow_log = argv[i] + 11;
        if (slow_log.empty()) return Fail("bad --slow-log value", argv[i]);
      } else if (std::strncmp(argv[i], "--slow-us=", 10) == 0) {
        const long long v = std::atoll(argv[i] + 10);
        if (v < 0) return Fail("bad --slow-us value", argv[i]);
        slow_us = static_cast<uint64_t>(v);
      } else {
        bad = true;
      }
    }
    if (!bad) {
      rc = CmdServeBench(argv[2], requests, queue, cache_bytes, slow_log,
                         slow_us);
    }
  }
  if (rc < 0) return Usage();

  if (g_metrics != 0) {
    alp::obs::TraceSink::Emit(alp::obs::MetricRegistry::Global().Snapshot(),
                              g_metrics == 2, std::cout);
  }
  if (!g_trace_path.empty()) {
    alp::obs::StopTracing();
    const alp::Status ts = alp::obs::WriteTraceFile(g_trace_path);
    if (!ts.ok()) return Fail("cannot write trace", ts.ToString());
    std::fprintf(stderr, "trace written to %s (%zu spans)\n",
                 g_trace_path.c_str(),
                 alp::obs::CollectTraceSpans().size());
  }
  return rc;
}
