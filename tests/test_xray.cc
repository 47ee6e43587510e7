// X-ray / explain engine invariants (tier1). Three pillars:
//
//   1. Byte accounting is exact: for every committed golden file (v2 and
//      v3) and for freshly built fixture columns, the per-stream totals in
//      the XRayReport sum to the file size bit-for-bit, and the per-vector
//      stream fields partition each vector's extent. No estimate anywhere.
//   2. Explain is read-only and observation-independent: the report and
//      both renderings are byte-identical whether span tracing is running
//      or not, and the analyzed buffer is never modified. The same
//      assertions run in the -DALP_OBS=OFF CI job, which pins the
//      compiled-out build to identical behavior.
//   3. The trace capture exports well-formed Chrome trace_event JSON, and
//      spans attributed to one thread nest properly (any two spans on a
//      tid are disjoint or contained) under an 8-worker pool.
//
// The suite runs in both ALP_OBS builds; span-presence assertions are
// gated, everything else (including the empty-trace JSON shape) is not.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "alp/alp.h"
#include "obs/trace_buffer.h"
#include "obs/xray.h"
#include "test_fixtures.h"
#include "util/file_io.h"
#include "util/thread_pool.h"

#ifndef ALP_GOLDEN_DIR
#error "ALP_GOLDEN_DIR must point at tests/golden (set by tests/CMakeLists.txt)"
#endif

namespace alp {
namespace {

using obs::ColumnXRay;
using obs::XRayReport;
using testutil::AlpSmall;
using testutil::RdSmall;
using testutil::StripToV2;
using testutil::TwoRowgroups;

std::vector<uint8_t> LoadGolden(const std::string& name) {
  const std::string path = std::string(ALP_GOLDEN_DIR) + "/" + name;
  const auto bytes = ReadFileBytes(path);
  EXPECT_TRUE(bytes.has_value()) << "missing golden file " << path;
  return bytes.value_or(std::vector<uint8_t>{});
}

// ---------------------------------------------------------------------------
// Minimal JSON well-formedness checker (no third-party parser in the test
// tier). Accepts exactly the RFC 8259 grammar; trailing garbage fails.
// ---------------------------------------------------------------------------

class JsonScanner {
 public:
  explicit JsonScanner(const std::string& text) : s_(text) {}

  bool Parse() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  bool Value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek('}')) { ++pos_; return true; }
    while (true) {
      SkipWs();
      if (!Peek('"') || !String()) return false;
      SkipWs();
      if (!Peek(':')) return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek(',')) { ++pos_; continue; }
      if (Peek('}')) { ++pos_; return true; }
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek(']')) { ++pos_; return true; }
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek(',')) { ++pos_; continue; }
      if (Peek(']')) { ++pos_; return true; }
      return false;
    }
  }

  bool String() {
    ++pos_;  // '"'
    while (pos_ < s_.size()) {
      const unsigned char c = static_cast<unsigned char>(s_[pos_]);
      if (c == '"') { ++pos_; return true; }
      if (c < 0x20) return false;  // Raw control char: escaping bug.
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          if (pos_ + 4 >= s_.size()) return false;
          for (int i = 1; i <= 4; ++i) {
            if (!std::isxdigit(static_cast<unsigned char>(s_[pos_ + i]))) {
              return false;
            }
          }
          pos_ += 4;
        } else if (std::strchr("\"\\/bfnrt", e) == nullptr) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }

  bool Number() {
    const size_t start = pos_;
    if (Peek('-')) ++pos_;
    if (!DigitRun()) return false;
    if (Peek('.')) {
      ++pos_;
      if (!DigitRun()) return false;
    }
    if (Peek('e') || Peek('E')) {
      ++pos_;
      if (Peek('+') || Peek('-')) ++pos_;
      if (!DigitRun()) return false;
    }
    return pos_ > start;
  }

  bool DigitRun() {
    const size_t start = pos_;
    while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') ++pos_;
    return pos_ > start;
  }

  bool Literal(const char* word) {
    const size_t len = std::strlen(word);
    if (s_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }

  bool Peek(char c) const { return pos_ < s_.size() && s_[pos_] == c; }
  void SkipWs() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& s_;
  size_t pos_ = 0;
};

bool JsonParses(const std::string& text) { return JsonScanner(text).Parse(); }

// ---------------------------------------------------------------------------
// Shared accounting assertions.
// ---------------------------------------------------------------------------

/// Asserts the full accounting contract on \p report for a buffer of
/// \p size bytes: stream totals sum to the file size, every vector's
/// stream fields partition its extent, rowgroup extents tile the payload,
/// and the histograms are consistent with the per-vector records.
void CheckAccounting(const XRayReport& report, size_t size) {
  ASSERT_EQ(report.file_size, size);
  EXPECT_EQ(report.streams.Total(), report.file_size)
      << "stream byte accounting does not sum to the file size";

  // Re-derive the stream totals from the per-vector / per-rowgroup records
  // independently of Analyze's own accumulation.
  uint64_t vector_headers = 0;
  uint64_t packed = 0;
  uint64_t exceptions = 0;
  uint64_t vector_padding = 0;
  ASSERT_EQ(report.vectors.size(), report.vector_count);
  for (const auto& vm : report.vectors) {
    EXPECT_EQ(vm.header_bytes + vm.packed_bytes + vm.exception_bytes +
                  vm.padding_bytes,
              vm.byte_extent)
        << "vector " << vm.index << " streams do not partition its extent";
    EXPECT_LE(vm.bit_width, 64u) << "vector " << vm.index;
    vector_headers += vm.header_bytes;
    packed += vm.packed_bytes;
    exceptions += vm.exception_bytes;
    vector_padding += vm.padding_bytes;
  }
  EXPECT_EQ(vector_headers, report.streams.vector_headers);
  EXPECT_EQ(packed, report.streams.packed_data);
  EXPECT_EQ(exceptions, report.streams.exceptions);
  EXPECT_LE(vector_padding, report.streams.padding);

  uint64_t rowgroup_headers = 0;
  ASSERT_EQ(report.rowgroups.size(), report.rowgroup_count);
  for (const auto& rm : report.rowgroups) {
    rowgroup_headers += rm.header_bytes;
  }
  EXPECT_EQ(rowgroup_headers, report.streams.rowgroup_headers);

  // Rowgroup extents tile the payload region exactly.
  const uint64_t fixed = report.streams.column_header +
                         report.streams.rowgroup_index +
                         report.streams.checksums + report.streams.zone_map;
  uint64_t payload = 0;
  uint64_t expected_offset = fixed;
  for (const auto& rm : report.rowgroups) {
    EXPECT_EQ(rm.byte_offset, expected_offset)
        << "gap or overlap before rowgroup " << rm.index;
    expected_offset += rm.byte_extent;
    payload += rm.byte_extent;
  }
  EXPECT_EQ(fixed + payload, report.file_size);

  // Histogram mass balances the per-vector records.
  uint64_t width_mass = 0;
  for (const uint64_t count : report.bit_width_histogram) width_mass += count;
  EXPECT_EQ(width_mass, report.vector_count);
  uint64_t position_mass = 0;
  for (const uint64_t count : report.exception_position_histogram) {
    position_mass += count;
  }
  EXPECT_EQ(position_mass, report.exception_count);
  EXPECT_EQ(report.vectors_alp + report.vectors_rd, report.vector_count);
}

XRayReport MustAnalyze(const std::vector<uint8_t>& buffer) {
  StatusOr<XRayReport> report = ColumnXRay::Analyze(buffer.data(), buffer.size());
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return report.ok() ? *report : XRayReport{};
}

// ---------------------------------------------------------------------------
// 1. Byte accounting over the committed golden files and fresh fixtures.
// ---------------------------------------------------------------------------

TEST(XRayAccounting, GoldenAlpSmallV3) {
  const auto buffer = LoadGolden("alp_small.alp");
  ASSERT_FALSE(buffer.empty());
  const XRayReport report = MustAnalyze(buffer);
  EXPECT_EQ(report.format_version, 3);
  EXPECT_EQ(report.type, "double");
  EXPECT_EQ(report.value_count, AlpSmall().values.size());
  EXPECT_GT(report.streams.checksums, 0u);  // v3 carries checksums.
  CheckAccounting(report, buffer.size());
}

TEST(XRayAccounting, GoldenAlpSmallV2) {
  const auto buffer = LoadGolden("alp_small_v2.alp");
  ASSERT_FALSE(buffer.empty());
  const XRayReport report = MustAnalyze(buffer);
  EXPECT_EQ(report.format_version, 2);
  EXPECT_EQ(report.streams.checksums, 0u);  // v2 predates checksums.
  CheckAccounting(report, buffer.size());
}

TEST(XRayAccounting, GoldenRdSmall) {
  const auto buffer = LoadGolden("rd_small.alp");
  ASSERT_FALSE(buffer.empty());
  const XRayReport report = MustAnalyze(buffer);
  EXPECT_EQ(report.vectors_rd, report.vector_count)
      << "rd_small should be an ALP_rd column throughout";
  CheckAccounting(report, buffer.size());
  for (const auto& rm : report.rowgroups) {
    EXPECT_EQ(rm.scheme, Scheme::kAlpRd);
    EXPECT_GT(rm.rd_dict_size, 0u);
  }
}

TEST(XRayAccounting, FixtureColumnsAndV2Strip) {
  const std::vector<const std::vector<uint8_t>*> buffers = {
      &AlpSmall().buffer, &RdSmall().buffer, &TwoRowgroups().buffer};
  for (const auto* buffer : buffers) {
    CheckAccounting(MustAnalyze(*buffer), buffer->size());
  }
  const std::vector<uint8_t> v2 = StripToV2(TwoRowgroups().buffer);
  const XRayReport report = MustAnalyze(v2);
  EXPECT_EQ(report.format_version, 2);
  CheckAccounting(report, v2.size());
}

TEST(XRayAccounting, EmptyColumn) {
  const std::vector<uint8_t> buffer = CompressColumn<double>(nullptr, 0);
  const XRayReport report = MustAnalyze(buffer);
  EXPECT_EQ(report.value_count, 0u);
  EXPECT_EQ(report.vector_count, 0u);
  EXPECT_EQ(report.exception_count, 0u);
  EXPECT_EQ(report.BitsPerValue(), 0.0);
  CheckAccounting(report, buffer.size());
}

TEST(XRayAccounting, FloatColumn) {
  std::vector<float> values(3 * kVectorSize + 9);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<float>(static_cast<int>(i % 4096) - 2048) / 4.0f;
  }
  const std::vector<uint8_t> buffer =
      CompressColumn(values.data(), values.size());

  // The typed entry point and the auto-detecting one agree.
  StatusOr<XRayReport> typed =
      ColumnXRay::AnalyzeAs<float>(buffer.data(), buffer.size());
  ASSERT_TRUE(typed.ok()) << typed.status().ToString();
  const XRayReport report = MustAnalyze(buffer);
  EXPECT_EQ(report.type, "float");
  EXPECT_EQ(report.value_count, values.size());
  EXPECT_EQ(typed->streams.Total(), report.streams.Total());
  CheckAccounting(report, buffer.size());

  // The double entry point must refuse a float file, not misread it.
  EXPECT_FALSE(ColumnXRay::AnalyzeAs<double>(buffer.data(), buffer.size()).ok());
}

TEST(XRayAccounting, ExceptionPositionsAreInRange) {
  const auto& buffer = AlpSmall().buffer;
  StatusOr<ColumnMetaCursor<double>> cursor =
      ColumnMetaCursor<double>::Open(buffer.data(), buffer.size());
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  uint64_t total_exceptions = 0;
  for (size_t v = 0; v < cursor->vector_count(); ++v) {
    StatusOr<VectorMeta> vm = cursor->Vector(v);
    ASSERT_TRUE(vm.ok()) << vm.status().ToString();
    std::vector<uint16_t> positions;
    ASSERT_TRUE(cursor->ReadExceptionPositions(*vm, &positions).ok());
    ASSERT_EQ(positions.size(), vm->exc_count);
    for (const uint16_t pos : positions) EXPECT_LT(pos, vm->n);
    total_exceptions += vm->exc_count;
  }
  // DecimalData seeds random-bit specials, so the fixture must actually
  // exercise the exception stream.
  EXPECT_GT(total_exceptions, 0u);
}

TEST(XRayAccounting, RejectsTruncatedAndGarbageBuffers) {
  const auto& buffer = AlpSmall().buffer;
  for (const size_t size : {size_t{0}, size_t{10}, buffer.size() - 9}) {
    EXPECT_FALSE(ColumnXRay::Analyze(buffer.data(), size).ok())
        << "accepted a " << size << "-byte prefix";
  }
  const std::vector<uint8_t> garbage(256, 0xA5);
  EXPECT_FALSE(ColumnXRay::Analyze(garbage.data(), garbage.size()).ok());
}

// ---------------------------------------------------------------------------
// 2. Rendering: valid JSON, key schema fields present, and independence
//    from the runtime trace toggle.
// ---------------------------------------------------------------------------

TEST(XRayRender, JsonIsWellFormedAndCarriesSchemaFields) {
  const XRayReport report = MustAnalyze(TwoRowgroups().buffer);
  for (const size_t top_n : {size_t{0}, size_t{1}, size_t{16}}) {
    const std::string json = ColumnXRay::ToJson(report, top_n);
    EXPECT_TRUE(JsonParses(json)) << json.substr(0, 200);
  }
  const std::string json = ColumnXRay::ToJson(report, 4);
  for (const char* key :
       {"\"alp_xray\"", "\"file_size\"", "\"value_count\"", "\"streams\"",
        "\"exceptions\"", "\"bit_width_histogram\"", "\"rowgroups\"",
        "\"outliers\"", "\"total\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
  EXPECT_NE(json.find("\"file_size\":" +
                      std::to_string(TwoRowgroups().buffer.size())),
            std::string::npos);

  const std::string text = ColumnXRay::ToText(report, 5);
  EXPECT_NE(text.find("alp x-ray"), std::string::npos);
  EXPECT_NE(text.find("100.0%"), std::string::npos)
      << "stream table should show the accounted total at 100%";
}

TEST(XRayRender, IdenticalWhetherTracingRunsOrNot) {
  const auto& buffer = TwoRowgroups().buffer;
  std::vector<uint8_t> copy = buffer;

  const XRayReport quiet = MustAnalyze(copy);
  const std::string quiet_json = ColumnXRay::ToJson(quiet, 0);
  const std::string quiet_text = ColumnXRay::ToText(quiet, 8);

  obs::StartTracing();
  const XRayReport traced = MustAnalyze(copy);
  const std::string traced_json = ColumnXRay::ToJson(traced, 0);
  const std::string traced_text = ColumnXRay::ToText(traced, 8);
  obs::StopTracing();
  obs::ResetTrace();

  EXPECT_EQ(quiet_json, traced_json);
  EXPECT_EQ(quiet_text, traced_text);
  EXPECT_EQ(copy, buffer) << "explain must never modify the buffer";
}

// ---------------------------------------------------------------------------
// 3. Trace capture: Chrome trace_event JSON shape, per-thread nesting
//    under an 8-worker pool, overflow accounting, and the OFF-build no-op.
// ---------------------------------------------------------------------------

TEST(Trace, EmptyCaptureIsValidJson) {
  obs::ResetTrace();
  const std::string json = obs::TraceToJson();
  EXPECT_TRUE(JsonParses(json)) << json.substr(0, 200);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
}

TEST(Trace, EightWorkerCaptureNestsPerThread) {
  std::vector<double> values = testutil::DecimalData(7001, 4 * kRowgroupSize);
  ThreadPool pool(8);

  obs::StartTracing();
  const std::vector<uint8_t> compressed =
      CompressColumnParallel(values.data(), values.size(), {}, nullptr, &pool);
  obs::StopTracing();

  EXPECT_EQ(compressed, CompressColumn(values.data(), values.size()))
      << "tracing must not perturb the encoded bytes";

  const std::vector<obs::TraceSpan> spans = obs::CollectTraceSpans();
  const std::string json = obs::TraceToJson();
  obs::ResetTrace();

  ASSERT_TRUE(JsonParses(json)) << json.substr(0, 200);

#if ALP_OBS
  ASSERT_FALSE(spans.empty());
  // Spans from pool workers carry their worker index; the coordinating
  // thread gets a synthetic tid. With 4 rowgroups on 8 workers at least
  // two workers must have recorded something.
  std::vector<int> tids;
  for (const auto& span : spans) {
    EXPECT_FALSE(span.name.empty());
    EXPECT_LE(span.begin_cycles, span.end_cycles);
    EXPECT_TRUE((span.tid >= 0 && span.tid < 8) ||
                span.tid >= obs::kSyntheticTidBase)
        << "tid " << span.tid;
    if (std::find(tids.begin(), tids.end(), span.tid) == tids.end()) {
      tids.push_back(span.tid);
    }
  }
  EXPECT_GE(tids.size(), 3u) << "expected main + several workers";

  // Proper nesting per tid: any two spans on one thread are either
  // disjoint or one contains the other — scoped timers cannot interleave.
  for (const int tid : tids) {
    std::vector<const obs::TraceSpan*> own;
    for (const auto& span : spans) {
      if (span.tid == tid) own.push_back(&span);
    }
    for (size_t i = 0; i < own.size(); ++i) {
      for (size_t j = i + 1; j < own.size(); ++j) {
        const auto& a = *own[i];
        const auto& b = *own[j];
        const bool disjoint = a.end_cycles <= b.begin_cycles ||
                              b.end_cycles <= a.begin_cycles;
        const bool a_in_b = b.begin_cycles <= a.begin_cycles &&
                            a.end_cycles <= b.end_cycles;
        const bool b_in_a = a.begin_cycles <= b.begin_cycles &&
                            b.end_cycles <= a.end_cycles;
        EXPECT_TRUE(disjoint || a_in_b || b_in_a)
            << "spans " << a.name << " and " << b.name
            << " partially overlap on tid " << tid;
      }
    }
  }

  // The JSON carries one complete event per span plus thread metadata.
  size_t complete_events = 0;
  for (size_t at = json.find("\"ph\":\"X\""); at != std::string::npos;
       at = json.find("\"ph\":\"X\"", at + 1)) {
    ++complete_events;
  }
  EXPECT_EQ(complete_events, spans.size());
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
#else
  EXPECT_TRUE(spans.empty()) << "OFF build must not record spans";
#endif
}

TEST(Trace, RingOverflowCountsDroppedSpans) {
  obs::StartTracing();
  const size_t pushed = obs::kTraceRingCapacity + 100;
  for (size_t i = 0; i < pushed; ++i) {
    obs::TraceRecordSpan({"test.overflow", i, i + 1, 1});
  }
  obs::StopTracing();
  const std::vector<obs::TraceSpan> spans = obs::CollectTraceSpans();
  const uint64_t dropped = obs::TraceDroppedSpans();
  obs::ResetTrace();
#if ALP_OBS
  EXPECT_EQ(spans.size(), obs::kTraceRingCapacity);
  EXPECT_EQ(dropped, pushed - obs::kTraceRingCapacity);
#else
  EXPECT_TRUE(spans.empty());
  EXPECT_EQ(dropped, 0u);
#endif
}

TEST(Trace, DisabledByDefaultAndStopsRecording) {
  obs::ResetTrace();
  EXPECT_FALSE(obs::TraceEnabled());
  obs::TraceRecordSpan({"test.disabled", 1, 2, 1});
  EXPECT_TRUE(obs::CollectTraceSpans().empty())
      << "spans must not record while tracing is off";
#if ALP_OBS
  obs::StartTracing();
  EXPECT_TRUE(obs::TraceEnabled());
  obs::StopTracing();
  EXPECT_FALSE(obs::TraceEnabled());
  obs::ResetTrace();
#else
  obs::StartTracing();
  EXPECT_FALSE(obs::TraceEnabled()) << "OFF build can never enable tracing";
  obs::StopTracing();
#endif
}

}  // namespace
}  // namespace alp
