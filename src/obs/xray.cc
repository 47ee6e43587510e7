#include "obs/xray.h"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <sstream>

#include "alp/constants.h"
#include "alp/kernel_dispatch.h"
#include "obs/perf_counters.h"
#include "obs/sink.h"
#include "util/cycle_clock.h"

namespace alp::obs {

namespace {

const char* SchemeName(Scheme s) {
  return s == Scheme::kAlpRd ? "alp_rd" : "alp";
}

std::string Fixed(double v, int precision = 3) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

/// Indices of the report's vectors ranked by bits per value, descending
/// (ties broken by vector index for deterministic output).
std::vector<size_t> RankedOutliers(const XRayReport& report, size_t top_n) {
  std::vector<size_t> order(report.vectors.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return XRayVectorBitsPerValue(report.vectors[a]) >
           XRayVectorBitsPerValue(report.vectors[b]);
  });
  if (top_n != 0 && order.size() > top_n) order.resize(top_n);
  return order;
}

void AppendStreamJson(std::string& out, const char* name, uint64_t bytes,
                      bool first) {
  if (!first) out += ',';
  out += JsonQuote(name);
  out += ':';
  out += std::to_string(bytes);
}

void AppendVectorJson(std::string& out, const XRayReport& report,
                      const VectorMeta& vm) {
  out += "{\"index\":" + std::to_string(vm.index);
  out += ",\"rowgroup\":" + std::to_string(vm.rowgroup);
  out += ",\"scheme\":";
  out += JsonQuote(SchemeName(vm.scheme));
  out += ",\"n\":" + std::to_string(vm.n);
  out += ",\"offset\":" + std::to_string(vm.byte_offset);
  out += ",\"bytes\":" + std::to_string(vm.byte_extent);
  out += ",\"bits_per_value\":" + Fixed(XRayVectorBitsPerValue(vm));
  out += ",\"bit_width\":" + std::to_string(vm.bit_width);
  out += ",\"exceptions\":" + std::to_string(vm.exc_count);
  if (vm.scheme == Scheme::kAlp) {
    out += ",\"e\":" + std::to_string(vm.e);
    out += ",\"f\":" + std::to_string(vm.f);
    out += ",\"int_encoding\":";
    out += JsonQuote(vm.int_encoding == 0 ? "ffor" : "delta");
  } else {
    const RowgroupMeta& rg = report.rowgroups[vm.rowgroup];
    out += ",\"right_bits\":" + std::to_string(rg.rd_right_bits);
    out += ",\"dict_width\":" + std::to_string(rg.rd_dict_width);
  }
  out += ",\"streams\":{\"header\":" + std::to_string(vm.header_bytes);
  out += ",\"packed\":" + std::to_string(vm.packed_bytes);
  out += ",\"exceptions\":" + std::to_string(vm.exception_bytes);
  out += ",\"padding\":" + std::to_string(vm.padding_bytes);
  out += "}}";
}

}  // namespace

double XRayVectorBitsPerValue(const VectorMeta& vm) {
  return vm.n == 0 ? 0.0
                   : static_cast<double>(vm.byte_extent) * 8.0 /
                         static_cast<double>(vm.n);
}

template <typename T>
StatusOr<XRayReport> ColumnXRay::AnalyzeAs(const uint8_t* data, size_t size) {
  StatusOr<ColumnMetaCursor<T>> cursor_or = ColumnMetaCursor<T>::Open(data, size);
  if (!cursor_or.ok()) return cursor_or.status();
  const ColumnMetaCursor<T>& cursor = cursor_or.value();

  XRayReport report;
  report.type = sizeof(T) == 8 ? "double" : "float";
  report.format_version = cursor.format_version();
  report.file_size = cursor.file_size();
  report.value_count = cursor.value_count();
  report.vector_count = cursor.vector_count();
  report.rowgroup_count = cursor.rowgroup_count();

  report.streams.column_header = cursor.column_header_bytes();
  report.streams.rowgroup_index = cursor.rowgroup_index_bytes();
  report.streams.checksums = cursor.checksum_bytes();
  report.streams.zone_map = cursor.zone_map_bytes();

  report.rowgroups.reserve(report.rowgroup_count);
  report.vectors.reserve(report.vector_count);
  std::vector<uint16_t> positions;
  for (size_t rg = 0; rg < report.rowgroup_count; ++rg) {
    StatusOr<RowgroupMeta> rm_or = cursor.Rowgroup(rg);
    if (!rm_or.ok()) return rm_or.status();
    const RowgroupMeta& rm = rm_or.value();
    report.streams.rowgroup_headers += rm.header_bytes;

    for (size_t local = 0; local < rm.vector_count; ++local) {
      StatusOr<VectorMeta> vm_or = cursor.Vector(rm.first_vector + local);
      if (!vm_or.ok()) return vm_or.status();
      const VectorMeta& vm = vm_or.value();
      report.streams.vector_headers += vm.header_bytes;
      report.streams.packed_data += vm.packed_bytes;
      report.streams.exceptions += vm.exception_bytes;
      report.streams.padding += vm.padding_bytes;
      report.exception_count += vm.exc_count;
      report.bit_width_histogram[std::min<unsigned>(vm.bit_width, 64)]++;
      if (vm.scheme == Scheme::kAlpRd) {
        ++report.vectors_rd;
      } else {
        ++report.vectors_alp;
      }
      if (vm.exc_count > 0) {
        Status ps = cursor.ReadExceptionPositions(vm, &positions);
        if (!ps.ok()) return ps;
        constexpr size_t kBucketWidth = kVectorSize / kXRayPositionBuckets;
        for (uint16_t pos : positions) {
          const size_t bucket =
              std::min<size_t>(pos / kBucketWidth, kXRayPositionBuckets - 1);
          report.exception_position_histogram[bucket]++;
        }
      }
      report.vectors.push_back(vm);
    }
    report.rowgroups.push_back(rm);
  }

  // The proof obligation: every byte of the file is attributed to exactly
  // one stream. A mismatch means the cursor mis-parsed the layout (or the
  // file has a structure the accounting does not know), so the report is
  // withheld rather than published with a silent hole.
  if (report.streams.Total() != report.file_size) {
    return Status::Corrupt(
        "x-ray byte accounting mismatch: streams sum to " +
        std::to_string(report.streams.Total()) + " of " +
        std::to_string(report.file_size) + " file bytes");
  }
  return report;
}

StatusOr<XRayReport> ColumnXRay::Analyze(const uint8_t* data, size_t size) {
  StatusOr<XRayReport> as_double = AnalyzeAs<double>(data, size);
  if (as_double.ok()) return as_double;
  StatusOr<XRayReport> as_float = AnalyzeAs<float>(data, size);
  if (as_float.ok()) return as_float;
  return as_double.status();  // The double error names the real problem.
}

namespace {

template <typename T>
StatusOr<XRayDecodePerf> MeasureDecodePerfAs(const uint8_t* data,
                                             size_t size) {
  StatusOr<ColumnReader<T>> reader_or = ColumnReader<T>::Open(data, size);
  if (!reader_or.ok()) return reader_or.status();
  const ColumnReader<T>& reader = reader_or.value();

  XRayDecodePerf perf;
  perf.values = reader.value_count();
  std::vector<T> out(reader.value_count());

  // Warm-up pass: faults the buffer in and settles dispatch, so the
  // measured passes profile steady-state decode, not first-touch.
  Status warm = reader.TryDecodeAll(out.data());
  if (!warm.ok()) return warm;

  PerfScope counters;
  counters.Arm();
  const uint64_t cycles_begin = ::alp::CycleNow();
  // Repeat until the window is long enough for rates to be stable; small
  // test columns get many passes, real columns typically one or two.
  constexpr uint64_t kMinCycles = 20'000'000;
  uint64_t passes = 0;
  do {
    Status pass = reader.TryDecodeAll(out.data());
    if (!pass.ok()) return pass;
    ++passes;
  } while (::alp::CycleNow() - cycles_begin < kMinCycles && passes < 1000);
  const uint64_t cycles = ::alp::CycleNow() - cycles_begin;
  perf.passes = passes;

  const double total_values =
      static_cast<double>(perf.values) * static_cast<double>(passes);
  if (total_values > 0) {
    perf.cycles_per_value = static_cast<double>(cycles) / total_values;
  }

  const PerfSample delta = counters.Finish();
  if (delta.valid && total_values > 0) {
    perf.measured = true;
    perf.ipc = delta.Ipc();
    perf.cache_misses_per_value =
        static_cast<double>(delta.cache_misses) / total_values;
    perf.cache_references_per_value =
        static_cast<double>(delta.cache_references) / total_values;
    perf.branch_misses_per_value =
        static_cast<double>(delta.branch_misses) / total_values;
    perf.cache_miss_rate = delta.CacheMissRate();
    perf.multiplex_scale = delta.Scale();
  }
  return perf;
}

}  // namespace

StatusOr<XRayDecodePerf> ColumnXRay::MeasureDecodePerf(const uint8_t* data,
                                                       size_t size) {
  StatusOr<XRayDecodePerf> as_double = MeasureDecodePerfAs<double>(data, size);
  if (as_double.ok()) return as_double;
  StatusOr<XRayDecodePerf> as_float = MeasureDecodePerfAs<float>(data, size);
  if (as_float.ok()) return as_float;
  return as_double.status();
}

std::string ColumnXRay::ToJson(const XRayReport& report, size_t top_n,
                               const XRayDecodePerf* perf) {
  std::string out;
  out.reserve(4096 + report.rowgroups.size() * 128);
  out += "{\"alp_xray\":1,\"type\":";
  out += JsonQuote(report.type);
  out += ",\"format_version\":" + std::to_string(report.format_version);
  // Environment fact, not a file property: which decode kernel tier this
  // process dispatches to (determines decode speed, never decoded bytes).
  out += ",\"kernel_tier\":";
  out += JsonQuote(kernels::ActiveTierName());
  out += ",\"file_size\":" + std::to_string(report.file_size);
  out += ",\"value_count\":" + std::to_string(report.value_count);
  out += ",\"vector_count\":" + std::to_string(report.vector_count);
  out += ",\"rowgroup_count\":" + std::to_string(report.rowgroup_count);
  out += ",\"bits_per_value\":" + Fixed(report.BitsPerValue());

  out += ",\"schemes\":{\"alp\":" + std::to_string(report.vectors_alp);
  out += ",\"alp_rd\":" + std::to_string(report.vectors_rd) + "}";

  out += ",\"exceptions\":{\"count\":" + std::to_string(report.exception_count);
  out += ",\"per_vector\":" + Fixed(report.ExceptionsPerVector());
  out += ",\"position_bucket_size\":" +
         std::to_string(kVectorSize / kXRayPositionBuckets);
  out += ",\"position_histogram\":[";
  for (size_t i = 0; i < report.exception_position_histogram.size(); ++i) {
    if (i) out += ',';
    out += std::to_string(report.exception_position_histogram[i]);
  }
  out += "]}";

  // Sparse map: only widths that occur.
  out += ",\"bit_width_histogram\":{";
  bool first = true;
  for (size_t w = 0; w < report.bit_width_histogram.size(); ++w) {
    if (report.bit_width_histogram[w] == 0) continue;
    if (!first) out += ',';
    first = false;
    out += JsonQuote(std::to_string(w));
    out += ':' + std::to_string(report.bit_width_histogram[w]);
  }
  out += '}';

  out += ",\"streams\":{";
  AppendStreamJson(out, "column_header", report.streams.column_header, true);
  AppendStreamJson(out, "rowgroup_index", report.streams.rowgroup_index, false);
  AppendStreamJson(out, "checksums", report.streams.checksums, false);
  AppendStreamJson(out, "zone_map", report.streams.zone_map, false);
  AppendStreamJson(out, "rowgroup_headers", report.streams.rowgroup_headers, false);
  AppendStreamJson(out, "vector_headers", report.streams.vector_headers, false);
  AppendStreamJson(out, "packed_data", report.streams.packed_data, false);
  AppendStreamJson(out, "exceptions", report.streams.exceptions, false);
  AppendStreamJson(out, "padding", report.streams.padding, false);
  AppendStreamJson(out, "total", report.streams.Total(), false);
  out += '}';

  out += ",\"rowgroups\":[";
  for (size_t i = 0; i < report.rowgroups.size(); ++i) {
    const RowgroupMeta& rm = report.rowgroups[i];
    if (i) out += ',';
    out += "{\"index\":" + std::to_string(rm.index);
    out += ",\"offset\":" + std::to_string(rm.byte_offset);
    out += ",\"bytes\":" + std::to_string(rm.byte_extent);
    out += ",\"scheme\":";
    out += JsonQuote(SchemeName(rm.scheme));
    out += ",\"vectors\":" + std::to_string(rm.vector_count);
    out += ",\"header_bytes\":" + std::to_string(rm.header_bytes);
    if (rm.scheme == Scheme::kAlpRd) {
      out += ",\"right_bits\":" + std::to_string(rm.rd_right_bits);
      out += ",\"dict_width\":" + std::to_string(rm.rd_dict_width);
      out += ",\"dict_size\":" + std::to_string(rm.rd_dict_size);
    }
    out += '}';
  }
  out += ']';

  if (perf != nullptr) {
    out += ",\"decode_perf\":{\"measured\":";
    out += perf->measured ? "true" : "false";
    out += ",\"values\":" + std::to_string(perf->values);
    out += ",\"passes\":" + std::to_string(perf->passes);
    out += ",\"cycles_per_value\":" + Fixed(perf->cycles_per_value);
    if (perf->measured) {
      out += ",\"ipc\":" + Fixed(perf->ipc);
      out += ",\"cache_misses_per_value\":" +
             Fixed(perf->cache_misses_per_value, 4);
      out += ",\"cache_references_per_value\":" +
             Fixed(perf->cache_references_per_value, 4);
      out += ",\"branch_misses_per_value\":" +
             Fixed(perf->branch_misses_per_value, 4);
      out += ",\"cache_miss_rate\":" + Fixed(perf->cache_miss_rate);
      out += ",\"multiplex_scale\":" + Fixed(perf->multiplex_scale);
    }
    out += ",\"perf_status\":";
    out += JsonQuote(PerfAvailabilityName(PerfProbe().availability));
    out += '}';
  }

  out += ",\"outliers\":[";
  const std::vector<size_t> order = RankedOutliers(report, top_n);
  for (size_t i = 0; i < order.size(); ++i) {
    if (i) out += ',';
    AppendVectorJson(out, report, report.vectors[order[i]]);
  }
  out += "]}";
  return out;
}

std::string ColumnXRay::ToText(const XRayReport& report, size_t top_n,
                               const XRayDecodePerf* perf) {
  std::ostringstream out;
  out << "== alp x-ray ==\n";
  out << "type " << report.type << "  format v" << int(report.format_version)
      << "  values " << report.value_count << "  vectors "
      << report.vector_count << "  rowgroups " << report.rowgroup_count
      << "\n";
  out << "file " << report.file_size << " B  ("
      << Fixed(report.BitsPerValue(), 2) << " bits/value)\n";
  out << "schemes: alp " << report.vectors_alp << "  alp_rd "
      << report.vectors_rd << "\n";
  out << "decode kernel tier: " << kernels::ActiveTierName()
      << " (runtime dispatch; bytes identical on every tier)\n";

  out << "streams:\n";
  const auto stream_line = [&](const char* name, uint64_t bytes) {
    const double pct = report.file_size == 0
                           ? 0.0
                           : 100.0 * static_cast<double>(bytes) /
                                 static_cast<double>(report.file_size);
    char line[128];
    std::snprintf(line, sizeof(line), "  %-17s %12llu B  %5.1f%%\n", name,
                  static_cast<unsigned long long>(bytes), pct);
    out << line;
  };
  stream_line("column_header", report.streams.column_header);
  stream_line("rowgroup_index", report.streams.rowgroup_index);
  stream_line("checksums", report.streams.checksums);
  stream_line("zone_map", report.streams.zone_map);
  stream_line("rowgroup_headers", report.streams.rowgroup_headers);
  stream_line("vector_headers", report.streams.vector_headers);
  stream_line("packed_data", report.streams.packed_data);
  stream_line("exceptions", report.streams.exceptions);
  stream_line("padding", report.streams.padding);
  stream_line("total", report.streams.Total());

  out << "bit widths:";
  for (size_t w = 0; w < report.bit_width_histogram.size(); ++w) {
    if (report.bit_width_histogram[w] == 0) continue;
    out << "  " << w << "b x" << report.bit_width_histogram[w];
  }
  out << "\n";

  out << "exceptions: " << report.exception_count << " ("
      << Fixed(report.ExceptionsPerVector(), 2) << "/vector)";
  if (report.exception_count > 0) {
    out << "  positions[64/bucket]:";
    for (uint64_t c : report.exception_position_histogram) out << " " << c;
  }
  out << "\n";

  if (perf != nullptr) {
    out << "decode profile (" << perf->passes << " passes over "
        << perf->values << " values):\n";
    out << "  cycles/value " << Fixed(perf->cycles_per_value, 2);
    if (perf->measured) {
      out << "  ipc " << Fixed(perf->ipc, 2) << "  cache-miss/value "
          << Fixed(perf->cache_misses_per_value, 4) << "  miss-rate "
          << Fixed(perf->cache_miss_rate * 100.0, 1) << "%  branch-miss/value "
          << Fixed(perf->branch_misses_per_value, 4);
      if (perf->multiplex_scale > 1.001) {
        out << "  (multiplex-scaled x" << Fixed(perf->multiplex_scale, 2)
            << ")";
      }
      out << "\n";
    } else {
      out << "  (hardware counters "
          << PerfAvailabilityName(PerfProbe().availability)
          << "; rdtsc only)\n";
    }
  }

  out << "rowgroups:\n";
  for (const RowgroupMeta& rm : report.rowgroups) {
    out << "  rg " << rm.index << ": " << SchemeName(rm.scheme)
        << "  vectors=" << rm.vector_count << "  bytes=" << rm.byte_extent;
    if (rm.scheme == Scheme::kAlpRd) {
      out << "  right_bits=" << int(rm.rd_right_bits)
          << "  dict_width=" << int(rm.rd_dict_width)
          << "  dict_size=" << int(rm.rd_dict_size);
    }
    out << "\n";
  }

  const std::vector<size_t> order = RankedOutliers(report, top_n);
  if (!order.empty()) {
    out << "top " << order.size() << " vectors by bits/value:\n";
    for (size_t idx : order) {
      const VectorMeta& vm = report.vectors[idx];
      out << "  v " << vm.index << " (rg " << vm.rowgroup << ") "
          << SchemeName(vm.scheme);
      if (vm.scheme == Scheme::kAlp) {
        out << " e=" << int(vm.e) << " f=" << int(vm.f)
            << (vm.int_encoding == 0 ? " ffor" : " delta");
      }
      out << " width=" << vm.bit_width << " exc=" << vm.exc_count
          << " n=" << vm.n << " bytes=" << vm.byte_extent << " ("
          << Fixed(XRayVectorBitsPerValue(vm), 2) << " bits/value)\n";
    }
  }
  return out.str();
}

template StatusOr<XRayReport> ColumnXRay::AnalyzeAs<double>(const uint8_t*,
                                                            size_t);
template StatusOr<XRayReport> ColumnXRay::AnalyzeAs<float>(const uint8_t*,
                                                           size_t);

}  // namespace alp::obs
