#include "obs/export.h"

#include <cctype>
#include <cstdio>
#include <map>
#include <string_view>
#include <utility>
#include <vector>

namespace alp::obs {

namespace {

/// Splits a registry name of the shape `base{k="v",...}` (as produced by
/// LabeledName) into the base and the verbatim label block content (without
/// braces). Names without labels return an empty block.
std::pair<std::string_view, std::string_view> SplitLabels(
    std::string_view name) {
  const size_t brace = name.find('{');
  if (brace == std::string_view::npos || name.back() != '}') {
    return {name, std::string_view()};
  }
  return {name.substr(0, brace),
          name.substr(brace + 1, name.size() - brace - 2)};
}

bool IsLabelNameChar(char c, bool first) {
  if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_') return true;
  return !first && c >= '0' && c <= '9';
}

/// Canonicalizes label-value escaping in a block of `k="v",...` pairs per
/// the exposition format (`\\`, `\"`, `\n` are the only legal escapes).
/// LabeledName output is already escaped and passes through unchanged;
/// names registered directly with raw `\`, `"` or newline characters in a
/// value get them escaped here, so a hostile label value can never break a
/// sample line (or smuggle a second sample via a raw newline). Best-effort
/// on the one ambiguous shape: a raw `"` inside a value is treated as
/// literal unless it sits at the end of the block or before `,name="` —
/// the only positions where a quote can close its value.
std::string EscapeLabelBlock(std::string_view block) {
  std::string out;
  out.reserve(block.size() + 8);

  // Does the quote at position q close its value?
  const auto closes_value = [block](size_t q) {
    if (q + 1 == block.size()) return true;
    if (block[q + 1] != ',') return false;
    size_t p = q + 2;
    if (p >= block.size() || !IsLabelNameChar(block[p], /*first=*/true)) {
      return false;
    }
    while (p < block.size() && IsLabelNameChar(block[p], /*first=*/false)) ++p;
    return p + 1 < block.size() && block[p] == '=' && block[p + 1] == '"';
  };

  size_t pos = 0;
  while (pos < block.size()) {
    // Key (and '='): passed through — keys come from instrumentation
    // literals; the linter enforces their charset.
    while (pos < block.size() && block[pos] != '=') out += block[pos++];
    if (pos >= block.size()) break;
    out += '=';
    ++pos;
    if (pos >= block.size() || block[pos] != '"') continue;
    out += '"';
    ++pos;
    // Value: decode the legal escapes, escape everything reserved.
    while (pos < block.size()) {
      const char c = block[pos];
      if (c == '\\' && pos + 1 < block.size()) {
        const char next = block[pos + 1];
        if (next == 'n') {
          out += "\\n";
          pos += 2;
          continue;
        }
        if (next == '\\') {
          out += "\\\\";
          pos += 2;
          continue;
        }
        if (next == '"' && !closes_value(pos + 1)) {
          out += "\\\"";  // escaped quote inside the value
          pos += 2;
          continue;
        }
        // Raw backslash (before a closing quote, or an illegal escape).
        out += "\\\\";
        ++pos;
        continue;
      }
      if (c == '"') {
        if (closes_value(pos)) break;  // end of this value
        out += "\\\"";                 // raw quote inside the value
        ++pos;
        continue;
      }
      if (c == '\\') {  // trailing backslash, nothing after it
        out += "\\\\";
        ++pos;
        continue;
      }
      if (c == '\n') {
        out += "\\n";
        ++pos;
        continue;
      }
      out += c;
      ++pos;
    }
    if (pos < block.size()) {  // the closing quote
      out += '"';
      ++pos;
      if (pos < block.size() && block[pos] == ',') {
        out += ',';
        ++pos;
      }
    }
  }
  return out;
}

/// Prometheus metric names are [a-zA-Z_:][a-zA-Z0-9_:]*; registry names use
/// dots. Sanitize and prefix with the exporter namespace.
std::string PromName(std::string_view base, std::string_view suffix = "") {
  std::string out = "alp_";
  for (char c : base) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  out += suffix;
  return out;
}

std::string WithLabels(const std::string& name, std::string_view labels,
                       std::string_view extra = "") {
  if (labels.empty() && extra.empty()) return name;
  std::string out = name;
  out += '{';
  out += labels;
  if (!labels.empty() && !extra.empty()) out += ',';
  out += extra;
  out += '}';
  return out;
}

void AppendU64(std::string* out, uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  *out += buf;
}

void AppendI64(std::string* out, int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  *out += buf;
}

/// One exposition family: a TYPE line then every labeled sample, in the
/// registry's (sorted) order. `emit` appends the sample lines.
struct Family {
  std::string type;  ///< "counter" | "gauge" | "histogram".
  std::vector<std::string> lines;
};

}  // namespace

std::string PrometheusText(const MetricsSnapshot& snapshot) {
  // Group samples by sanitized family name so label variants of one base
  // (server_latency_us{class="lookup"}, {class="scan"}, ...) share a single
  // `# TYPE` line, as the exposition format requires.
  std::map<std::string, Family> families;

  for (const auto& counter : snapshot.counters) {
    const auto [base, raw_labels] = SplitLabels(counter.name);
    const std::string labels = EscapeLabelBlock(raw_labels);
    const std::string name = PromName(base, "_total");
    Family& fam = families[name];
    fam.type = "counter";
    std::string line = WithLabels(name, labels);
    line += ' ';
    AppendU64(&line, counter.value);
    fam.lines.push_back(std::move(line));
  }

  for (const auto& gauge : snapshot.gauges) {
    const auto [base, raw_labels] = SplitLabels(gauge.name);
    const std::string labels = EscapeLabelBlock(raw_labels);
    const std::string name = PromName(base);
    Family& fam = families[name];
    fam.type = "gauge";
    std::string line = WithLabels(name, labels);
    line += ' ';
    AppendI64(&line, gauge.value);
    fam.lines.push_back(std::move(line));
  }

  for (const auto& histogram : snapshot.histograms) {
    const auto [base, raw_labels] = SplitLabels(histogram.name);
    const std::string labels = EscapeLabelBlock(raw_labels);
    const std::string name = PromName(base);
    Family& fam = families[name];
    fam.type = "histogram";
    // Cumulative buckets; counts[] has one overflow entry past bounds[],
    // which the +Inf bucket (== _count) absorbs.
    uint64_t cumulative = 0;
    for (size_t i = 0; i < histogram.bounds.size(); ++i) {
      cumulative += histogram.counts[i];
      std::string extra = "le=\"";
      AppendU64(&extra, histogram.bounds[i]);
      extra += '"';
      std::string line = WithLabels(name + "_bucket", labels, extra);
      line += ' ';
      AppendU64(&line, cumulative);
      fam.lines.push_back(std::move(line));
    }
    std::string inf = WithLabels(name + "_bucket", labels, "le=\"+Inf\"");
    inf += ' ';
    AppendU64(&inf, histogram.count);
    fam.lines.push_back(std::move(inf));
    std::string sum = WithLabels(name + "_sum", labels);
    sum += ' ';
    AppendU64(&sum, histogram.sum);
    fam.lines.push_back(std::move(sum));
    std::string count = WithLabels(name + "_count", labels);
    count += ' ';
    AppendU64(&count, histogram.count);
    fam.lines.push_back(std::move(count));
  }

  for (const auto& stage : snapshot.stages) {
    const auto [base, raw_labels] = SplitLabels(stage.name);
    const std::string labels = EscapeLabelBlock(raw_labels);
    std::vector<std::pair<const char*, uint64_t>> parts = {
        {"_calls_total", stage.calls},
        {"_cycles_total", stage.cycles},
        {"_items_total", stage.items},
    };
    // Hardware-counter families appear only once a perf-armed span has hit
    // the stage; scrapes on hosts without counters are unchanged.
    if (stage.perf_calls > 0) {
      parts.insert(parts.end(),
                   {{"_perf_calls_total", stage.perf_calls},
                    {"_perf_cycles_total", stage.perf_cycles},
                    {"_instructions_total", stage.perf_instructions},
                    {"_cache_references_total", stage.perf_cache_references},
                    {"_cache_misses_total", stage.perf_cache_misses},
                    {"_branch_misses_total", stage.perf_branch_misses},
                    {"_perf_items_total", stage.perf_items}});
    }
    for (const auto& [suffix, value] : parts) {
      const std::string name = PromName(base, suffix);
      Family& fam = families[name];
      fam.type = "counter";
      std::string line = WithLabels(name, labels);
      line += ' ';
      AppendU64(&line, value);
      fam.lines.push_back(std::move(line));
    }
  }

  std::string out;
  out.reserve(4096);
  for (const auto& [name, family] : families) {
    out += "# TYPE ";
    out += name;
    out += ' ';
    out += family.type;
    out += '\n';
    for (const std::string& line : family.lines) {
      out += line;
      out += '\n';
    }
  }
  return out;
}

Status WriteTextFile(const std::string& path, const std::string& content,
                     bool atomic) {
  const std::string target = atomic ? path + ".tmp" : path;
  std::FILE* f = std::fopen(target.c_str(), "wb");
  if (f == nullptr) return Status::Io("cannot open " + target);
  const size_t written = std::fwrite(content.data(), 1, content.size(), f);
  const bool flushed = std::fflush(f) == 0;
  std::fclose(f);
  if (written != content.size() || !flushed) {
    return Status::Io("short write to " + target);
  }
  if (atomic && std::rename(target.c_str(), path.c_str()) != 0) {
    return Status::Io("rename " + target + " -> " + path + " failed");
  }
  return Status::Ok();
}

}  // namespace alp::obs
