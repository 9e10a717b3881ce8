#include "obs/prometheus.h"

#include <cinttypes>
#include <cstdio>
#include <set>

namespace flood::obs {

namespace {

void AppendDouble(std::string* out, double v) {
  char buf[64];
  // %.17g round-trips doubles; integral values render without exponent
  // for typical count magnitudes.
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out->append(buf);
}

void AppendHelpType(std::string* out, const std::string& name,
                    const std::string& help, const char* type) {
  if (!help.empty()) {
    out->append("# HELP ").append(name).append(" ");
    // The format forbids raw newlines and backslashes in HELP text.
    for (char c : help) {
      if (c == '\\') out->append("\\\\");
      else if (c == '\n') out->append("\\n");
      else out->push_back(c);
    }
    out->push_back('\n');
  }
  out->append("# TYPE ").append(name).append(" ").append(type).push_back('\n');
}

void AppendHistogram(std::string* out, const std::string& name,
                     const std::string& help, const HistogramData& h) {
  AppendHelpType(out, name, help, "histogram");
  char buf[96];
  uint64_t cum = 0;
  for (std::size_t i = 0; i < kNumBuckets; ++i) {
    if (h.buckets[i] == 0) continue;  // cumulative series stays correct
    cum += h.buckets[i];
    std::snprintf(buf, sizeof(buf), "%s_bucket{le=\"%" PRId64 "\"} %" PRIu64 "\n",
                  name.c_str(), BucketUpperBound(i), cum);
    out->append(buf);
  }
  std::snprintf(buf, sizeof(buf), "%s_bucket{le=\"+Inf\"} %" PRIu64 "\n",
                name.c_str(), h.count);
  out->append(buf);
  std::snprintf(buf, sizeof(buf), "%s_sum %" PRId64 "\n", name.c_str(), h.sum);
  out->append(buf);
  std::snprintf(buf, sizeof(buf), "%s_count %" PRIu64 "\n", name.c_str(),
                h.count);
  out->append(buf);
}

}  // namespace

std::string SanitizeMetricName(const std::string& name) {
  std::string out;
  out.reserve(name.size() + 8);
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) out.insert(0, "_");
  if (out.rfind("flood", 0) != 0) out.insert(0, "flood_");
  return out;
}

std::string RenderPrometheus(
    const std::vector<MetricSnapshot>& snapshots,
    const std::vector<std::pair<std::string, double>>& extra_gauges) {
  std::string out;
  out.reserve(4096);
  std::set<std::string> emitted;
  for (const MetricSnapshot& s : snapshots) {
    emitted.insert(s.name);
    AppendHistogram(&out, s.name, s.help, s.hist);
  }
  for (const auto& [raw_name, value] : extra_gauges) {
    const std::string name = SanitizeMetricName(raw_name);
    // Two dotted keys can sanitize to the same name; a duplicate TYPE
    // family breaks strict parsers, so first occurrence wins.
    if (!emitted.insert(name).second) continue;
    AppendHelpType(&out, name, "", "gauge");
    out.append(name).push_back(' ');
    AppendDouble(&out, value);
    out.push_back('\n');
  }
  return out;
}

}  // namespace flood::obs
