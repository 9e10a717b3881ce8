#include "serve/metrics_summary.h"

#include <cinttypes>
#include <cstdio>

namespace flood {
namespace serve {

namespace {

bool IsDuration(const std::string& name) {
  return name.size() > 3 && name.compare(name.size() - 3, 3, "_ns") == 0;
}

/// "0.52ms" for durations, "1234" for plain values.
void AppendValue(bool duration, int64_t v, std::string* out) {
  char buf[64];
  if (duration) {
    std::snprintf(buf, sizeof(buf), "%.3gms",
                  static_cast<double>(v) / 1e6);
  } else {
    std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  }
  out->append(buf);
}

}  // namespace

std::string FormatMetricsSummary(const MetricsResponse& resp) {
  std::string out;
  char line[256];
  out.append("-- histograms (count  p50 / p95 / p99 / max) --\n");
  for (const obs::MetricSnapshot& m : resp.metrics) {
    const bool dur = IsDuration(m.name);
    std::snprintf(line, sizeof(line), "  %-36s %10" PRIu64 "  ",
                  m.name.c_str(), m.hist.count);
    out.append(line);
    AppendValue(dur, m.hist.Percentile(50), &out);
    out.append(" / ");
    AppendValue(dur, m.hist.Percentile(95), &out);
    out.append(" / ");
    AppendValue(dur, m.hist.Percentile(99), &out);
    out.append(" / ");
    AppendValue(dur, m.hist.count > 0 ? m.hist.max : 0, &out);
    out.push_back('\n');
  }
  out.append("-- counts and gauges --\n");
  for (const auto& [key, value] : resp.entries) {
    std::snprintf(line, sizeof(line), "  %-36s %.15g\n", key.c_str(), value);
    out.append(line);
  }
  return out;
}

}  // namespace serve
}  // namespace flood
