#include "serve/metrics_summary.h"

#include <cinttypes>
#include <cstdio>

#include "serve/client.h"

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

int CheckHealth(const std::string& address) {
  ClientOptions copts;
  copts.connect_timeout_ms = 2'000;
  copts.send_timeout_ms = 2'000;
  copts.recv_timeout_ms = 2'000;
  copts.retry.max_attempts = 3;
  copts.retry.initial_backoff_ms = 50;
  StatusOr<Client> client = Client::Connect(address, copts);
  if (!client.ok()) {
    std::fprintf(stderr, "connect: %s\n", client.status().ToString().c_str());
    return 2;
  }
  StatusOr<HealthResponse> health = client->Health();
  if (!health.ok()) {
    std::fprintf(stderr, "health: %s\n", health.status().ToString().c_str());
    return 2;
  }
  std::printf(
      "ready=%d draining=%d persist_poisoned=%d queue_depth=%llu "
      "connections=%llu\n",
      health->ready ? 1 : 0, health->draining ? 1 : 0,
      health->persist_poisoned ? 1 : 0,
      static_cast<unsigned long long>(health->queue_depth),
      static_cast<unsigned long long>(health->connections_active));
  StatusOr<MetricsResponse> metrics = client->Metrics();
  if (metrics.ok()) {
    std::fputs(FormatMetricsSummary(*metrics).c_str(), stdout);
  } else {
    std::fprintf(stderr, "metrics: %s\n",
                 metrics.status().ToString().c_str());
  }
  return (health->ready && !health->persist_poisoned) ? 0 : 1;
}

}  // namespace serve
}  // namespace flood
