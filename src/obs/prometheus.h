#pragma once
// Prometheus text exposition (v0.0.4) rendering for metric snapshots.
// Pure string formatting — no sockets; the HTTP listener lives in
// src/serve/server.cc.

#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace flood::obs {

// A metric name sanitized for the exposition format: every character
// outside [a-zA-Z0-9_] becomes '_', a leading digit gets a '_' prefix,
// and names not already starting with "flood" gain a "flood_" prefix
// (Introspect() keys like "serve.frames" arrive dotted and unprefixed).
std::string SanitizeMetricName(const std::string& name);

// Renders registry histograms plus ad-hoc gauges (the serving tier's
// Introspect() map, where every count lives) as Prometheus text
// exposition v0.0.4:
//   - histograms: cumulative `n_bucket{le="..."}` series (non-empty
//     buckets + `+Inf`), `n_sum`, `n_count`
//   - gauges:     `# TYPE n gauge` + `n <v>`
// `extra_gauges` names are sanitized, and one that collides with an
// earlier family is dropped; snapshot names are assumed valid (the
// registry enforces that at registration).
std::string RenderPrometheus(
    const std::vector<MetricSnapshot>& snapshots,
    const std::vector<std::pair<std::string, double>>& extra_gauges = {});

}  // namespace flood::obs
