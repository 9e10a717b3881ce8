#ifndef FLOOD_SERVE_METRICS_SUMMARY_H_
#define FLOOD_SERVE_METRICS_SUMMARY_H_

#include <string>

#include "serve/protocol.h"

namespace flood {
namespace serve {

/// Human-readable rendering of a kMetrics snapshot: histograms as
/// count + p50/p95/p99/max (durations in ms for *_ns metrics), then one
/// `key value` line per flat introspection entry (every count lives
/// there: queries, frames, scrapes, ...).
std::string FormatMetricsSummary(const MetricsResponse& resp);

/// `flood_serve --check ADDRESS`: health-probes a running server (over
/// one database or a router) over kHealth with 2 s deadlines (three
/// connect attempts), prints its health line and the
/// FormatMetricsSummary of its kMetrics snapshot to stdout, and returns the
/// exit code: 0 when ready, 1 when reachable but draining, not ready or
/// persistence-poisoned, 2 when unreachable.
int CheckHealth(const std::string& address);

}  // namespace serve
}  // namespace flood

#endif  // FLOOD_SERVE_METRICS_SUMMARY_H_
