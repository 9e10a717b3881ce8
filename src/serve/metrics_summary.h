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
/// Used by `flood_serve --check` and `flood_router --check`.
std::string FormatMetricsSummary(const MetricsResponse& resp);

}  // namespace serve
}  // namespace flood

#endif  // FLOOD_SERVE_METRICS_SUMMARY_H_
