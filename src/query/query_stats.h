#ifndef FLOOD_QUERY_QUERY_STATS_H_
#define FLOOD_QUERY_QUERY_STATS_H_

#include <cstdint>
#include <tuple>

#include "common/counter_fields.h"

namespace flood {

/// Per-query execution statistics, shared by Flood and all baselines.
/// These drive Table 2 (SO/TPS/ST/IT/TT) and are the measurable features of
/// the cost model (§4.1.1).
struct QueryStats {
  // --- Counters -----------------------------------------------------------
  uint64_t points_scanned = 0;  ///< Rows visited, including exact ranges.
  uint64_t points_matched = 0;  ///< Rows satisfying the full predicate.
  uint64_t points_exact = 0;    ///< Rows inside exact (check-free) ranges.
  uint64_t cells_visited = 0;   ///< Grid cells / tree pages examined.
  uint64_t ranges_scanned = 0;  ///< Contiguous physical ranges scanned.
  uint64_t blocks_skipped = 0;  ///< Blocks rejected whole by a zone map.
  uint64_t blocks_exact = 0;    ///< Blocks zone-map-contained: no checks.
  uint64_t simd_blocks = 0;     ///< Blocks filtered by vector predicates.
  uint64_t delta_rows_scanned = 0;  ///< Delta-side rows (staged inserts +
                                    ///< tombstones) examined by the query.

  // --- Timings (nanoseconds) ---------------------------------------------
  int64_t index_ns = 0;   ///< Projection / tree traversal time.
  int64_t refine_ns = 0;  ///< Refinement time (Flood only; included in TT).
  int64_t scan_ns = 0;    ///< Scan + filter time (includes delta_ns).
  int64_t delta_ns = 0;   ///< Delta-buffer merge share of scan_ns.
  int64_t total_ns = 0;   ///< End-to-end query time.

  // --- Accumulator bookkeeping (zero on single-query stats) ---------------
  uint64_t queries = 0;       ///< Queries folded in via RecordQuery.
  int64_t max_query_ns = 0;   ///< Slowest single query folded in.

  /// Raw element-wise sum of the kQueryStatsSums fields; no per-query
  /// bookkeeping. Used by indexes accumulating phases into one per-query
  /// stats object.
  void Add(const QueryStats& o);

  /// Folds one executed query's stats into this accumulator, recording its
  /// end-to-end latency against the extremes.
  void RecordQuery(const QueryStats& q) {
    Add(q);
    ++queries;
    if (q.total_ns > max_query_ns) max_query_ns = q.total_ns;
  }

  /// Folds another accumulator (e.g. a per-worker batch buffer) into this
  /// one. Every field is a sum or a max, so merging a fixed set of buffers
  /// in any order yields identical results — Database::RunBatch still
  /// merges in shard order for determinism by construction.
  void Merge(const QueryStats& o) {
    Add(o);
    queries += o.queries;
    if (o.max_query_ns > max_query_ns) max_query_ns = o.max_query_ns;
  }

  /// Scan overhead: points scanned per matching point (Table 2 "SO").
  double ScanOverhead() const {
    if (points_matched == 0) return static_cast<double>(points_scanned);
    return static_cast<double>(points_scanned) /
           static_cast<double>(points_matched);
  }

  /// Time per scanned point in nanoseconds (Table 2 "TPS").
  double TimePerScannedPoint() const {
    if (points_scanned == 0) return 0.0;
    return static_cast<double>(scan_ns) /
           static_cast<double>(points_scanned);
  }
};

/// QueryStats' summed fields (common/counter_fields.h), in member order:
/// every field but the accumulator bookkeeping. The `db.*` Introspect()
/// keys and the slow-query line use these names.
inline constexpr auto kQueryStatsSums = std::tuple{
    Field{"points_scanned", &QueryStats::points_scanned},
    Field{"points_matched", &QueryStats::points_matched},
    Field{"points_exact", &QueryStats::points_exact},
    Field{"cells_visited", &QueryStats::cells_visited},
    Field{"ranges_scanned", &QueryStats::ranges_scanned},
    Field{"blocks_skipped", &QueryStats::blocks_skipped},
    Field{"blocks_exact", &QueryStats::blocks_exact},
    Field{"simd_blocks", &QueryStats::simd_blocks},
    Field{"delta_rows_scanned", &QueryStats::delta_rows_scanned},
    Field{"index_ns", &QueryStats::index_ns},
    Field{"refine_ns", &QueryStats::refine_ns},
    Field{"scan_ns", &QueryStats::scan_ns},
    Field{"delta_ns", &QueryStats::delta_ns},
    Field{"total_ns", &QueryStats::total_ns},
};
// The list plus `queries` and `max_query_ns` covers the struct.
static_assert(sizeof(QueryStats) ==
              8 * (std::tuple_size_v<decltype(kQueryStatsSums)> + 2));

inline void QueryStats::Add(const QueryStats& o) {
  ForEachField(kQueryStatsSums,
               [&](const auto& f) { this->*f.member += o.*f.member; });
}

}  // namespace flood

#endif  // FLOOD_QUERY_QUERY_STATS_H_
