#ifndef FLOOD_QUERY_EXECUTOR_H_
#define FLOOD_QUERY_EXECUTOR_H_

#include <cstdint>

#include "query/multidim_index.h"
#include "query/query.h"
#include "query/query_stats.h"

namespace flood {

/// Result of an aggregation query.
struct AggResult {
  uint64_t count = 0;  ///< Matching rows (always populated).
  int64_t sum = 0;     ///< Populated for SUM queries.
};

/// Runs `query` against `index` with the visitor its AggSpec requires,
/// wiring up prefix sums when the index maintains them. Empty queries
/// (some range inverted) return a zero result without touching the index.
///
/// This is the base-index executor: Database runs every aggregate query
/// through it and then merges its staged writes (DeltaBuffer inserts and
/// tombstones), and the cost model runs it over candidate layouts to
/// collect training examples. It sees only the built index, so a caller
/// holding a bare MultiDimIndex (benches over frozen tables) gets answers
/// that ignore any Insert/Delete an owning Database has accepted.
AggResult ExecuteAggregate(const MultiDimIndex& index, const Query& query,
                           QueryStats* stats = nullptr);

}  // namespace flood

#endif  // FLOOD_QUERY_EXECUTOR_H_
