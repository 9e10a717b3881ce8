// Quickstart: open a flood::Database over an in-memory table, let it learn
// a Flood layout from a handful of example queries, and run aggregations —
// no concrete index types, no visitor wiring.
//
//   $ ./examples/quickstart

#include <cstdio>
#include <vector>

#include "api/database.h"
#include "api/index_registry.h"
#include "common/rng.h"

using flood::Database;
using flood::DatabaseOptions;
using flood::IndexRegistry;
using flood::Query;
using flood::QueryBuilder;
using flood::QueryResult;
using flood::Rng;
using flood::Table;
using flood::Value;
using flood::Workload;

int main() {
  // 1. A table: three columns (x, y, value), one million rows.
  const size_t n = 1'000'000;
  Rng rng(42);
  std::vector<Value> x(n);
  std::vector<Value> y(n);
  std::vector<Value> value(n);
  for (size_t i = 0; i < n; ++i) {
    x[i] = rng.UniformInt(0, 999'999);
    y[i] = rng.UniformInt(0, 999'999);
    value[i] = rng.UniformInt(1, 100);
  }
  auto table = Table::FromColumns({x, y, value}, {"x", "y", "value"});
  if (!table.ok()) {
    std::fprintf(stderr, "table: %s\n", table.status().ToString().c_str());
    return 1;
  }

  // 2. A training workload: the kinds of queries the app will run. Flood
  //    learns which dimensions matter and how selective they are.
  Workload train;
  for (int i = 0; i < 30; ++i) {
    const Value x0 = rng.UniformInt(0, 900'000);
    const Value y0 = rng.UniformInt(0, 950'000);
    train.Add(QueryBuilder(3)
                  .Range(0, x0, x0 + 10'000)   // Tight filter on x.
                  .Range(1, y0, y0 + 50'000)   // Looser filter on y.
                  .Sum(2)
                  .Build());
  }

  // 3. Open the database. The index is chosen by registry name — any of
  //    IndexRegistry::Global().Names() works here; "flood" learns its
  //    layout from the training workload.
  DatabaseOptions options;
  options.index_name = "flood";
  options.training_workload = train;
  auto db = Database::Open(std::move(*table), std::move(options));
  if (!db.ok()) {
    std::fprintf(stderr, "open: %s\n", db.status().ToString().c_str());
    return 1;
  }
  std::printf("opened database: %s, index size %zu bytes\n",
              db->Describe().c_str(), db->IndexSizeBytes());

  // 4. Query it: Run() returns a typed result (count/sum) plus stats.
  const Query q = QueryBuilder(3)
                      .Range(0, 250'000, 260'000)
                      .Range(1, 500'000, 550'000)
                      .Sum(2)
                      .Build();
  const QueryResult result = db->Run(q);
  std::printf("SUM(value) over x in [250k,260k], y in [500k,550k]: %lld "
              "(%llu rows)\n",
              static_cast<long long>(result.sum),
              static_cast<unsigned long long>(result.count));
  std::printf("query took %.3f ms, scanned %llu points for %llu matches "
              "(overhead %.1fx)\n",
              static_cast<double>(result.stats.total_ns) / 1e6,
              static_cast<unsigned long long>(result.stats.points_scanned),
              static_cast<unsigned long long>(result.stats.points_matched),
              result.stats.ScanOverhead());

  // 5. Batches amortize dispatch and aggregate the stats for you. With
  //    DatabaseOptions{.num_threads = 0} the batch would fan out over one
  //    worker per hardware thread — same results, higher QPS.
  const auto batch = db->RunBatch(train);
  std::printf("replayed the %zu training queries: avg %.3f ms, p95 %.3f "
              "ms, %.0f QPS\n",
              batch.results.size(), batch.AvgLatencyMs(),
              batch.P95LatencyMs(), batch.Qps());

  // 6. Row retrieval without visitor plumbing.
  Query narrow = QueryBuilder(3)
                     .Range(0, 250'000, 254'000)
                     .Range(1, 500'000, 510'000)
                     .Build();
  const QueryResult rows = db->Collect(narrow);
  std::printf("narrow box holds %zu rows (ids in index storage order)\n",
              rows.rows.size());

  // 7. The same three lines work for every registered index.
  std::printf("\nregistered indexes:");
  for (const auto& name : IndexRegistry::Global().Names()) {
    std::printf(" %s", name.c_str());
  }
  std::printf("\n");
  return 0;
}
