// Tests of the public API layer: the IndexRegistry catalogue and the
// flood::Database facade (typed results, batching, early exits, training
// workload plumbing, telemetry).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "api/database.h"
#include "api/index_registry.h"
#include "tests/test_util.h"

namespace flood {
namespace {

using testing::BruteForce;
using testing::DataShape;
using testing::MakeTable;
using testing::RandomQuery;

Workload SumWorkload(const Table& t, size_t n, uint64_t seed) {
  Workload w;
  for (size_t i = 0; i < n; ++i) {
    Query q = RandomQuery(t, seed + i);
    q.set_agg({AggSpec::Kind::kSum, 2});
    w.Add(q);
  }
  return w;
}

TEST(IndexRegistryTest, AllBuiltinsRegistered) {
  const std::vector<std::string> names = IndexRegistry::Global().Names();
  for (const char* expected :
       {"flood", "kdtree", "rtree", "grid_file", "zorder", "octree",
        "ubtree", "clustered", "full_scan"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "missing from registry: " << expected;
  }
  EXPECT_GE(names.size(), 9u);  // Future indexes self-register on top.
}

TEST(IndexRegistryTest, LookupIsCaseAndSeparatorInsensitiveWithAliases) {
  auto& registry = IndexRegistry::Global();
  // Legacy display names (bench tables) resolve onto the canonical keys.
  for (const char* name : {"FullScan", "Clustered", "RStarTree", "ZOrder",
                           "UBtree", "Hyperoctree", "KdTree", "GridFile",
                           "Flood", "KD-TREE", "grid_file"}) {
    EXPECT_TRUE(registry.Contains(name)) << name;
    EXPECT_TRUE(registry.Create(name).ok()) << name;
  }
  StatusOr<std::string> canonical = registry.Resolve("RStarTree");
  ASSERT_TRUE(canonical.ok());
  EXPECT_EQ(*canonical, "rtree");
}

TEST(IndexRegistryTest, UnknownNameIsNotFound) {
  StatusOr<std::unique_ptr<MultiDimIndex>> index =
      IndexRegistry::Global().Create("btree");
  ASSERT_FALSE(index.ok());
  EXPECT_EQ(index.status().code(), StatusCode::kNotFound);
  // The error lists what *is* registered, for discoverability.
  EXPECT_NE(index.status().message().find("btree"), std::string::npos);
  EXPECT_NE(index.status().message().find("flood"), std::string::npos);
}

TEST(IndexRegistryTest, FactoryRejectsBadOptions) {
  auto& registry = IndexRegistry::Global();
  EXPECT_FALSE(
      registry.Create("flood", IndexOptions().Set("flatten_mode", "wavelet"))
          .ok());
  EXPECT_FALSE(
      registry.Create("flood", IndexOptions().Set("layout", "not-a-layout"))
          .ok());
  // Malformed numeric/boolean values are rejected, not silently replaced
  // by the defaults.
  StatusOr<std::unique_ptr<MultiDimIndex>> typo =
      registry.Create("kdtree", IndexOptions().Set("page_size", "4k"));
  ASSERT_FALSE(typo.ok());
  EXPECT_EQ(typo.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(
      registry.Create("flood", IndexOptions().Set("learn_layout", "maybe"))
          .ok());
  // Well-formed values still pass through.
  EXPECT_TRUE(
      registry.Create("kdtree", IndexOptions().SetInt("page_size", 2048))
          .ok());
}

TEST(DatabaseTest, OpenFailsOnUnknownIndexName) {
  const Table t = MakeTable(DataShape::kUniform, 500, 3, 11);
  StatusOr<Database> db =
      Database::Open(t, DatabaseOptions{.index_name = "btree"});
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kNotFound);
}

// Every registered index, built through Database::Open with a training
// workload, must agree with full_scan on COUNT and SUM.
TEST(DatabaseTest, RegistryRoundTripMatchesFullScan) {
  const Table t = MakeTable(DataShape::kUniform, 3000, 3, 12);
  const Workload train = SumWorkload(t, 10, 500);

  DatabaseOptions scan_options;
  scan_options.index_name = "full_scan";
  StatusOr<Database> oracle = Database::Open(t, std::move(scan_options));
  ASSERT_TRUE(oracle.ok());

  for (const std::string& name : IndexRegistry::Global().Names()) {
    DatabaseOptions options;
    options.index_name = name;
    options.training_workload = train;
    StatusOr<Database> db = Database::Open(t, std::move(options));
    ASSERT_TRUE(db.ok()) << name << ": " << db.status().ToString();
    EXPECT_EQ(db->index_name(), name);
    EXPECT_EQ(db->num_rows(), t.num_rows());
    if (name != "full_scan") {  // A full scan has no index structure.
      EXPECT_GT(db->IndexSizeBytes(), 0u) << name;
    }

    for (uint64_t seed = 0; seed < 10; ++seed) {
      Query q = RandomQuery(t, 4000 + seed * 7);
      q.set_agg({AggSpec::Kind::kCount, 0});
      EXPECT_EQ(db->Run(q).count, oracle->Run(q).count)
          << name << " COUNT mismatch on " << q.ToString();
      q.set_agg({AggSpec::Kind::kSum, 2});
      const QueryResult sum = db->Run(q);
      EXPECT_EQ(sum.kind, QueryResult::Kind::kSum);
      EXPECT_EQ(sum.sum, oracle->Run(q).sum)
          << name << " SUM mismatch on " << q.ToString();
    }
  }
}

TEST(DatabaseTest, CollectReturnsExactlyTheMatchingRows) {
  const Table t = MakeTable(DataShape::kClustered, 2000, 3, 13);
  DatabaseOptions options;
  options.index_name = "flood";
  StatusOr<Database> db = Database::Open(t, std::move(options));
  ASSERT_TRUE(db.ok());
  const Query q = RandomQuery(t, 99);
  const QueryResult r = db->Collect(q);
  EXPECT_EQ(r.kind, QueryResult::Kind::kRows);
  EXPECT_EQ(r.rows.size(), BruteForce(t, q, 0).count);
  EXPECT_EQ(r.count, r.rows.size());
  for (RowId row : r.rows) {
    EXPECT_TRUE(q.Matches(db->data(), row));
  }
}

TEST(DatabaseTest, RunBatchMatchesSequentialRuns) {
  const Table t = MakeTable(DataShape::kSkewed, 4000, 3, 14);
  DatabaseOptions options;
  options.index_name = "zorder";
  StatusOr<Database> db = Database::Open(t, std::move(options));
  ASSERT_TRUE(db.ok());

  std::vector<Query> queries;
  for (uint64_t seed = 0; seed < 20; ++seed) {
    Query q = RandomQuery(t, 6000 + seed);
    if (seed % 3 == 0) q.set_agg({AggSpec::Kind::kSum, 1});
    queries.push_back(q);
  }
  Query empty(3);
  empty.SetRange(0, 10, 5);  // Inverted.
  queries.push_back(empty);

  std::vector<QueryResult> sequential;
  for (const Query& q : queries) sequential.push_back(db->Run(q));

  const BatchResult batch = db->RunBatch(queries);
  ASSERT_EQ(batch.results.size(), queries.size());
  EXPECT_EQ(batch.empty_skipped, 1u);
  uint64_t scanned = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(batch.results[i].count, sequential[i].count) << i;
    EXPECT_EQ(batch.results[i].sum, sequential[i].sum) << i;
    scanned += batch.results[i].stats.points_scanned;
  }
  // Aggregate stats are the sum of the per-query stats.
  EXPECT_EQ(batch.stats.points_scanned, scanned);
  EXPECT_GE(batch.AvgLatencyMs(), 0.0);

  // The Workload overload matches the span overload.
  const BatchResult via_workload = db->RunBatch(Workload(queries));
  ASSERT_EQ(via_workload.results.size(), batch.results.size());
  for (size_t i = 0; i < batch.results.size(); ++i) {
    EXPECT_EQ(via_workload.results[i].count, batch.results[i].count);
  }
}

// Satellite: Query::IsEmpty() short-circuits before the index is touched,
// for Flood and a baseline alike.
class EmptyQueryTest : public ::testing::TestWithParam<const char*> {};

TEST_P(EmptyQueryTest, ZeroResultWithoutDispatch) {
  const Table t = MakeTable(DataShape::kUniform, 1000, 3, 15);
  DatabaseOptions options;
  options.index_name = GetParam();
  StatusOr<Database> db = Database::Open(t, std::move(options));
  ASSERT_TRUE(db.ok());
  Query q(3);
  q.SetRange(1, 100, 50);  // Inverted: empty.
  q.set_agg({AggSpec::Kind::kSum, 2});
  const QueryResult r = db->Run(q);
  EXPECT_EQ(r.count, 0u);
  EXPECT_EQ(r.sum, 0);
  // No dispatch: every counter (including timings) stays zero.
  EXPECT_EQ(r.stats.points_scanned, 0u);
  EXPECT_EQ(r.stats.cells_visited, 0u);
  EXPECT_EQ(r.stats.total_ns, 0);
  EXPECT_EQ(db->empty_queries_skipped(), 1u);
  EXPECT_EQ(db->queries_run(), 1u);
}

INSTANTIATE_TEST_SUITE_P(FloodAndBaseline, EmptyQueryTest,
                         ::testing::Values("flood", "kdtree"));

// Satellite: DatabaseOptions carries the training workload through
// BuildContext (DimsBySelectivity and the layout optimizer), so the chosen
// Flood layout must differ with vs. without it.
TEST(DatabaseTest, TrainingWorkloadShapesFloodLayout) {
  const Table t = MakeTable(DataShape::kUniform, 20'000, 3, 16);
  // Queries filter dim 1 only — with this knowledge the optimizer grids
  // dim 1 finely; without it the uniform default is used.
  Workload train;
  Rng rng(17);
  for (int i = 0; i < 30; ++i) {
    const Value lo = rng.UniformInt(0, 900'000);
    train.Add(QueryBuilder(3).Range(1, lo, lo + 20'000).Count().Build());
  }

  DatabaseOptions with;
  with.index_name = "flood";
  with.training_workload = train;
  StatusOr<Database> trained = Database::Open(t, std::move(with));
  ASSERT_TRUE(trained.ok());

  StatusOr<Database> untrained =
      Database::Open(t, DatabaseOptions{.index_name = "flood"});
  ASSERT_TRUE(untrained.ok());

  EXPECT_NE(trained->Describe(), untrained->Describe())
      << "training workload did not influence the learned layout";
  // Results stay identical either way.
  const Query q = RandomQuery(t, 321);
  EXPECT_EQ(trained->Run(q).count, untrained->Run(q).count);
}

TEST(DatabaseTest, TelemetryAccumulatesAcrossRuns) {
  const Table t = MakeTable(DataShape::kUniform, 1000, 2, 18);
  DatabaseOptions options;
  options.index_name = "full_scan";
  StatusOr<Database> db = Database::Open(t, std::move(options));
  ASSERT_TRUE(db.ok());
  const Query q = QueryBuilder(2).Range(0, 0, 500'000).Build();
  (void)db->Run(q);
  (void)db->Run(q);
  EXPECT_EQ(db->queries_run(), 2u);
  EXPECT_EQ(db->cumulative_stats().points_scanned, 2 * t.num_rows());
  EXPECT_GT(db->cumulative_stats().total_ns, 0);
  EXPECT_EQ(db->index_display_name(), "FullScan");
  EXPECT_EQ(db->Describe(), "FullScan");  // Default Describe = name().
}

TEST(DatabaseTest, IntrospectionForwardsToIndex) {
  const Table t = MakeTable(DataShape::kUniform, 2000, 2, 21);
  DatabaseOptions options;
  options.index_name = "rtree";
  StatusOr<Database> db = Database::Open(t, std::move(options));
  ASSERT_TRUE(db.ok());
  const auto props = db->IndexProperties();
  ASSERT_FALSE(props.empty());
  bool has_leaves = false;
  for (const auto& [key, value] : props) {
    if (key == "num_leaves") has_leaves = value > 0;
  }
  EXPECT_TRUE(has_leaves);
  EXPECT_EQ(db->Describe(), "RStarTree");
}

// Tentpole: RunBatch with num_threads=4 must be indistinguishable from the
// serial path — identical per-query counts/sums, identical Collect row ids,
// and identical merged counter stats — on every registered index.
TEST(DatabaseTest, ParallelRunBatchMatchesSerialOnEveryIndex) {
  const Table t = MakeTable(DataShape::kClustered, 3000, 3, 31);
  const Workload train = SumWorkload(t, 10, 600);

  std::vector<Query> queries;
  for (uint64_t seed = 0; seed < 40; ++seed) {
    Query q = RandomQuery(t, 7000 + seed);
    if (seed % 3 == 0) q.set_agg({AggSpec::Kind::kSum, 1});
    queries.push_back(q);
  }
  Query empty(3);
  empty.SetRange(2, 9, 4);  // Inverted.
  queries.push_back(empty);

  for (const std::string& name : IndexRegistry::Global().Names()) {
    DatabaseOptions serial_options;
    serial_options.index_name = name;
    serial_options.training_workload = train;
    serial_options.num_threads = 1;
    StatusOr<Database> serial = Database::Open(t, std::move(serial_options));
    ASSERT_TRUE(serial.ok()) << name << ": " << serial.status().ToString();
    EXPECT_EQ(serial->num_threads(), 1u);

    DatabaseOptions parallel_options;
    parallel_options.index_name = name;
    parallel_options.training_workload = train;
    parallel_options.num_threads = 4;
    StatusOr<Database> parallel =
        Database::Open(t, std::move(parallel_options));
    ASSERT_TRUE(parallel.ok()) << name;
    EXPECT_EQ(parallel->num_threads(), 4u);

    const BatchResult s = serial->RunBatch(queries);
    const BatchResult p = parallel->RunBatch(queries);
    ASSERT_TRUE(s.status.ok());
    ASSERT_TRUE(p.status.ok());
    ASSERT_EQ(s.results.size(), queries.size()) << name;
    ASSERT_EQ(p.results.size(), queries.size()) << name;
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(p.results[i].count, s.results[i].count) << name << " #" << i;
      EXPECT_EQ(p.results[i].sum, s.results[i].sum) << name << " #" << i;
      EXPECT_EQ(p.results[i].kind, s.results[i].kind) << name << " #" << i;
      EXPECT_EQ(p.results[i].skipped_empty, s.results[i].skipped_empty);
    }
    // Merged counter stats are identical (timings legitimately differ).
    EXPECT_EQ(p.stats.points_scanned, s.stats.points_scanned) << name;
    EXPECT_EQ(p.stats.points_matched, s.stats.points_matched) << name;
    EXPECT_EQ(p.stats.points_exact, s.stats.points_exact) << name;
    EXPECT_EQ(p.stats.cells_visited, s.stats.cells_visited) << name;
    EXPECT_EQ(p.stats.ranges_scanned, s.stats.ranges_scanned) << name;
    EXPECT_EQ(p.stats.queries, s.stats.queries) << name;
    EXPECT_EQ(p.empty_skipped, s.empty_skipped) << name;
    EXPECT_EQ(p.empty_skipped, 1u) << name;
    EXPECT_EQ(parallel->queries_run(), serial->queries_run()) << name;
    EXPECT_EQ(parallel->empty_queries_skipped(), 1u) << name;
    // A fresh database has no measured mean, so its first batch goes to
    // the pool: this test keeps exercising the workers (and under TSan,
    // their races). Without a pool every batch is inline.
    EXPECT_EQ(parallel->batches_inline(), 0u) << name;
    EXPECT_EQ(serial->batches_inline(), 1u) << name;
    EXPECT_EQ(parallel->cumulative_stats().points_scanned,
              serial->cumulative_stats().points_scanned)
        << name;

    // Row-id retrieval agrees between the two databases too.
    const Query probe = RandomQuery(t, 909);
    EXPECT_EQ(parallel->Collect(probe).rows, serial->Collect(probe).rows)
        << name;
  }
}

// Satellite: arity mismatches no longer have to abort the process — TryRun
// returns a clean error, and a bad query fails the whole batch before any
// worker starts.
TEST(DatabaseTest, ArityMismatchIsACleanError) {
  const Table t = MakeTable(DataShape::kUniform, 800, 3, 41);
  DatabaseOptions options;
  options.index_name = "kdtree";
  options.num_threads = 4;
  StatusOr<Database> db = Database::Open(t, std::move(options));
  ASSERT_TRUE(db.ok());

  const Query wrong_arity(5);  // Table has 3 dims.
  StatusOr<QueryResult> run = db->TryRun(wrong_arity);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(db->TryCollect(wrong_arity).ok());
  // The failed attempt leaves telemetry untouched.
  EXPECT_EQ(db->queries_run(), 0u);

  std::vector<Query> batch_queries;
  for (uint64_t seed = 0; seed < 5; ++seed) {
    batch_queries.push_back(RandomQuery(t, 8000 + seed));
  }
  batch_queries.push_back(wrong_arity);
  const BatchResult batch = db->RunBatch(batch_queries);
  ASSERT_FALSE(batch.status.ok());
  EXPECT_EQ(batch.status.code(), StatusCode::kInvalidArgument);
  // Rejected before any worker started: nothing ran at all.
  EXPECT_TRUE(batch.results.empty());
  EXPECT_EQ(db->queries_run(), 0u);

  // Valid queries still execute on the same database afterwards.
  EXPECT_TRUE(db->TryRun(RandomQuery(t, 42)).ok());
}

// Satellite: AvgLatencyMs divides by attempted queries (incl. skipped);
// AvgExecutedLatencyMs divides by executed only. Plus the new latency
// distribution and throughput accessors.
TEST(DatabaseTest, BatchLatencyAndThroughputAccounting) {
  const Table t = MakeTable(DataShape::kUniform, 2000, 3, 51);
  DatabaseOptions options;
  options.index_name = "clustered";
  options.num_threads = 2;
  StatusOr<Database> db = Database::Open(t, std::move(options));
  ASSERT_TRUE(db.ok());

  std::vector<Query> queries;
  for (uint64_t seed = 0; seed < 12; ++seed) {
    queries.push_back(RandomQuery(t, 9000 + seed));
  }
  for (int i = 0; i < 4; ++i) {
    Query empty(3);
    empty.SetRange(0, 7, 3);  // Inverted.
    queries.push_back(empty);
  }
  const BatchResult batch = db->RunBatch(queries);
  ASSERT_TRUE(batch.status.ok());
  EXPECT_EQ(batch.attempted(), 16u);
  EXPECT_EQ(batch.empty_skipped, 4u);
  EXPECT_EQ(batch.executed(), 12u);
  EXPECT_EQ(batch.stats.queries, 12u);

  // Same numerator, smaller denominator for the executed-only average.
  EXPECT_GT(batch.AvgExecutedLatencyMs(), batch.AvgLatencyMs());
  EXPECT_NEAR(batch.AvgExecutedLatencyMs() * 12, batch.AvgLatencyMs() * 16,
              1e-9);

  // Percentiles are ordered, bounded by the slowest query, and computed
  // over executed queries only.
  EXPECT_GT(batch.P50LatencyMs(), 0.0);
  EXPECT_LE(batch.P50LatencyMs(), batch.P95LatencyMs());
  EXPECT_LE(batch.P95LatencyMs(), batch.P99LatencyMs());
  EXPECT_NEAR(batch.LatencyPercentileMs(100.0),
              static_cast<double>(batch.stats.max_query_ns) / 1e6, 1e-9);

  EXPECT_GT(batch.wall_ms, 0.0);
  EXPECT_GT(batch.Qps(), 0.0);

  // Empty batch: every accessor degrades to zero instead of dividing by 0.
  const BatchResult none = db->RunBatch(std::span<const Query>{});
  EXPECT_EQ(none.AvgLatencyMs(), 0.0);
  EXPECT_EQ(none.AvgExecutedLatencyMs(), 0.0);
  EXPECT_EQ(none.P99LatencyMs(), 0.0);
}

TEST(DatabaseTest, RetrainPreservesResults) {
  const Table t = MakeTable(DataShape::kClustered, 5000, 3, 19);
  DatabaseOptions options;
  options.index_name = "flood";
  StatusOr<Database> db = Database::Open(t, std::move(options));
  ASSERT_TRUE(db.ok());
  const Query q = RandomQuery(t, 777);
  const uint64_t before = db->Run(q).count;

  Workload shifted;
  Rng rng(20);
  for (int i = 0; i < 20; ++i) {
    const Value lo = rng.UniformInt(0, 900'000);
    shifted.Add(QueryBuilder(3).Range(2, lo, lo + 10'000).Count().Build());
  }
  ASSERT_TRUE(db->Retrain(shifted).ok());
  EXPECT_EQ(db->Run(q).count, before);
}

}  // namespace
}  // namespace flood
