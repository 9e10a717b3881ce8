// Observability-layer tests: histogram bucket math, percentile accuracy
// against exact sorted ranks, concurrent record/merge equivalence, the
// histogram registry's dedup contract, Prometheus text rendering, the
// slow-query log and its per-instance count, and the
// Introspect()-vs-QueryStats symmetry audit.
//
// The concurrency tests double as the TSan target for the whole obs
// layer: many recorder threads against one Histogram while a scraper
// thread snapshots it.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/database.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "serve/engine.h"
#include "tests/test_util.h"

namespace flood {
namespace {

using obs::BucketIndex;
using obs::BucketUpperBound;
using obs::HistogramData;
using obs::kNumBuckets;

// --- Bucket math -----------------------------------------------------------

TEST(BucketMathTest, EveryValueFitsUnderItsBucketUpperBound) {
  std::vector<int64_t> probes = {0, 1, 2, 3, 4, 5, 7, 8, 100, 999, 1000};
  for (int b = 2; b < 63; ++b) {
    const int64_t p = int64_t{1} << b;
    probes.push_back(p - 1);
    probes.push_back(p);
    probes.push_back(p + 1);
  }
  probes.push_back(INT64_MAX);
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    probes.push_back(rng.UniformInt(0, 1'000'000));
  }
  for (int64_t v : probes) {
    if (v < 0) continue;
    const std::size_t idx = BucketIndex(v);
    ASSERT_LT(idx, kNumBuckets) << v;
    EXPECT_LE(v, BucketUpperBound(idx)) << v;
    if (idx > 0) {
      // Strictly above the previous bucket, i.e. the mapping is exact.
      EXPECT_GT(v, BucketUpperBound(idx - 1)) << v;
    }
  }
}

TEST(BucketMathTest, UpperBoundsAreStrictlyIncreasingAndRoundTrip) {
  for (std::size_t idx = 0; idx + 1 < kNumBuckets; ++idx) {
    EXPECT_LT(BucketUpperBound(idx), BucketUpperBound(idx + 1)) << idx;
  }
  for (std::size_t idx = 0; idx < kNumBuckets; ++idx) {
    EXPECT_EQ(BucketIndex(BucketUpperBound(idx)), idx);
  }
  // Bucket width is at most 25% of the lower bound (log-linear, 4
  // sub-buckets per power of two) — the percentile error guarantee.
  for (std::size_t idx = 5; idx + 1 < kNumBuckets; ++idx) {
    const double lo = static_cast<double>(BucketUpperBound(idx - 1)) + 1;
    const double hi = static_cast<double>(BucketUpperBound(idx));
    if (hi >= static_cast<double>(INT64_MAX)) break;  // saturated tail
    EXPECT_LE(hi - lo, 0.25 * lo + 1) << idx;
  }
}

TEST(BucketMathTest, NegativeValuesClampIntoBucketZero) {
  EXPECT_EQ(BucketIndex(-1), 0u);
  EXPECT_EQ(BucketIndex(INT64_MIN), 0u);
  HistogramData h;
  h.Record(-123);
  EXPECT_EQ(h.count, 1u);
  EXPECT_EQ(h.sum, 0);  // clamped before accumulation
  EXPECT_EQ(h.buckets[0], 1u);
  EXPECT_EQ(h.Percentile(50), 0);
}

// --- Percentiles -----------------------------------------------------------

TEST(HistogramDataTest, EmptyHistogramReadsZero) {
  const HistogramData h;
  EXPECT_EQ(h.Percentile(50), 0);
  EXPECT_EQ(h.Percentile(100), 0);
}

// The acceptance criterion from the bucket design: a percentile readout is
// the upper bound of the bucket holding the exact rank value (clamped to
// the tracked max) — never below the exact value, never above its
// bucket's ceiling.
TEST(HistogramDataTest, PercentilesLandInTheExactValuesBucket) {
  Rng rng(21);
  HistogramData h;
  std::vector<int64_t> values;
  for (int i = 0; i < 10'000; ++i) {
    // Mix of magnitudes, like latencies: microseconds to seconds in ns.
    const int64_t v = rng.UniformInt(0, 1'000) *
                      (int64_t{1} << (i % 20));
    values.push_back(v);
    h.Record(v);
  }
  std::sort(values.begin(), values.end());
  for (double p : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 99.9}) {
    // Nearest-rank: smallest value with at least ceil(p/100 * N) at or
    // below it.
    const size_t rank = static_cast<size_t>(
        std::max<int64_t>(1, static_cast<int64_t>(
                                 (p / 100.0) * values.size() + 0.9999)));
    const int64_t exact = values[std::min(rank, values.size()) - 1];
    const int64_t est = h.Percentile(p);
    EXPECT_GE(est, exact) << "p" << p;
    EXPECT_LE(est, BucketUpperBound(BucketIndex(exact))) << "p" << p;
  }
  EXPECT_EQ(h.Percentile(100), values.back());  // p100 is the exact max
  EXPECT_EQ(h.max, values.back());
}

TEST(HistogramDataTest, PercentilesAreMonotoneInP) {
  Rng rng(22);
  HistogramData h;
  for (int i = 0; i < 5'000; ++i) {
    h.Record(rng.UniformInt(0, 10'000'000));
  }
  int64_t prev = 0;
  for (double p = 0; p <= 100.0; p += 0.5) {
    const int64_t v = h.Percentile(p);
    EXPECT_GE(v, prev) << "p" << p;
    prev = v;
  }
}

TEST(HistogramDataTest, MergeEqualsRecordingEverythingIntoOne) {
  Rng rng(23);
  HistogramData merged;
  HistogramData all;
  for (int shard = 0; shard < 7; ++shard) {
    HistogramData part;
    for (int i = 0; i < 1'000; ++i) {
      const int64_t v = rng.UniformInt(0, 1 << (4 + shard * 3));
      part.Record(v);
      all.Record(v);
    }
    merged.Merge(part);
  }
  EXPECT_EQ(merged.count, all.count);
  EXPECT_EQ(merged.sum, all.sum);
  EXPECT_EQ(merged.max, all.max);
  EXPECT_EQ(merged.buckets, all.buckets);
  // Merging an empty histogram must not disturb max (its max field is
  // meaningless at count == 0).
  merged.Merge(HistogramData{});
  EXPECT_EQ(merged.max, all.max);
}

// --- Concurrent recorders --------------------------------------------------

TEST(HistogramTest, ConcurrentShardedRecordingMatchesSerialReference) {
  if (!obs::kEnabled) GTEST_SKIP() << "metrics compiled out";
  static obs::Histogram hist;  // registry handles are process-lifetime
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20'000;
  std::vector<std::thread> threads;
  std::atomic<bool> stop{false};
  // A scraper hammering Snapshot() while recorders run: the snapshot is
  // only eventually consistent, but must be data-race-free (TSan) and
  // internally sane.
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const HistogramData s = hist.Snapshot();
      uint64_t bucket_total = 0;
      for (uint64_t b : s.buckets) bucket_total += b;
      EXPECT_LE(bucket_total, static_cast<uint64_t>(kThreads) * kPerThread);
    }
  });
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      Rng rng(100 + t);
      for (int i = 0; i < kPerThread; ++i) {
        hist.Record(rng.UniformInt(0, 1'000'000));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  stop.store(true, std::memory_order_relaxed);
  scraper.join();

  HistogramData reference;
  for (int t = 0; t < kThreads; ++t) {
    Rng rng(100 + t);  // same seeds: same values, serially
    for (int i = 0; i < kPerThread; ++i) {
      reference.Record(rng.UniformInt(0, 1'000'000));
    }
  }
  const HistogramData snap = hist.Snapshot();
  EXPECT_EQ(snap.count, reference.count);
  EXPECT_EQ(snap.sum, reference.sum);
  EXPECT_EQ(snap.max, reference.max);
  EXPECT_EQ(snap.buckets, reference.buckets);
}

// --- Registry --------------------------------------------------------------

TEST(MetricsRegistryTest, DuplicateRegistrationReturnsTheSameHandle) {
  auto& reg = obs::MetricsRegistry::Instance();
  obs::Histogram* h1 = reg.RegisterHistogram("flood_test_dup_ns", "help a");
  obs::Histogram* h2 = reg.RegisterHistogram("flood_test_dup_ns", "help b");
  EXPECT_EQ(h1, h2);
  for (const obs::MetricSnapshot& m : reg.SnapshotAll()) {
    if (m.name == "flood_test_dup_ns") EXPECT_EQ(m.help, "help a");
  }
}

TEST(MetricsRegistryTest, SnapshotAllIsSortedAndCoversRegisteredMetrics) {
  auto& reg = obs::MetricsRegistry::Instance();
  obs::Histogram* h = reg.RegisterHistogram("flood_test_snapshot_ns", "x");
  h->Record(41);
  h->Record(1);
  // Touch every per-layer bundle so their names are registered too.
  (void)obs::GlobalDbMetrics();
  (void)obs::GlobalServeMetrics();
  (void)obs::GlobalRouterMetrics();
  (void)obs::GlobalPersistMetrics();
  const std::vector<obs::MetricSnapshot> all = reg.SnapshotAll();
  ASSERT_FALSE(all.empty());
  bool found = false;
  for (size_t i = 0; i < all.size(); ++i) {
    if (i > 0) EXPECT_LT(all[i - 1].name, all[i].name);
    // Counts live per instance (Introspect()); the registry holds no
    // counter families.
    EXPECT_FALSE(all[i].name.ends_with("_total")) << all[i].name;
    if (all[i].name == "flood_test_snapshot_ns") {
      found = true;
      if (obs::kEnabled) {
        EXPECT_EQ(all[i].hist.count, 2u);
        EXPECT_EQ(all[i].hist.sum, 42);
        EXPECT_EQ(all[i].hist.max, 41);
      }
    }
  }
  EXPECT_TRUE(found);
  for (const char* name :
       {"flood_db_query_ns", "flood_db_batch_queries", "flood_serve_frame_ns",
        "flood_router_fanout_ns", "flood_persist_wal_append_ns"}) {
    EXPECT_TRUE(std::any_of(all.begin(), all.end(),
                            [&](const obs::MetricSnapshot& m) {
                              return m.name == name;
                            }))
        << name;
  }
}

// --- Prometheus rendering --------------------------------------------------

TEST(PrometheusTest, SanitizeMetricName) {
  EXPECT_EQ(obs::SanitizeMetricName("flood_db_query_ns"),
            "flood_db_query_ns");
  EXPECT_EQ(obs::SanitizeMetricName("serve.frames_decoded"),
            "flood_serve_frames_decoded");
  EXPECT_EQ(obs::SanitizeMetricName("shard0.db.num_rows"),
            "flood_shard0_db_num_rows");
  EXPECT_EQ(obs::SanitizeMetricName("9lives"), "flood__9lives");
}

TEST(PrometheusTest, RendersCumulativeHistogramAndIntrospectionGauges) {
  std::vector<obs::MetricSnapshot> snaps;
  obs::MetricSnapshot h;
  h.name = "flood_t_ns";
  h.help = "a histogram";
  h.hist.Record(1);
  h.hist.Record(1);
  h.hist.Record(100);
  snaps.push_back(h);

  const std::string text =
      obs::RenderPrometheus(snaps, {{"db.num_rows", 5.0}});
  EXPECT_NE(text.find("# HELP flood_t_ns a histogram\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE flood_t_ns histogram\n"), std::string::npos);
  // Bucket series are cumulative and end at +Inf == _count.
  EXPECT_NE(text.find("flood_t_ns_bucket{le=\"1\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("flood_t_ns_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("flood_t_ns_sum 102\n"), std::string::npos);
  EXPECT_NE(text.find("flood_t_ns_count 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE flood_db_num_rows gauge\n"), std::string::npos);
  EXPECT_NE(text.find("flood_db_num_rows 5\n"), std::string::npos);
  // Exactly one TYPE line per family, and every sample line parses as
  // `name{labels} value` with a finite numeric value.
  std::set<std::string> type_families;
  size_t pos = 0;
  while (pos < text.size()) {
    const size_t eol = text.find('\n', pos);
    ASSERT_NE(eol, std::string::npos) << "missing trailing newline";
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.rfind("# TYPE ", 0) == 0) {
      const std::string family =
          line.substr(7, line.find(' ', 7) - 7);
      EXPECT_TRUE(type_families.insert(family).second)
          << "duplicate TYPE for " << family;
    }
  }
}

TEST(PrometheusTest, ExtraGaugeCollidingWithRegistryNameIsDropped) {
  std::vector<obs::MetricSnapshot> snaps;
  obs::MetricSnapshot h;
  h.name = "flood_t_collide";
  h.hist.Record(1);
  snaps.push_back(h);
  // Sanitizes to the same family name; must not produce a second TYPE.
  const std::string text =
      obs::RenderPrometheus(snaps, {{"t.collide", 9.0}});
  EXPECT_EQ(text.find("flood_t_collide 9"), std::string::npos);
  size_t first = text.find("# TYPE flood_t_collide ");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find("# TYPE flood_t_collide ", first + 1),
            std::string::npos);
}

// --- Slow-query log --------------------------------------------------------

// The db.slow_queries count as DatabaseGauges reports it.
double SlowQueries(const Database& db) {
  for (const auto& [key, value] : serve::DatabaseGauges(db)) {
    if (key == "db.slow_queries") return value;
  }
  ADD_FAILURE() << "db.slow_queries missing";
  return -1;
}

TEST(SlowQueryLogTest, ThresholdedQueriesEmitOneStructuredLine) {
  const Table t = testing::MakeTable(testing::DataShape::kUniform, 2000, 3, 31);
  std::mutex mu;
  std::vector<std::string> lines;
  auto line_count = [&] {
    std::lock_guard<std::mutex> lock(mu);
    return static_cast<double>(lines.size());
  };
  DatabaseOptions options;
  options.index_name = "full_scan";
  options.num_threads = 4;
  options.slow_query_ns = 1;  // every query is "slow"
  options.slow_query_log = [&](const std::string& line) {
    std::lock_guard<std::mutex> lock(mu);
    lines.push_back(line);
  };
  StatusOr<Database> db = Database::Open(t, std::move(options));
  ASSERT_TRUE(db.ok());
  const Query q = testing::RandomQuery(t, 77);
  (void)db->Run(q);
  {
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_EQ(lines.size(), 1u);
    for (const char* field :
         {"slow_query", "threshold_ns=1", "total_ns=", "plan_ns=",
          "scan_ns=", "delta_ns=", "refine_ns=", "points_scanned=",
          "blocks_skipped=", "simd_blocks="}) {
      EXPECT_NE(lines[0].find(field), std::string::npos) << field;
    }
  }
  EXPECT_EQ(SlowQueries(*db), 1.0);

  // A batch that carves into one shard per pool worker: every worker's
  // count folds into the same per-instance total, one per sink line.
  std::vector<Query> batch;
  for (uint64_t seed = 0; seed < 16; ++seed) {
    batch.push_back(testing::RandomQuery(t, 200 + seed));
  }
  const BatchResult result = db->RunBatch(batch);
  ASSERT_TRUE(result.status.ok());
  ASSERT_GE(result.executed(), 2u);
  EXPECT_EQ(line_count(), 1.0 + static_cast<double>(result.executed()));
  EXPECT_EQ(SlowQueries(*db), line_count());

  // Raising the threshold silences the log and the count.
  DatabaseOptions quiet;
  quiet.index_name = "full_scan";
  quiet.slow_query_ns = INT64_MAX;
  quiet.slow_query_log = [&](const std::string& line) {
    std::lock_guard<std::mutex> lock(mu);
    lines.push_back(line);
  };
  StatusOr<Database> db2 = Database::Open(t, std::move(quiet));
  ASSERT_TRUE(db2.ok());
  (void)db2->Run(q);
  (void)db2->RunBatch(batch);
  EXPECT_EQ(line_count(), 1.0 + static_cast<double>(result.executed()));
  EXPECT_EQ(SlowQueries(*db2), 0.0);
}

// --- Stage histograms ------------------------------------------------------

obs::HistogramData SnapshotOf(const char* name) {
  (void)obs::GlobalDbMetrics();  // Registers the flood_db_* names.
  for (const obs::MetricSnapshot& m :
       obs::MetricsRegistry::Instance().SnapshotAll()) {
    if (m.name == name) return m.hist;
  }
  ADD_FAILURE() << name << " not registered";
  return {};
}

// Refinement is its own stage: plan_ns (index_ns) and scan_ns both exclude
// it, so a sort-filtered Flood query records its refine_ns into
// flood_db_refine_ns, one sample per query.
TEST(StageHistogramTest, SortFilteredFloodQueryRecordsOneRefineSample) {
  const Table t = testing::MakeTable(testing::DataShape::kUniform, 5000, 3, 33);
  DatabaseOptions options;
  options.index_name = "flood";
  options.index_options.Set("layout", "order=0,1,2;cols=8,8;sort=1");
  StatusOr<Database> db = Database::Open(t, std::move(options));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  Query q(3);
  q.SetRange(0, 100'000, 600'000);
  q.SetRange(2, 200'000, 700'000);  // The layout's sort dimension.

  const obs::HistogramData before = SnapshotOf("flood_db_refine_ns");
  const QueryResult result = db->Run(q);
  const obs::HistogramData after = SnapshotOf("flood_db_refine_ns");
  EXPECT_GT(result.stats.refine_ns, 0);
  if (obs::kEnabled) {
    EXPECT_EQ(after.count, before.count + 1);
    EXPECT_EQ(after.sum, before.sum + result.stats.refine_ns);
  } else {
    EXPECT_EQ(after.count, 0u);
  }
}

// --- Introspect() symmetry -------------------------------------------------

// Every QueryStats field must surface through DatabaseGauges' db.* keys —
// when someone adds a counter to QueryStats, this test forces them to
// thread it through Stats too (the ISSUE's "no counter left behind"
// audit). Key-set diff, so the failure message names the missing key.
TEST(IntrospectSymmetryTest, DatabaseGaugesCoverEveryQueryStatsField) {
  const Table t = testing::MakeTable(testing::DataShape::kUniform, 500, 3, 32);
  DatabaseOptions options;
  options.index_name = "full_scan";
  StatusOr<Database> db = Database::Open(t, std::move(options));
  ASSERT_TRUE(db.ok());
  (void)db->Run(testing::RandomQuery(t, 5));

  std::set<std::string> keys;
  for (const auto& [key, value] : serve::DatabaseGauges(*db)) {
    keys.insert(key);
  }
  // The QueryStats field list, spelled out: sizeof() tripwire below keeps
  // this enumeration honest.
  const std::set<std::string> expected = {
      "db.points_scanned", "db.points_matched", "db.points_exact",
      "db.cells_visited",  "db.ranges_scanned", "db.blocks_skipped",
      "db.blocks_exact",   "db.simd_blocks",    "db.delta_rows_scanned",
      "db.index_ns",       "db.refine_ns",      "db.scan_ns",
      "db.delta_ns",       "db.total_ns",       "db.max_query_ns"};
  for (const std::string& key : expected) {
    EXPECT_TRUE(keys.count(key)) << "QueryStats field missing from "
                                 << "DatabaseGauges: " << key;
  }
  // The per-instance counts and gauges the serving tier reads must also
  // be present.
  for (const char* key :
       {"db.queries_run", "db.empty_queries_skipped", "db.slow_queries",
        "db.batches_inline",
        "db.num_rows", "db.pending_writes", "db.compactions",
        "db.persist_poisoned"}) {
    EXPECT_TRUE(keys.count(key)) << key;
  }
  // Tripwire: QueryStats today is 9 u64 counters + 5 i64 timings +
  // 2 accumulator fields = 16 * 8 bytes. If this assert fires, a field
  // was added or removed — update `expected` above AND DatabaseGauges.
  static_assert(sizeof(QueryStats) == 16 * 8,
                "QueryStats changed shape: update DatabaseGauges and the "
                "expected key set in this test");
}

}  // namespace
}  // namespace flood
