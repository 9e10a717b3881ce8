#ifndef FLOOD_TESTS_TEST_UTIL_H_
#define FLOOD_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "data/distributions.h"
#include "query/query.h"
#include "query/query_stats.h"
#include "storage/table.h"

namespace flood {
namespace testing {

/// RAII path under the gtest temp dir, unique per process; removes the
/// file (and any atomic-write `.tmp` leftover) on destruction.
class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_(::testing::TempDir() + "flood_" + std::to_string(::getpid()) +
              "_" + name) {
    std::remove(path_.c_str());
  }
  ~TempFile() {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  TempFile(const TempFile&) = delete;
  TempFile& operator=(const TempFile&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Rows of `table` as row-major tuples (InsertBatch / oracle input).
inline std::vector<std::vector<Value>> RowsOf(const Table& table) {
  std::vector<std::vector<Value>> rows(table.num_rows());
  for (RowId r = 0; r < table.num_rows(); ++r) {
    rows[r].resize(table.num_dims());
    for (size_t d = 0; d < table.num_dims(); ++d) {
      rows[r][d] = table.Get(r, d);
    }
  }
  return rows;
}

/// Shapes of synthetic test data exercising different index stress points.
enum class DataShape {
  kUniform,
  kSkewed,      // Lognormal-heavy tails.
  kClustered,   // Gaussian mixture.
  kDuplicates,  // Tiny categorical domains.
  kCorrelated,  // dim1 = dim0 + noise.
  kFullRange,   // Uniform over all of int64: spans exceed INT64_MAX.
};

inline const char* DataShapeName(DataShape s) {
  switch (s) {
    case DataShape::kUniform:
      return "Uniform";
    case DataShape::kSkewed:
      return "Skewed";
    case DataShape::kClustered:
      return "Clustered";
    case DataShape::kDuplicates:
      return "Duplicates";
    case DataShape::kCorrelated:
      return "Correlated";
    case DataShape::kFullRange:
      return "FullRange";
  }
  return "?";
}

/// Builds an n-row, d-dim table of the requested shape.
inline Table MakeTable(DataShape shape, size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<Value>> cols(d);
  for (size_t dim = 0; dim < d; ++dim) {
    switch (shape) {
      case DataShape::kUniform:
        cols[dim] = UniformColumn(n, 0, 1'000'000, rng);
        break;
      case DataShape::kSkewed:
        cols[dim] = LognormalColumn(n, 5.0, 1.5, 1.0, rng);
        break;
      case DataShape::kClustered:
        cols[dim] = ClusteredColumn(n, 8, 0, 1'000'000, 20'000.0, rng);
        break;
      case DataShape::kDuplicates:
        cols[dim] = ZipfColumn(n, 12, 1.1, rng);
        break;
      case DataShape::kCorrelated:
        if (dim == 0) {
          cols[dim] = UniformColumn(n, 0, 1'000'000, rng);
        } else {
          cols[dim] = OffsetColumn(cols[dim - 1], -5'000, 5'000, rng);
        }
        break;
      case DataShape::kFullRange:
        cols[dim] = UniformColumn(n, kValueMin, kValueMax, rng);
        break;
    }
  }
  StatusOr<Table> t = Table::FromColumns(std::move(cols));
  FLOOD_CHECK(t.ok());
  return std::move(t).value();
}

/// A random conjunctive query over `table`: each dim independently gets a
/// range filter (probability ~0.5), an equality filter (~0.15), or none.
inline Query RandomQuery(const Table& table, uint64_t seed) {
  Rng rng(seed);
  Query q(table.num_dims());
  for (size_t dim = 0; dim < table.num_dims(); ++dim) {
    const double roll = rng.NextDouble();
    const Value mn = table.min_value(dim);
    const Value mx = table.max_value(dim);
    if (roll < 0.5) {
      Value a = rng.UniformInt(mn, mx);
      Value b = rng.UniformInt(mn, mx);
      if (a > b) std::swap(a, b);
      q.SetRange(dim, a, b);
    } else if (roll < 0.65) {
      const RowId row = static_cast<RowId>(
          rng.UniformInt(0, static_cast<int64_t>(table.num_rows()) - 1));
      q.SetEquals(dim, table.Get(row, dim));
    }
  }
  return q;
}

/// Exact-match lookups of `n` existing rows (every dim equal).
inline std::vector<Query> PointQueries(const Table& table, size_t n) {
  std::vector<Query> queries;
  for (size_t i = 0; i < n; ++i) {
    const RowId row = static_cast<RowId>(i * 2'971 % table.num_rows());
    Query q(table.num_dims());
    for (size_t dim = 0; dim < table.num_dims(); ++dim) {
      q.SetEquals(dim, table.Get(row, dim));
    }
    queries.push_back(std::move(q));
  }
  return queries;
}

/// Exact-match lookups of `n` keys past every dim's maximum: non-empty
/// queries that match nothing, and about the cheapest an index answers
/// (a few µs even under TSan for the "clustered" index).
inline std::vector<Query> AbsentKeyQueries(const Table& table, size_t n) {
  std::vector<Query> queries;
  for (size_t i = 0; i < n; ++i) {
    Query q(table.num_dims());
    for (size_t dim = 0; dim < table.num_dims(); ++dim) {
      q.SetEquals(dim, table.max_value(dim) + 1 + static_cast<Value>(i));
    }
    queries.push_back(std::move(q));
  }
  return queries;
}

/// Brute-force oracle: COUNT and SUM(sum_dim) of matching rows. SUM wraps
/// modulo 2^64, as SumVisitor does.
struct OracleResult {
  uint64_t count = 0;
  int64_t sum = 0;
};

inline OracleResult BruteForce(const Table& table, const Query& q,
                               size_t sum_dim) {
  OracleResult r;
  uint64_t sum = 0;
  for (RowId row = 0; row < table.num_rows(); ++row) {
    if (q.Matches(table, row)) {
      ++r.count;
      sum += static_cast<uint64_t>(table.Get(row, sum_dim));
    }
  }
  r.sum = static_cast<int64_t>(sum);
  return r;
}

// --- Golden Introspect() key lists ------------------------------------------

/// One expected Introspect() entry: its key and its value, or kAnyValue
/// where the value depends on timing or byte counts.
struct GoldenEntry {
  std::string key;
  double value;
};
inline constexpr double kAnyValue = -1.0;

/// Holds `got` to exactly the keys of `want`, in order, and to every value
/// `want` pins.
inline void ExpectGolden(
    const std::vector<std::pair<std::string, double>>& got,
    const std::vector<GoldenEntry>& want) {
  std::vector<std::string> got_keys;
  std::vector<std::string> want_keys;
  for (const auto& entry : got) got_keys.push_back(entry.first);
  for (const GoldenEntry& entry : want) want_keys.push_back(entry.key);
  ASSERT_EQ(got_keys, want_keys);
  for (size_t i = 0; i < want.size(); ++i) {
    if (want[i].value == kAnyValue) continue;
    EXPECT_EQ(got[i].second, want[i].value) << want[i].key;
  }
}

/// The pinned db.* gauges of one database without persistence.
struct GoldenDb {
  double base_rows = 0;
  double num_rows = 0;
  double delta_inserts = 0;
  double delta_tombstones = 0;
  double queries_run = 0;
  double empty_queries_skipped = 0;
  double batches_inline = kAnyValue;
  double num_threads = 0;
  QueryStats stats;  ///< Counters are pinned; timings are not.
};

/// The db.* block one database contributes to an Introspect() map, each
/// key under `prefix` ("" for a server's own database, "shard<i>." under
/// a router).
inline std::vector<GoldenEntry> GoldenDbEntries(const std::string& prefix,
                                                const GoldenDb& db) {
  const QueryStats& s = db.stats;
  auto count = [](uint64_t v) { return static_cast<double>(v); };
  std::vector<GoldenEntry> entries = {
      {"db.base_rows", db.base_rows},
      {"db.num_rows", db.num_rows},
      {"db.pending_writes", db.delta_inserts + db.delta_tombstones},
      {"db.delta_inserts", db.delta_inserts},
      {"db.delta_tombstones", db.delta_tombstones},
      {"db.compactions", 0},
      {"db.queries_run", db.queries_run},
      {"db.empty_queries_skipped", db.empty_queries_skipped},
      {"db.slow_queries", 0},
      {"db.batches_inline", db.batches_inline},
      {"db.persist_epoch", 0},
      {"db.persist_poisoned", 0},
      {"db.num_threads", db.num_threads},
      {"db.points_scanned", count(s.points_scanned)},
      {"db.points_matched", count(s.points_matched)},
      {"db.points_exact", count(s.points_exact)},
      {"db.cells_visited", count(s.cells_visited)},
      {"db.ranges_scanned", count(s.ranges_scanned)},
      {"db.blocks_skipped", count(s.blocks_skipped)},
      {"db.blocks_exact", count(s.blocks_exact)},
      {"db.simd_blocks", count(s.simd_blocks)},
      {"db.delta_rows_scanned", count(s.delta_rows_scanned)},
      {"db.index_ns", kAnyValue},
      {"db.refine_ns", kAnyValue},
      {"db.scan_ns", kAnyValue},
      {"db.delta_ns", kAnyValue},
      {"db.total_ns", kAnyValue},
      {"db.max_query_ns", kAnyValue},
  };
  for (GoldenEntry& entry : entries) entry.key = prefix + entry.key;
  return entries;
}

}  // namespace testing
}  // namespace flood

#endif  // FLOOD_TESTS_TEST_UTIL_H_
