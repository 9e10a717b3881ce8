#pragma once
// Process-wide latency and size histograms behind a name-keyed registry.
//
// Design contract (see docs/metrics.md for the metric catalog):
//
//  - The registry holds histograms only. Counts (points scanned, frames,
//    connections, subqueries, ...) live in exactly one per-instance place
//    — QueryStats / ServerCounters / RouterCounters — and reach the
//    scrape through each component's Introspect() map, so they stay
//    compiled in under -DFLOOD_METRICS=OFF.
//  - Recording is lock-free and allocation-free: a histogram is sharded
//    across cache-line-aligned cells indexed by a per-thread slot, all
//    updates relaxed atomics.
//  - `HistogramData` is the plain, copyable, *non-atomic* form of a
//    histogram: the snapshot type, the wire type, and the type callers
//    use for local exact-ish percentiles (e.g. `BatchResult`). It is
//    ALWAYS compiled, even with -DFLOOD_METRICS=OFF.
//  - `Histogram` is the registry-backed concurrent recorder. With
//    -DFLOOD_METRICS=OFF `Record` compiles to nothing (`kEnabled` is
//    false), mirroring the FLOOD_FAILPOINTS pattern; readers then see
//    zeros.
//  - Buckets are log-linear: 4 sub-buckets per power of two, so every
//    bucket's width is at most 25% of its lower bound. Percentile
//    readout returns the bucket upper bound clamped to the exact
//    tracked max — p100 is always the exact maximum.
//  - The registry is a process singleton; handles are registered once
//    (first caller wins, a duplicate name returns the same handle) and
//    stay valid for process lifetime.

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/macros.h"

namespace flood::obs {

#if defined(FLOOD_METRICS_DISABLED)
inline constexpr bool kEnabled = false;
#else
inline constexpr bool kEnabled = true;
#endif

// ---------------------------------------------------------------------------
// Bucket math (shared by HistogramData and Histogram)
// ---------------------------------------------------------------------------

// 4 exact unit buckets (0..3) + 4 sub-buckets per power of two for
// exponents 2..62 — covers all non-negative int64 values.
inline constexpr std::size_t kNumBuckets = 4 + 61 * 4;  // 248

// Bucket for value `v`. Negative values clamp into bucket 0.
constexpr std::size_t BucketIndex(int64_t v) {
  if (v < 4) return v < 0 ? 0 : static_cast<std::size_t>(v);
  const uint64_t u = static_cast<uint64_t>(v);
  const int msb = 63 - std::countl_zero(u);  // in [2, 62]
  return 4 + static_cast<std::size_t>(msb - 2) * 4 +
         static_cast<std::size_t>((u >> (msb - 2)) & 3);
}

// Largest value mapping to bucket `idx` (inclusive), saturating to
// INT64_MAX for the final bucket.
constexpr int64_t BucketUpperBound(std::size_t idx) {
  if (idx < 4) return static_cast<int64_t>(idx);
  const int b = 2 + static_cast<int>((idx - 4) / 4);
  const uint64_t j = (idx - 4) % 4;
  const uint64_t upper =
      (uint64_t{1} << b) + (j + 1) * (uint64_t{1} << (b - 2)) - 1;
  return upper > static_cast<uint64_t>(INT64_MAX)
             ? INT64_MAX
             : static_cast<int64_t>(upper);
}

static_assert(BucketIndex(0) == 0 && BucketIndex(3) == 3);
static_assert(BucketIndex(4) == 4 && BucketIndex(7) == 7);
static_assert(BucketIndex(INT64_MAX) == kNumBuckets - 1);
static_assert(BucketUpperBound(kNumBuckets - 1) == INT64_MAX);

// ---------------------------------------------------------------------------
// HistogramData — plain mergeable histogram (snapshot / wire / local form)
// ---------------------------------------------------------------------------

struct HistogramData {
  uint64_t count = 0;
  int64_t sum = 0;
  int64_t max = 0;  // exact tracked maximum; meaningless when count == 0
  std::array<uint64_t, kNumBuckets> buckets{};

  void Record(int64_t v) {
    if (v < 0) v = 0;
    ++buckets[BucketIndex(v)];
    ++count;
    sum += v;
    if (v > max) max = v;
  }

  void Merge(const HistogramData& other) {
    count += other.count;
    sum += other.sum;
    if (other.count > 0 && other.max > max) max = other.max;
    for (std::size_t i = 0; i < kNumBuckets; ++i) buckets[i] += other.buckets[i];
  }

  // Nearest-rank percentile readout: the upper bound of the bucket holding
  // the rank-th recorded value, clamped to the exact max (so the estimate
  // never exceeds any recorded value's true ceiling, and p >= 100 is the
  // exact maximum). Empty histogram reads 0.
  int64_t Percentile(double p) const;
};

// ---------------------------------------------------------------------------
// Concurrent recorder
// ---------------------------------------------------------------------------

// Dense small integer id for the calling thread, assigned on first use.
// Used to pick a shard; two threads may share a shard (correct, just
// contended) — there is never a torn or lost update.
std::size_t ThisThreadSlot();

class Histogram {
 public:
  void Record(int64_t v) {
    if constexpr (kEnabled) {
      if (v < 0) v = 0;
      Shard& s = shards_[ThisThreadSlot() & (kShards - 1)];
      s.buckets[BucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
      s.count.fetch_add(1, std::memory_order_relaxed);
      s.sum.fetch_add(v, std::memory_order_relaxed);
      int64_t cur = s.max.load(std::memory_order_relaxed);
      while (v > cur &&
             !s.max.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
      }
    } else {
      (void)v;
    }
  }

  // Merged view across shards. Concurrent recorders may land between the
  // per-field loads, so a snapshot is only eventually consistent — fine
  // for monitoring, and exact once recorders quiesce.
  HistogramData Snapshot() const;

 private:
  static constexpr std::size_t kShards = 8;
  struct alignas(64) Shard {
    std::atomic<uint64_t> count{0};
    std::atomic<int64_t> sum{0};
    std::atomic<int64_t> max{0};
    std::array<std::atomic<uint64_t>, kNumBuckets> buckets{};
  };
  Shard shards_[kShards];
};

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

struct MetricSnapshot {
  std::string name;
  std::string help;
  HistogramData hist;
};

// Process-wide registry. Registration takes a mutex (startup only);
// returned handles record without any lock. Names must match
// [a-zA-Z_][a-zA-Z0-9_]* — they go straight onto the Prometheus
// exposition (FLOOD_CHECK enforced).
class MetricsRegistry {
 public:
  static MetricsRegistry& Instance();

  Histogram* RegisterHistogram(const std::string& name,
                               const std::string& help);

  // All histograms, sorted by name.
  std::vector<MetricSnapshot> SnapshotAll() const;

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

 private:
  MetricsRegistry() = default;
  struct Impl;
  Impl* impl();  // lazily constructed, never destroyed (registered handles
                 // outlive static destruction order)
  std::atomic<Impl*> impl_{nullptr};
};

// ---------------------------------------------------------------------------
// Per-layer handle bundles (registered once, on first use)
// ---------------------------------------------------------------------------

struct DbMetrics {
  Histogram* query_ns;             // per-query end-to-end latency
  Histogram* batch_ns;             // per-RunBatch wall time
  Histogram* batch_queries;        // queries per batch
  Histogram* plan_ns;              // stage: index planning (index_ns)
  Histogram* refine_ns;            // stage: Flood refinement (refine_ns)
  Histogram* scan_ns;              // stage: scan + filter (scan_ns)
  Histogram* delta_merge_ns;       // stage: delta-buffer merge
  Histogram* compaction_pause_ns;  // exclusive-lock compaction pause
  Histogram* checkpoint_ns;        // Save() snapshot duration
};
DbMetrics& GlobalDbMetrics();

struct ServeMetrics {
  Histogram* frame_ns;       // submit -> completion drained, per group
  Histogram* exec_ns;        // engine execution time, per group
  Histogram* queue_wait_ns;  // frame_ns - exec_ns (admission + pool queue)
  Histogram* batch_queries;  // queries folded into one engine group
};
ServeMetrics& GlobalServeMetrics();

struct RouterMetrics {
  Histogram* fanout_ns;  // scatter -> each shard reply, per shard
};
RouterMetrics& GlobalRouterMetrics();

struct PersistMetrics {
  Histogram* wal_append_ns;      // WalWriter::Commit write+fsync
  Histogram* fsync_ns;           // every fsync in persist
  Histogram* snapshot_write_ns;  // WriteSnapshot serialize+write+rename
};
PersistMetrics& GlobalPersistMetrics();

}  // namespace flood::obs
