#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>

namespace flood::obs {

int64_t HistogramData::Percentile(double p) const {
  if (count == 0) return 0;
  if (p >= 100.0) return max;
  if (p < 0.0) p = 0.0;
  // Nearest rank: the ceil(p/100 * count)-th smallest value, 1-based;
  // p == 0 reads the minimum's bucket.
  uint64_t rank = static_cast<uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(count)));
  if (rank == 0) rank = 1;
  uint64_t seen = 0;
  for (std::size_t i = 0; i < kNumBuckets; ++i) {
    seen += buckets[i];
    if (seen >= rank) return std::min(BucketUpperBound(i), max);
  }
  return max;  // unreachable when counts are consistent
}

std::size_t ThisThreadSlot() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t slot =
      next.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

HistogramData Histogram::Snapshot() const {
  HistogramData out;
  for (const Shard& s : shards_) {
    out.count += s.count.load(std::memory_order_relaxed);
    out.sum += s.sum.load(std::memory_order_relaxed);
    const int64_t m = s.max.load(std::memory_order_relaxed);
    if (m > out.max) out.max = m;
    for (std::size_t i = 0; i < kNumBuckets; ++i) {
      out.buckets[i] += s.buckets[i].load(std::memory_order_relaxed);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

namespace {

bool ValidMetricName(const std::string& name) {
  if (name.empty()) return false;
  auto word = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
  };
  if (!word(name[0])) return false;
  for (char c : name) {
    if (!word(c) && !(c >= '0' && c <= '9')) return false;
  }
  return true;
}

}  // namespace

struct MetricsRegistry::Impl {
  struct Entry {
    std::string help;
    std::unique_ptr<Histogram> histogram;
  };
  mutable std::mutex mu;
  std::map<std::string, Entry> entries;  // sorted => stable exposition order
};

MetricsRegistry& MetricsRegistry::Instance() {
  // Leaked on purpose: metric handles are held by static per-layer bundles
  // and may be touched during static destruction.
  static MetricsRegistry* g = new MetricsRegistry();
  return *g;
}

MetricsRegistry::Impl* MetricsRegistry::impl() {
  Impl* p = impl_.load(std::memory_order_acquire);
  if (p != nullptr) return p;
  Impl* fresh = new Impl();
  if (impl_.compare_exchange_strong(p, fresh, std::memory_order_acq_rel)) {
    return fresh;
  }
  delete fresh;
  return p;
}

Histogram* MetricsRegistry::RegisterHistogram(const std::string& name,
                                              const std::string& help) {
  FLOOD_CHECK(ValidMetricName(name));
  Impl* im = impl();
  std::lock_guard<std::mutex> lock(im->mu);
  auto& e = im->entries[name];
  if (e.histogram == nullptr) {
    e.help = help;
    e.histogram = std::make_unique<Histogram>();
  }
  return e.histogram.get();
}

std::vector<MetricSnapshot> MetricsRegistry::SnapshotAll() const {
  Impl* im = const_cast<MetricsRegistry*>(this)->impl();
  std::lock_guard<std::mutex> lock(im->mu);
  std::vector<MetricSnapshot> out;
  out.reserve(im->entries.size());
  for (const auto& [name, e] : im->entries) {
    out.push_back({name, e.help, e.histogram->Snapshot()});
  }
  return out;
}

// ---------------------------------------------------------------------------
// Per-layer bundles
// ---------------------------------------------------------------------------

DbMetrics& GlobalDbMetrics() {
  static DbMetrics m = [] {
    auto& r = MetricsRegistry::Instance();
    DbMetrics b;
    b.query_ns = r.RegisterHistogram("flood_db_query_ns",
                                     "Per-query end-to-end latency (ns)");
    b.batch_ns =
        r.RegisterHistogram("flood_db_batch_ns", "RunBatch wall time (ns)");
    b.batch_queries = r.RegisterHistogram("flood_db_batch_queries",
                                          "Queries per RunBatch call");
    b.plan_ns = r.RegisterHistogram(
        "flood_db_plan_ns",
        "Per-query index planning / cell selection, excl. refinement (ns)");
    b.refine_ns = r.RegisterHistogram(
        "flood_db_refine_ns",
        "Per-query sort-dimension refinement of Flood cells (ns)");
    b.scan_ns = r.RegisterHistogram(
        "flood_db_scan_ns",
        "Per-query scan + filter incl. delta merge, excl. refinement (ns)");
    b.delta_merge_ns = r.RegisterHistogram(
        "flood_db_delta_merge_ns", "Per-query delta-buffer merge (ns)");
    b.compaction_pause_ns = r.RegisterHistogram(
        "flood_db_compaction_pause_ns",
        "Exclusive-lock pause while compacting + retraining (ns)");
    b.checkpoint_ns = r.RegisterHistogram(
        "flood_db_checkpoint_ns", "Save() snapshot checkpoint duration (ns)");
    return b;
  }();
  return m;
}

ServeMetrics& GlobalServeMetrics() {
  static ServeMetrics m = [] {
    auto& r = MetricsRegistry::Instance();
    ServeMetrics b;
    b.frame_ns = r.RegisterHistogram(
        "flood_serve_frame_ns",
        "Request group latency: submit to completion drained (ns)");
    b.exec_ns = r.RegisterHistogram("flood_serve_exec_ns",
                                    "Engine execution time per group (ns)");
    b.queue_wait_ns = r.RegisterHistogram(
        "flood_serve_queue_wait_ns",
        "Admission + pool queue wait per group (frame - exec) (ns)");
    b.batch_queries = r.RegisterHistogram(
        "flood_serve_batch_queries", "Queries folded into one engine group");
    return b;
  }();
  return m;
}

RouterMetrics& GlobalRouterMetrics() {
  static RouterMetrics m = [] {
    auto& r = MetricsRegistry::Instance();
    RouterMetrics b;
    b.fanout_ns = r.RegisterHistogram(
        "flood_router_fanout_ns",
        "Scatter to per-shard reply latency, one sample per shard (ns)");
    return b;
  }();
  return m;
}

PersistMetrics& GlobalPersistMetrics() {
  static PersistMetrics m = [] {
    auto& r = MetricsRegistry::Instance();
    PersistMetrics b;
    b.wal_append_ns = r.RegisterHistogram(
        "flood_persist_wal_append_ns",
        "WAL group-commit append incl. fsync when kSync (ns)");
    b.fsync_ns =
        r.RegisterHistogram("flood_persist_fsync_ns", "fsync duration (ns)");
    b.snapshot_write_ns = r.RegisterHistogram(
        "flood_persist_snapshot_write_ns",
        "Snapshot serialize + write + rename duration (ns)");
    return b;
  }();
  return m;
}

}  // namespace flood::obs
