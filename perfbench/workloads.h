#ifndef FLOOD_PERFBENCH_WORKLOADS_H_
#define FLOOD_PERFBENCH_WORKLOADS_H_

// The benchmark's workloads: what each one generates from the seed, how
// its serving endpoint is set up, and the traced pass that splits one
// query's wire time into the layers it crosses.

#include <memory>
#include <string>
#include <vector>

#include "api/database.h"
#include "api/sharded_database.h"
#include "data/datasets.h"
#include "perfbench/harness.h"
#include "serve/router.h"
#include "serve/server.h"

namespace flood {
namespace perfbench {

struct WorkloadSpec {
  std::string name;
  std::string dataset;  ///< "sales" or "osm".
  size_t rows = 0;
  WorkloadKind kind = WorkloadKind::kOlapSkewed;
  double rate = 0;            ///< Open-loop arrivals per second.
  double write_fraction = 0;  ///< Share of open-loop requests that write.
  size_t shards = 0;          ///< >= 2: ShardedDatabase behind a Router.
  size_t pool = 0;            ///< Distinct read queries (the test split).
  /// Auto-compaction threshold (DatabaseOptions::auto_retrain_fraction).
  double auto_retrain_fraction = 0;
  /// In-process writes of the traced write pass (0 = no write layer).
  size_t traced_writes = 0;
};

const std::vector<WorkloadSpec>& Workloads();
/// Null when no workload has that name.
const WorkloadSpec* FindWorkload(const std::string& name);

/// Everything generated from the seed.
struct Inputs {
  BenchDataset data;
  Workload train;
  std::vector<Query> pool;
};
Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed);

/// The row insert ordinal `k` writes: a copy of a seeded base row whose
/// dimension 0 is moved past every base value, so each is unique and a
/// full-tuple delete removes exactly it.
std::vector<Value> InsertedRow(const Table& table, uint64_t seed, uint32_t k);

/// A serving endpoint: a Database (or a ShardedDatabase behind a Router)
/// behind a serve::Server on a Unix socket in the working directory.
class Endpoint {
 public:
  /// Opens the database(s), saves the snapshot the write workload
  /// checkpoints into, creates and starts the server.
  static StatusOr<std::unique_ptr<Endpoint>> Open(const WorkloadSpec& spec,
                                                  const Table& table,
                                                  const Workload& train,
                                                  const std::string& tag);
  /// Drains and stops the server before the databases go away.
  ~Endpoint();

  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  const std::string& socket_path() const { return socket_path_; }
  const std::string& wal_path() const { return wal_path_; }
  serve::Server& server() { return *server_; }
  serve::Router* router() { return router_.get(); }
  size_t num_shards() const { return sharded_ ? sharded_->num_shards() : 1; }
  Database& shard(size_t s) { return sharded_ ? *sharded_->shard(s) : *db_; }
  /// Shards a query is routed to ([0, 0] without a router).
  std::pair<size_t, size_t> ShardsFor(const Query& q) const;

  /// Summed over shards: table bytes and index bytes.
  size_t TableBytes();
  size_t IndexBytes();

 private:
  Endpoint() = default;

  std::string socket_path_;
  std::string wal_path_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<ShardedDatabase> sharded_;
  std::unique_ptr<serve::Router> router_;
  std::unique_ptr<serve::Server> server_;
};

/// Per-query means of the traced pass, in microseconds unless noted. On a
/// routed endpoint the in-process times are those of the slowest shard a
/// query reaches (the critical path), and the counts sum over the shards.
struct LayerTrace {
  double wire_us = 0;        ///< One-query frame round trip, one in flight.
  double serve_self_us = 0;  ///< wire - engine (Database or Router) time.
  double router_self_us = 0; ///< Router time - slowest shard RunBatch.
  double api_self_us = 0;    ///< RunBatch - ExecuteAggregate - delta merge.
  double delta_us = 0;       ///< QueryStats.delta_ns.
  double delta_rows = 0;     ///< QueryStats.delta_rows_scanned.
  double project_us = 0;     ///< QueryStats.index_ns.
  double refine_us = 0;      ///< QueryStats.refine_ns.
  double scan_us = 0;        ///< QueryStats.scan_ns (base index only).
  double cells = 0;
  double points_scanned = 0;
  double points_matched = 0;
  double blocks_skipped = 0;
  double simd_blocks = 0;
  double unattributed = 0;   ///< 1 - sum of self times / wire_us.
};

/// Times `rounds` passes over `probe`: the wire round trip through
/// `client` (connected to the endpoint), then the engine, each shard's
/// RunBatch and ExecuteAggregate in process, one query at a time.
StatusOr<LayerTrace> TraceLayers(Endpoint* ep, serve::Client* client,
                                 const std::vector<Query>& probe, int rounds);

}  // namespace perfbench
}  // namespace flood

#endif  // FLOOD_PERFBENCH_WORKLOADS_H_
