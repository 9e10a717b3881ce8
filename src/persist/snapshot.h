#ifndef FLOOD_PERSIST_SNAPSHOT_H_
#define FLOOD_PERSIST_SNAPSHOT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "query/query.h"
#include "query/workload.h"
#include "storage/table.h"

namespace flood {
namespace persist {

/// What a snapshot captures (see src/persist/README.md for the byte-level
/// layout): the full logical database state — base table in index storage
/// order, the learned layout and index options needed to rebuild the index
/// WITHOUT re-running the optimizer, and the staged delta — so
/// `old snapshot + WAL tail` always reproduces the acknowledged state.
///
/// Tombstones are stored as full-tuple *keys*, not row ids: Delete(key)
/// tombstones every base row equal to the key, so the key set identifies
/// the exact tombstone set in any deterministic rebuild order, even if a
/// baseline index re-clusters the restored table differently.

/// Borrowed view handed to WriteSnapshot (the base table is not copied).
struct SnapshotContents {
  uint64_t epoch = 0;
  std::string index_name;  ///< Canonical registry key.
  std::vector<std::pair<std::string, std::string>> index_options;
  std::string layout;  ///< GridLayout::Serialize() output; "" = none.
  const Table* base = nullptr;  ///< Required; index storage order.
  const Workload* workload = nullptr;  ///< nullptr = no training workload.
  std::vector<std::vector<Value>> delta_inserts;   ///< Staged rows.
  std::vector<std::vector<Value>> tombstone_keys;  ///< Distinct key tuples.
};

/// Owned mirror of SnapshotContents returned by ReadSnapshot.
struct SnapshotData {
  uint64_t epoch = 0;
  std::string index_name;
  std::vector<std::pair<std::string, std::string>> index_options;
  std::string layout;
  Table base;
  std::optional<Workload> workload;
  std::vector<std::vector<Value>> delta_inserts;
  std::vector<std::vector<Value>> tombstone_keys;
};

/// Serializes `contents` and writes it to `path` atomically (temp file in
/// the same directory + fsync + rename), so a crash mid-save leaves any
/// previous snapshot at `path` intact — a failed snapshot loses nothing.
Status WriteSnapshot(const std::string& path, const SnapshotContents& c);

/// Reads and fully validates a snapshot: magic, version, section-table
/// bounds, header CRC, per-section CRCs, and structural invariants
/// (column lengths, delta arity, counts vs. payload size). Any corruption
/// or truncation returns InvalidArgument; a missing file returns NotFound.
StatusOr<SnapshotData> ReadSnapshot(const std::string& path);

// Shared by snapshot and tests: query (de)serialization.
void AppendQuery(const Query& q, ByteWriter* w);
StatusOr<Query> ReadQuery(ByteReader* r);

// File helpers (also used by the WAL implementation and tests). The
// `*_site` parameters name the fault-injection seam the I/O runs through
// (src/common/failpoint.h); callers on a distinct durability path pass
// their own site so tests can fail them independently.
Status ReadFileToString(const std::string& path, std::string* out,
                        const char* read_site = "persist.read");
Status WriteFileAtomic(const std::string& path, const std::string& data);

// Low-level POSIX helpers shared by the snapshot and WAL writers.
std::string ErrnoMessage(const std::string& what, const std::string& path);
/// write() until `n` bytes landed (EINTR/short-write safe).
Status WriteAllFd(int fd, const void* data, size_t n, const std::string& path,
                  const char* write_site = "persist.write");
/// Best-effort fsync of `path`'s parent directory, making a just-created
/// or just-renamed directory entry durable. Failures don't fail the caller
/// (the data fsync already succeeded; only the *directory entry* may not
/// survive a power loss) but are counted in DirFsyncFailures() so they are
/// observable instead of silently discarded.
void FsyncParentDir(const std::string& path);
/// Process-wide count of failed best-effort directory fsyncs (open or
/// fsync of the parent directory). Surfaced as
/// "persist.dir_fsync_failures" in Server::Introspect(); nonzero means a
/// freshly created/renamed snapshot or WAL *file* is durable but its
/// directory entry might not survive a power loss.
uint64_t DirFsyncFailures();

}  // namespace persist
}  // namespace flood

#endif  // FLOOD_PERSIST_SNAPSHOT_H_
