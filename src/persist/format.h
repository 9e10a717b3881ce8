#ifndef FLOOD_PERSIST_FORMAT_H_
#define FLOOD_PERSIST_FORMAT_H_

#include <cstdint>

namespace flood {
namespace persist {

// On-disk format constants shared by the snapshot and WAL readers/writers.
// The full layout is documented in src/persist/README.md; bump the version
// constants on any incompatible change (readers reject newer versions
// instead of guessing).

/// "FLDSNAP1" as a little-endian u64.
inline constexpr uint64_t kSnapshotMagic = 0x3150414E53444C46ull;
inline constexpr uint32_t kSnapshotVersion = 2;

/// "FLDWAL01" as a little-endian u64.
inline constexpr uint64_t kWalMagic = 0x31304C4157444C46ull;
inline constexpr uint32_t kWalVersion = 1;

/// Snapshot section ids. Order in the file matches this enumeration, but
/// readers locate sections through the header's section table, so future
/// versions may add or reorder sections. Id 3 (string dictionaries, never
/// filled) is retired as of version 2; it is not reused.
enum class SectionId : uint32_t {
  kMeta = 1,      ///< Index identity, options, layout.
  kTable = 2,     ///< Base table: encoded column pages, storage order.
  kWorkload = 4,  ///< Training workload queries (may be absent).
  kDelta = 5,     ///< Staged inserts + tombstone keys.
};

/// WAL record types. A record is the logical write operation, not its
/// physical effect, so replay is independent of index storage order.
enum class WalRecordType : uint8_t {
  kInsert = 1,  ///< One staged row (num_dims values).
  kDelete = 2,  ///< Full-tuple delete key (num_dims values).
};

}  // namespace persist
}  // namespace flood

#endif  // FLOOD_PERSIST_FORMAT_H_
