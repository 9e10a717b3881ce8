#include "persist/snapshot.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <map>

#include "common/bytes.h"
#include "common/failpoint.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "persist/format.h"

namespace flood {
namespace persist {

namespace {

std::atomic<uint64_t> g_dir_fsync_failures{0};

}  // namespace

std::string ErrnoMessage(const std::string& what, const std::string& path) {
  return what + " " + path + ": " + std::strerror(errno);
}

Status WriteAllFd(int fd, const void* data, size_t n, const std::string& path,
                  const char* write_site) {
  const char* p = static_cast<const char*>(data);
  size_t written = 0;
  while (written < n) {
    const ssize_t w =
        failpoint::InjectedWrite(write_site, fd, p + written, n - written);
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(ErrnoMessage("write", path));
    }
    written += static_cast<size_t>(w);
  }
  return Status::OK();
}

void FsyncParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY);
  if (dir_fd < 0) {
    g_dir_fsync_failures.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const Stopwatch fsync_watch;
  if (failpoint::InjectedFsync("persist.dir_fsync", dir_fd) != 0) {
    g_dir_fsync_failures.fetch_add(1, std::memory_order_relaxed);
  }
  obs::GlobalPersistMetrics().fsync_ns->Record(fsync_watch.ElapsedNanos());
  ::close(dir_fd);
}

uint64_t DirFsyncFailures() {
  return g_dir_fsync_failures.load(std::memory_order_relaxed);
}

namespace {

Status InvalidSnapshot(const std::string& why) {
  return Status::InvalidArgument("snapshot: " + why);
}

// --- Section payloads ------------------------------------------------------

void AppendMeta(const SnapshotContents& c, ByteWriter* w) {
  w->PutString(c.index_name);
  w->PutU32(static_cast<uint32_t>(c.index_options.size()));
  for (const auto& [key, value] : c.index_options) {
    w->PutString(key);
    w->PutString(value);
  }
  w->PutString(c.layout);
}

Status ReadMeta(ByteReader* r, SnapshotData* out) {
  out->index_name = r->GetString();
  const uint32_t num_options = r->GetU32();
  if (!r->ok() || num_options > r->remaining() / 8) {
    return InvalidSnapshot("corrupt meta section");
  }
  for (uint32_t i = 0; i < num_options; ++i) {
    std::string key = r->GetString();
    std::string value = r->GetString();
    out->index_options.emplace_back(std::move(key), std::move(value));
  }
  out->layout = r->GetString();
  if (!r->ok()) return InvalidSnapshot("corrupt meta section");
  return Status::OK();
}

void AppendWorkload(const SnapshotContents& c, ByteWriter* w) {
  w->PutU8(c.workload != nullptr ? 1 : 0);
  if (c.workload == nullptr) return;
  w->PutU32(static_cast<uint32_t>(c.workload->size()));
  for (const Query& q : *c.workload) AppendQuery(q, w);
}

Status ReadWorkloadSection(ByteReader* r, SnapshotData* out) {
  const uint8_t has = r->GetU8();
  if (!r->ok() || has > 1) return InvalidSnapshot("corrupt workload section");
  if (has == 0) return Status::OK();
  const uint32_t count = r->GetU32();
  // A query costs at least 4 (dims) + 5 (agg) bytes.
  if (!r->ok() || count > r->remaining() / 9) {
    return InvalidSnapshot("corrupt workload section");
  }
  std::vector<Query> queries;
  queries.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    StatusOr<Query> q = ReadQuery(r);
    if (!q.ok()) return q.status();
    queries.push_back(std::move(*q));
  }
  out->workload = Workload(std::move(queries));
  return Status::OK();
}

void AppendRows(const std::vector<std::vector<Value>>& rows, size_t num_dims,
                ByteWriter* w) {
  w->PutU64(rows.size());
  for (const std::vector<Value>& row : rows) {
    FLOOD_CHECK(row.size() == num_dims);
    for (Value v : row) w->PutI64(v);
  }
}

Status ReadRows(ByteReader* r, size_t num_dims,
                std::vector<std::vector<Value>>* out) {
  const uint64_t count = r->GetU64();
  if (!r->ok() || num_dims == 0 ||
      count > r->remaining() / (num_dims * sizeof(Value))) {
    return InvalidSnapshot("corrupt delta section");
  }
  out->reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    std::vector<Value> row(num_dims);
    for (size_t d = 0; d < num_dims; ++d) row[d] = r->GetI64();
    out->push_back(std::move(row));
  }
  return Status::OK();
}

void AppendDelta(const SnapshotContents& c, ByteWriter* w) {
  const size_t num_dims = c.base->num_dims();
  w->PutU32(static_cast<uint32_t>(num_dims));
  AppendRows(c.delta_inserts, num_dims, w);
  AppendRows(c.tombstone_keys, num_dims, w);
}

Status ReadDelta(ByteReader* r, SnapshotData* out) {
  const uint32_t num_dims = r->GetU32();
  if (!r->ok() || num_dims != out->base.num_dims()) {
    return InvalidSnapshot("delta arity does not match the table");
  }
  FLOOD_RETURN_IF_ERROR(ReadRows(r, num_dims, &out->delta_inserts));
  FLOOD_RETURN_IF_ERROR(ReadRows(r, num_dims, &out->tombstone_keys));
  if (!r->ok()) return InvalidSnapshot("corrupt delta section");
  return Status::OK();
}

}  // namespace

void AppendQuery(const Query& q, ByteWriter* w) {
  w->PutU32(static_cast<uint32_t>(q.num_dims()));
  for (size_t d = 0; d < q.num_dims(); ++d) {
    w->PutI64(q.range(d).lo);
    w->PutI64(q.range(d).hi);
  }
  w->PutU8(q.agg().kind == AggSpec::Kind::kSum ? 1 : 0);
  w->PutU32(static_cast<uint32_t>(q.agg().dim));
}

StatusOr<Query> ReadQuery(ByteReader* r) {
  const uint32_t num_dims = r->GetU32();
  if (!r->ok() || num_dims > r->remaining() / 16) {
    return InvalidSnapshot("corrupt query encoding");
  }
  Query q(num_dims);
  for (uint32_t d = 0; d < num_dims; ++d) {
    const Value lo = r->GetI64();
    const Value hi = r->GetI64();
    q.SetRange(d, lo, hi);
  }
  const uint8_t kind = r->GetU8();
  const uint32_t agg_dim = r->GetU32();
  if (!r->ok() || kind > 1 || (kind == 1 && agg_dim >= num_dims)) {
    return InvalidSnapshot("corrupt query encoding");
  }
  q.set_agg({kind == 1 ? AggSpec::Kind::kSum : AggSpec::Kind::kCount,
             static_cast<size_t>(agg_dim)});
  return q;
}

Status ReadFileToString(const std::string& path, std::string* out,
                        const char* read_site) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status::NotFound("no such file: " + path);
    }
    return Status::Internal(ErrnoMessage("open", path));
  }
  out->clear();
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = failpoint::InjectedRead(read_site, fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status status = Status::Internal(ErrnoMessage("read", path));
      ::close(fd);
      return status;
    }
    if (n == 0) break;
    out->append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return Status::OK();
}

Status WriteFileAtomic(const std::string& path, const std::string& data) {
  const std::string tmp = path + ".tmp";
  const int fd = failpoint::InjectedOpen("persist.snapshot.open", tmp.c_str(),
                                         O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Status::Internal(ErrnoMessage("open", tmp));
  Status status =
      WriteAllFd(fd, data.data(), data.size(), tmp, "persist.snapshot.write");
  if (status.ok()) {
    const Stopwatch fsync_watch;
    if (failpoint::InjectedFsync("persist.snapshot.fsync", fd) != 0) {
      status = Status::Internal(ErrnoMessage("fsync", tmp));
    }
    obs::GlobalPersistMetrics().fsync_ns->Record(fsync_watch.ElapsedNanos());
  }
  ::close(fd);
  if (!status.ok()) {
    ::unlink(tmp.c_str());
    return status;
  }
  if (failpoint::InjectedRename("persist.snapshot.rename", tmp.c_str(),
                                path.c_str()) != 0) {
    status = Status::Internal(ErrnoMessage("rename", tmp));
    ::unlink(tmp.c_str());
    return status;
  }
  // Make the rename itself durable.
  FsyncParentDir(path);
  return Status::OK();
}

Status WriteSnapshot(const std::string& path, const SnapshotContents& c) {
  if (c.base == nullptr || c.base->num_rows() == 0) {
    return InvalidSnapshot("a snapshot requires a non-empty base table");
  }
  // Serialize + write + rename, success or not: a failed checkpoint's
  // duration is exactly what callers stalled on.
  const Stopwatch watch;
  struct DurationRecorder {
    const Stopwatch& watch;
    ~DurationRecorder() {
      obs::GlobalPersistMetrics().snapshot_write_ns->Record(
          watch.ElapsedNanos());
    }
  } recorder{watch};

  // The header's size is fixed by the section count, so the sections are
  // serialized straight into the file after room for it, and the header,
  // which needs their extents and checksums, is written over that room.
  constexpr size_t kNumSections = 4;
  constexpr size_t kHeaderBytes = 8 + 4 + 8 + 4 + kNumSections * 24 + 4;
  std::string file;
  file.reserve(kHeaderBytes + c.base->MemoryUsageBytes());
  file.resize(kHeaderBytes);
  ByteWriter w(&file);
  struct Extent {
    SectionId id;
    size_t offset;
    size_t length;
  };
  std::vector<Extent> extents;
  extents.reserve(kNumSections);
  const auto section = [&](SectionId id, const auto& append) {
    const size_t offset = file.size();
    append();
    extents.push_back({id, offset, file.size() - offset});
  };
  section(SectionId::kMeta, [&] { AppendMeta(c, &w); });
  section(SectionId::kTable, [&] { c.base->AppendTo(&w); });
  section(SectionId::kWorkload, [&] { AppendWorkload(c, &w); });
  section(SectionId::kDelta, [&] { AppendDelta(c, &w); });

  std::string header_bytes;
  ByteWriter header(&header_bytes);
  header.PutU64(kSnapshotMagic);
  header.PutU32(kSnapshotVersion);
  header.PutU64(c.epoch);
  header.PutU32(static_cast<uint32_t>(extents.size()));
  for (const Extent& e : extents) {
    header.PutU32(static_cast<uint32_t>(e.id));
    header.PutU64(e.offset);
    header.PutU64(e.length);
    header.PutU32(Crc32(file.data() + e.offset, e.length));
  }
  header.PutU32(Crc32(header_bytes.data(), header_bytes.size()));
  FLOOD_CHECK(header_bytes.size() == kHeaderBytes);
  file.replace(0, kHeaderBytes, header_bytes);

  return WriteFileAtomic(path, file);
}

StatusOr<SnapshotData> ReadSnapshot(const std::string& path) {
  std::string file;
  FLOOD_RETURN_IF_ERROR(
      ReadFileToString(path, &file, "persist.snapshot.read"));

  ByteReader header(file);
  if (header.GetU64() != kSnapshotMagic || !header.ok()) {
    return InvalidSnapshot("bad magic in " + path);
  }
  const uint32_t version = header.GetU32();
  if (version != kSnapshotVersion) {
    return InvalidSnapshot("unsupported version " + std::to_string(version) +
                           " in " + path);
  }
  SnapshotData out;
  out.epoch = header.GetU64();
  const uint32_t num_sections = header.GetU32();
  if (!header.ok() || num_sections > header.remaining() / 24) {
    return InvalidSnapshot("corrupt section table in " + path);
  }
  struct Entry {
    uint64_t offset;
    uint64_t length;
    uint32_t crc;
  };
  std::map<uint32_t, Entry> table;
  const size_t header_bytes = 8 + 4 + 8 + 4 + num_sections * 24;
  for (uint32_t i = 0; i < num_sections; ++i) {
    const uint32_t id = header.GetU32();
    const uint64_t offset = header.GetU64();
    const uint64_t length = header.GetU64();
    const uint32_t crc = header.GetU32();
    if (!header.ok() || offset < header_bytes + 4 ||
        offset > file.size() || length > file.size() - offset ||
        !table.emplace(id, Entry{offset, length, crc}).second) {
      return InvalidSnapshot("corrupt section table in " + path);
    }
  }
  const uint32_t header_crc = header.GetU32();
  if (!header.ok() || header_crc != Crc32(file.data(), header_bytes)) {
    return InvalidSnapshot("header checksum mismatch in " + path);
  }

  // Validate + parse in dependency order (delta validates against table).
  const auto section = [&](SectionId id, ByteReader* r) -> Status {
    auto it = table.find(static_cast<uint32_t>(id));
    if (it == table.end()) {
      return InvalidSnapshot("missing section " +
                             std::to_string(static_cast<uint32_t>(id)) +
                             " in " + path);
    }
    const Entry& e = it->second;
    if (Crc32(file.data() + e.offset, e.length) != e.crc) {
      return InvalidSnapshot("section checksum mismatch in " + path);
    }
    *r = ByteReader(file.data() + e.offset, e.length);
    return Status::OK();
  };

  ByteReader r(nullptr, 0);
  FLOOD_RETURN_IF_ERROR(section(SectionId::kMeta, &r));
  FLOOD_RETURN_IF_ERROR(ReadMeta(&r, &out));
  FLOOD_RETURN_IF_ERROR(section(SectionId::kTable, &r));
  StatusOr<Table> base = Table::ReadFrom(&r);
  if (!base.ok()) return base.status();
  out.base = std::move(*base);
  FLOOD_RETURN_IF_ERROR(section(SectionId::kWorkload, &r));
  FLOOD_RETURN_IF_ERROR(ReadWorkloadSection(&r, &out));
  FLOOD_RETURN_IF_ERROR(section(SectionId::kDelta, &r));
  FLOOD_RETURN_IF_ERROR(ReadDelta(&r, &out));
  return out;
}

}  // namespace persist
}  // namespace flood
