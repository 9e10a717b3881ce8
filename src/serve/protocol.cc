#include "serve/protocol.h"

#include <cstring>

#include "common/macros.h"

namespace flood {
namespace serve {

namespace {

// --- Shared body fragments -------------------------------------------------

void PutQuery(const Query& query, ByteWriter* w) {
  w->PutU32(static_cast<uint32_t>(query.num_dims()));
  for (size_t d = 0; d < query.num_dims(); ++d) {
    const ValueRange& r = query.range(d);
    w->PutI64(r.lo);
    w->PutI64(r.hi);
  }
  w->PutU8(query.agg().kind == AggSpec::Kind::kSum ? 1 : 0);
  w->PutU32(static_cast<uint32_t>(query.agg().dim));
}

bool GetQuery(ByteReader* r, Query* query) {
  const uint32_t num_dims = r->GetU32();
  // 16 bytes per dim: an impossible count can't drive a large allocation.
  if (num_dims > kMaxWireDims ||
      static_cast<size_t>(num_dims) * 16 > r->remaining()) {
    r->MarkFailed();
    return false;
  }
  Query q(num_dims);
  for (uint32_t d = 0; d < num_dims; ++d) {
    const Value lo = r->GetI64();
    const Value hi = r->GetI64();
    q.SetRange(d, lo, hi);
  }
  const uint8_t agg_kind = r->GetU8();
  const uint32_t agg_dim = r->GetU32();
  if (!r->ok() || agg_kind > 1 || (agg_kind == 1 && agg_dim >= num_dims)) {
    r->MarkFailed();
    return false;
  }
  q.set_agg({agg_kind == 1 ? AggSpec::Kind::kSum : AggSpec::Kind::kCount,
             agg_dim});
  *query = std::move(q);
  return true;
}

void PutRow(const std::vector<Value>& row, ByteWriter* w) {
  w->PutU32(static_cast<uint32_t>(row.size()));
  for (Value v : row) w->PutI64(v);
}

bool GetRow(ByteReader* r, std::vector<Value>* row) {
  const uint32_t n = r->GetU32();
  if (n > kMaxWireDims || static_cast<size_t>(n) * 8 > r->remaining()) {
    r->MarkFailed();
    return false;
  }
  row->resize(n);
  for (uint32_t i = 0; i < n; ++i) (*row)[i] = r->GetI64();
  return r->ok();
}

/// Builds the payload with `body`, then frames it onto `out`.
template <typename BodyFn>
void AppendWith(MessageType type, std::string* out, BodyFn body) {
  std::string payload;
  ByteWriter w(&payload);
  body(&w);
  AppendFrame(type, payload, out);
}

Status ParseFailed(const char* what) {
  return Status::InvalidArgument(std::string("malformed ") + what +
                                 " payload");
}

/// Finishes a parse: success only if the reader is clean AND fully
/// consumed (trailing garbage inside a CRC-valid payload is still a
/// protocol violation).
template <typename T>
StatusOr<T> Finish(const ByteReader& r, T value, const char* what) {
  if (!r.ok() || r.remaining() != 0) return ParseFailed(what);
  return value;
}

/// Reads a WireCode byte; a byte that names no WireCode fails the reader.
WireCode GetWireCode(ByteReader* r) {
  const auto code = static_cast<WireCode>(r->GetU8());
  if (WireCodeToString(code) == "UnknownWireCode") r->MarkFailed();
  return code;
}

/// What a request-id-only message is called; null for any other type.
const char* RequestIdMessageName(MessageType type) {
  switch (type) {
    case MessageType::kPing:
      return "Ping";
    case MessageType::kHealth:
      return "Health";
    case MessageType::kMetrics:
      return "Metrics";
    case MessageType::kPong:
      return "Pong";
    default:
      return nullptr;
  }
}

}  // namespace

std::string_view WireCodeToString(WireCode code) {
  switch (code) {
    case WireCode::kOk:
      return "Ok";
    case WireCode::kInvalidArgument:
      return "InvalidArgument";
    case WireCode::kNotFound:
      return "NotFound";
    case WireCode::kOutOfRange:
      return "OutOfRange";
    case WireCode::kFailedPrecondition:
      return "FailedPrecondition";
    case WireCode::kUnimplemented:
      return "Unimplemented";
    case WireCode::kInternal:
      return "Internal";
    case WireCode::kDeadlineExceeded:
      return "DeadlineExceeded";
    case WireCode::kUnavailable:
      return "Unavailable";
    case WireCode::kOverloaded:
      return "Overloaded";
    case WireCode::kBadFrame:
      return "BadFrame";
    case WireCode::kVersionMismatch:
      return "VersionMismatch";
    case WireCode::kShuttingDown:
      return "ShuttingDown";
  }
  return "UnknownWireCode";
}

WireCode WireCodeFromStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return WireCode::kOk;
    case StatusCode::kInvalidArgument:
      return WireCode::kInvalidArgument;
    case StatusCode::kNotFound:
      return WireCode::kNotFound;
    case StatusCode::kOutOfRange:
      return WireCode::kOutOfRange;
    case StatusCode::kFailedPrecondition:
      return WireCode::kFailedPrecondition;
    case StatusCode::kUnimplemented:
      return WireCode::kUnimplemented;
    case StatusCode::kInternal:
      return WireCode::kInternal;
    case StatusCode::kDeadlineExceeded:
      return WireCode::kDeadlineExceeded;
    case StatusCode::kUnavailable:
      return WireCode::kUnavailable;
  }
  return WireCode::kInternal;
}

Status StatusFromWireCode(WireCode code, std::string_view message) {
  const std::string msg(message);
  switch (code) {
    case WireCode::kOk:
      return Status::OK();
    case WireCode::kInvalidArgument:
      return Status::InvalidArgument(msg);
    case WireCode::kNotFound:
      return Status::NotFound(msg);
    case WireCode::kOutOfRange:
      return Status::OutOfRange(msg);
    case WireCode::kFailedPrecondition:
      return Status::FailedPrecondition(msg);
    case WireCode::kUnimplemented:
      return Status::Unimplemented(msg);
    case WireCode::kInternal:
      return Status::Internal(msg);
    case WireCode::kDeadlineExceeded:
      return Status::DeadlineExceeded(msg);
    case WireCode::kUnavailable:
      return Status::Unavailable(msg);
    default:
      return Status::FailedPrecondition(
          std::string(WireCodeToString(code)) +
          (msg.empty() ? "" : ": " + msg));
  }
}

// --- Encoding --------------------------------------------------------------

void AppendFrame(MessageType type, std::string_view payload,
                 std::string* out) {
  FLOOD_CHECK(payload.size() <= kMaxPayloadBytes);
  ByteWriter w(out);
  w.PutU32(kWireMagic);
  w.PutU8(kWireVersion);
  w.PutU8(static_cast<uint8_t>(type));
  w.PutU8(0);
  w.PutU8(0);
  w.PutU32(static_cast<uint32_t>(payload.size()));
  w.PutU32(Crc32(payload.data(), payload.size()));
  w.PutBytes(payload.data(), payload.size());
}

void AppendRequestId(MessageType type, const RequestIdMessage& msg,
                     std::string* out) {
  FLOOD_CHECK(RequestIdMessageName(type) != nullptr);
  AppendWith(type, out, [&](ByteWriter* w) { w->PutU64(msg.request_id); });
}

void AppendRunBatch(const RunBatchRequest& req, std::string* out) {
  AppendWith(MessageType::kRunBatch, out, [&](ByteWriter* w) {
    w->PutU64(req.request_id);
    w->PutU32(static_cast<uint32_t>(req.queries.size()));
    for (const Query& q : req.queries) PutQuery(q, w);
  });
}

void AppendInsert(const InsertRequest& req, std::string* out) {
  AppendWith(MessageType::kInsert, out, [&](ByteWriter* w) {
    w->PutU64(req.request_id);
    PutRow(req.row, w);
  });
}

void AppendInsertBatch(const InsertBatchRequest& req, std::string* out) {
  AppendWith(MessageType::kInsertBatch, out, [&](ByteWriter* w) {
    w->PutU64(req.request_id);
    w->PutU32(static_cast<uint32_t>(req.rows.size()));
    for (const std::vector<Value>& row : req.rows) PutRow(row, w);
  });
}

void AppendDelete(const DeleteRequest& req, std::string* out) {
  AppendWith(MessageType::kDelete, out, [&](ByteWriter* w) {
    w->PutU64(req.request_id);
    PutRow(req.key, w);
  });
}

void AppendHealthResult(const HealthResponse& resp, std::string* out) {
  AppendWith(MessageType::kHealthResult, out, [&](ByteWriter* w) {
    w->PutU64(resp.request_id);
    w->PutU8(resp.ready ? 1 : 0);
    w->PutU8(resp.draining ? 1 : 0);
    w->PutU8(resp.persist_poisoned ? 1 : 0);
    w->PutU64(resp.queue_depth);
    w->PutU64(resp.connections_active);
  });
}

void AppendBatchResult(const BatchResultResponse& resp, std::string* out) {
  AppendWith(MessageType::kBatchResult, out, [&](ByteWriter* w) {
    w->PutU64(resp.request_id);
    w->PutU8(static_cast<uint8_t>(resp.code));
    w->PutString(resp.message);
    w->PutF64(resp.server_wall_ms);
    w->PutU32(static_cast<uint32_t>(resp.results.size()));
    for (const WireQueryResult& r : resp.results) {
      w->PutU8(r.kind);
      w->PutU8(r.skipped_empty ? 1 : 0);
      w->PutU64(r.count);
      w->PutI64(r.sum);
      w->PutU64(r.total_ns);
    }
  });
}

void AppendWriteAck(const WriteAckResponse& resp, std::string* out) {
  AppendWith(MessageType::kWriteAck, out, [&](ByteWriter* w) {
    w->PutU64(resp.request_id);
    w->PutU8(static_cast<uint8_t>(resp.code));
    w->PutString(resp.message);
    w->PutU64(resp.deleted);
  });
}

void AppendMetricsResult(const MetricsResponse& resp, std::string* out) {
  AppendWith(MessageType::kMetricsResult, out, [&](ByteWriter* w) {
    w->PutU64(resp.request_id);
    w->PutU32(static_cast<uint32_t>(resp.metrics.size()));
    for (const obs::MetricSnapshot& m : resp.metrics) {
      w->PutString(m.name);
      w->PutString(m.help);
      w->PutU64(m.hist.count);
      w->PutI64(m.hist.sum);
      w->PutI64(m.hist.max);
      // Sparse buckets: (index, count) pairs for non-empty buckets only
      // — a fresh histogram costs 4 bytes, never kNumBuckets * 8.
      uint32_t nonempty = 0;
      for (uint64_t c : m.hist.buckets) nonempty += c != 0 ? 1 : 0;
      w->PutU32(nonempty);
      for (uint32_t i = 0; i < obs::kNumBuckets; ++i) {
        if (m.hist.buckets[i] == 0) continue;
        w->PutU32(i);
        w->PutU64(m.hist.buckets[i]);
      }
    }
    w->PutU32(static_cast<uint32_t>(resp.entries.size()));
    for (const auto& [key, value] : resp.entries) {
      w->PutString(key);
      w->PutF64(value);
    }
  });
}

void AppendError(const ErrorResponse& resp, std::string* out) {
  AppendWith(MessageType::kError, out, [&](ByteWriter* w) {
    w->PutU64(resp.request_id);
    w->PutU8(static_cast<uint8_t>(resp.code));
    w->PutString(resp.message);
  });
}

// --- Decoding --------------------------------------------------------------

StatusOr<RequestIdMessage> ParseRequestId(MessageType type,
                                          std::string_view payload) {
  const char* name = RequestIdMessageName(type);
  if (name == nullptr) {
    return Status::InvalidArgument(
        "message type " + std::to_string(static_cast<int>(type)) +
        " carries more than a request id");
  }
  ByteReader r(payload);
  RequestIdMessage msg;
  msg.request_id = r.GetU64();
  return Finish(r, msg, name);
}

StatusOr<RunBatchRequest> ParseRunBatch(std::string_view payload) {
  ByteReader r(payload);
  RunBatchRequest req;
  req.request_id = r.GetU64();
  const uint32_t n = r.GetU32();
  // >= 9 bytes per query (empty query): bounds the reserve.
  if (static_cast<size_t>(n) * 9 > r.remaining()) {
    return ParseFailed("RunBatch");
  }
  req.queries.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    if (!GetQuery(&r, &req.queries[i])) return ParseFailed("RunBatch");
  }
  return Finish(r, std::move(req), "RunBatch");
}

StatusOr<InsertRequest> ParseInsert(std::string_view payload) {
  ByteReader r(payload);
  InsertRequest req;
  req.request_id = r.GetU64();
  if (!GetRow(&r, &req.row)) return ParseFailed("Insert");
  return Finish(r, std::move(req), "Insert");
}

StatusOr<InsertBatchRequest> ParseInsertBatch(std::string_view payload) {
  ByteReader r(payload);
  InsertBatchRequest req;
  req.request_id = r.GetU64();
  const uint32_t n = r.GetU32();
  if (static_cast<size_t>(n) * 4 > r.remaining()) {
    return ParseFailed("InsertBatch");
  }
  req.rows.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    if (!GetRow(&r, &req.rows[i])) return ParseFailed("InsertBatch");
  }
  return Finish(r, std::move(req), "InsertBatch");
}

StatusOr<DeleteRequest> ParseDelete(std::string_view payload) {
  ByteReader r(payload);
  DeleteRequest req;
  req.request_id = r.GetU64();
  if (!GetRow(&r, &req.key)) return ParseFailed("Delete");
  return Finish(r, std::move(req), "Delete");
}

StatusOr<MetricsResponse> ParseMetricsResult(std::string_view payload) {
  ByteReader r(payload);
  MetricsResponse resp;
  resp.request_id = r.GetU64();
  const uint32_t num_metrics = r.GetU32();
  // >= 36 bytes per metric (two empty strings, count, sum, max, and a
  // zero bucket count).
  if (static_cast<size_t>(num_metrics) * 36 > r.remaining()) {
    return ParseFailed("MetricsResult");
  }
  resp.metrics.resize(num_metrics);
  for (uint32_t i = 0; i < num_metrics; ++i) {
    obs::MetricSnapshot& m = resp.metrics[i];
    m.name = r.GetString();
    m.help = r.GetString();
    m.hist.count = r.GetU64();
    m.hist.sum = r.GetI64();
    m.hist.max = r.GetI64();
    const uint32_t nonempty = r.GetU32();
    // 12 bytes per sparse bucket (u32 index, u64 count).
    if (static_cast<size_t>(nonempty) * 12 > r.remaining()) {
      return ParseFailed("MetricsResult");
    }
    for (uint32_t b = 0; b < nonempty; ++b) {
      const uint32_t idx = r.GetU32();
      const uint64_t count = r.GetU64();
      if (idx >= obs::kNumBuckets || count == 0) {
        return ParseFailed("MetricsResult");
      }
      m.hist.buckets[idx] = count;
    }
  }
  const uint32_t num_entries = r.GetU32();
  // >= 12 bytes per entry (empty key).
  if (static_cast<size_t>(num_entries) * 12 > r.remaining()) {
    return ParseFailed("MetricsResult");
  }
  resp.entries.resize(num_entries);
  for (uint32_t i = 0; i < num_entries; ++i) {
    resp.entries[i].first = r.GetString();
    resp.entries[i].second = r.GetF64();
  }
  return Finish(r, std::move(resp), "MetricsResult");
}

StatusOr<HealthResponse> ParseHealthResult(std::string_view payload) {
  ByteReader r(payload);
  HealthResponse resp;
  resp.request_id = r.GetU64();
  const uint8_t ready = r.GetU8();
  const uint8_t draining = r.GetU8();
  const uint8_t poisoned = r.GetU8();
  resp.queue_depth = r.GetU64();
  resp.connections_active = r.GetU64();
  if (ready > 1 || draining > 1 || poisoned > 1) {
    return ParseFailed("HealthResult");
  }
  resp.ready = ready != 0;
  resp.draining = draining != 0;
  resp.persist_poisoned = poisoned != 0;
  return Finish(r, std::move(resp), "HealthResult");
}

StatusOr<BatchResultResponse> ParseBatchResult(std::string_view payload) {
  ByteReader r(payload);
  BatchResultResponse resp;
  resp.request_id = r.GetU64();
  resp.code = GetWireCode(&r);
  resp.message = r.GetString();
  resp.server_wall_ms = r.GetF64();
  const uint32_t n = r.GetU32();
  // 26 bytes per result record (u8 kind, u8 skipped, u64, i64, u64).
  if (static_cast<size_t>(n) * 26 > r.remaining()) {
    return ParseFailed("BatchResult");
  }
  resp.results.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    WireQueryResult& res = resp.results[i];
    res.kind = r.GetU8();
    const uint8_t skipped_empty = r.GetU8();
    res.count = r.GetU64();
    res.sum = r.GetI64();
    res.total_ns = r.GetU64();
    if (res.kind > 1 || skipped_empty > 1) return ParseFailed("BatchResult");
    res.skipped_empty = skipped_empty != 0;
  }
  return Finish(r, std::move(resp), "BatchResult");
}

StatusOr<WriteAckResponse> ParseWriteAck(std::string_view payload) {
  ByteReader r(payload);
  WriteAckResponse resp;
  resp.request_id = r.GetU64();
  resp.code = GetWireCode(&r);
  resp.message = r.GetString();
  resp.deleted = r.GetU64();
  return Finish(r, std::move(resp), "WriteAck");
}

StatusOr<ErrorResponse> ParseError(std::string_view payload) {
  ByteReader r(payload);
  ErrorResponse resp;
  resp.request_id = r.GetU64();
  resp.code = GetWireCode(&r);
  // An error that says Ok is no error: a reader would take it for success.
  if (resp.code == WireCode::kOk) r.MarkFailed();
  resp.message = r.GetString();
  return Finish(r, std::move(resp), "Error");
}

// --- Frame assembly --------------------------------------------------------

void FrameAssembler::Feed(const void* data, size_t n) {
  if (bad_) return;  // Poisoned: the connection is dying anyway.
  buffer_.append(static_cast<const char*>(data), n);
}

void FrameAssembler::Poison(WireCode code, std::string message) {
  bad_ = true;
  error_code_ = code;
  error_ = std::move(message);
  buffer_.clear();
  consumed_ = 0;
}

FrameAssembler::Result FrameAssembler::Next(Frame* frame) {
  if (bad_) return Result::kBad;
  // Compact lazily: drop the consumed prefix once it dominates the buffer,
  // so a pipelining client doesn't trigger an O(n^2) erase-per-frame.
  if (consumed_ > 4096 && consumed_ * 2 > buffer_.size()) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  const size_t avail = buffer_.size() - consumed_;
  if (avail < kFrameHeaderBytes) return Result::kNeedMore;

  ByteReader header(buffer_.data() + consumed_, kFrameHeaderBytes);
  const uint32_t magic = header.GetU32();
  const uint8_t version = header.GetU8();
  const uint8_t type = header.GetU8();
  header.GetU8();  // reserved
  header.GetU8();
  const uint32_t payload_len = header.GetU32();
  const uint32_t payload_crc = header.GetU32();

  if (magic != kWireMagic) {
    Poison(WireCode::kBadFrame, "bad frame magic (stream desynchronized?)");
    return Result::kBad;
  }
  if (version != kWireVersion) {
    Poison(WireCode::kVersionMismatch,
           "peer speaks protocol version " + std::to_string(version) +
               ", this build speaks " + std::to_string(kWireVersion));
    return Result::kBad;
  }
  if (payload_len > kMaxPayloadBytes) {
    Poison(WireCode::kBadFrame,
           "frame payload length " + std::to_string(payload_len) +
               " exceeds the " + std::to_string(kMaxPayloadBytes) +
               "-byte cap");
    return Result::kBad;
  }
  if (avail < kFrameHeaderBytes + payload_len) return Result::kNeedMore;

  const char* payload = buffer_.data() + consumed_ + kFrameHeaderBytes;
  if (Crc32(payload, payload_len) != payload_crc) {
    Poison(WireCode::kBadFrame, "frame payload CRC mismatch");
    return Result::kBad;
  }
  frame->type = static_cast<MessageType>(type);
  frame->payload.assign(payload, payload_len);
  consumed_ += kFrameHeaderBytes + payload_len;
  return Result::kFrame;
}

}  // namespace serve
}  // namespace flood
