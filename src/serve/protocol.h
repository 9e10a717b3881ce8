#ifndef FLOOD_SERVE_PROTOCOL_H_
#define FLOOD_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "query/query.h"
#include "storage/column.h"

namespace flood {
namespace serve {

// ---------------------------------------------------------------------------
// Wire format (see src/serve/README.md for the full byte layout).
//
// Every message travels as one frame:
//
//   offset  size  field
//   0       4     magic        0x464C4457 ("WDLF" on the wire, LE)
//   4       1     version      kWireVersion
//   5       1     type         MessageType
//   6       2     reserved     0
//   8       4     payload_len  <= kMaxPayloadBytes
//   12      4     payload_crc  CRC-32 (IEEE) of the payload bytes
//   16      n     payload      type-specific body, ByteWriter-encoded
//
// The fixed header is validated before the payload is buffered (so an
// oversized or garbage length prefix can never balloon memory), and the
// CRC is validated before the payload is parsed. All integers are
// little-endian via common/bytes.h; truncated or corrupt payloads poison
// the bounds-latching ByteReader and are rejected with a typed error —
// never UB, never a crash.
// ---------------------------------------------------------------------------

inline constexpr uint32_t kWireMagic = 0x464C4457;  // "FLDW"
/// Version 2: kMetricsResult records carry histograms only (no kind byte,
/// no scalar value). Version 3: the Stats request and response (types
/// 0x06/0x84) are gone; kMetricsResult carries the same flat entries.
inline constexpr uint8_t kWireVersion = 3;
inline constexpr size_t kFrameHeaderBytes = 16;
/// Hard per-frame payload cap: a length prefix above this is treated as
/// stream corruption, not an allocation request.
inline constexpr uint32_t kMaxPayloadBytes = 32u << 20;
/// Sanity cap on query arity over the wire (far above any real table).
inline constexpr uint32_t kMaxWireDims = 1u << 16;

/// Frame/message type. Requests have the high bit clear, responses set.
enum class MessageType : uint8_t {
  kPing = 0x01,
  kRunBatch = 0x02,
  kInsert = 0x03,
  kInsertBatch = 0x04,
  kDelete = 0x05,
  kHealth = 0x07,
  kMetrics = 0x08,

  kPong = 0x81,
  kBatchResult = 0x82,
  kWriteAck = 0x83,
  kHealthResult = 0x85,
  kMetricsResult = 0x86,
  kError = 0x8F,
};

/// Typed status carried in responses. The low values mirror StatusCode;
/// the high values are serving-layer conditions with no library analogue.
enum class WireCode : uint8_t {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kOutOfRange = 3,
  kFailedPrecondition = 4,
  kUnimplemented = 5,
  kInternal = 6,
  /// A per-operation deadline elapsed (client-side; never sent by the
  /// server).
  kDeadlineExceeded = 7,
  /// Transiently unreachable/refusing; retry-safe for idempotent work.
  kUnavailable = 8,
  /// Admission control shed this request: the server's bounded submission
  /// queue (or this connection's in-flight cap) was full. Retry later;
  /// nothing was executed.
  kOverloaded = 16,
  /// The frame failed structural validation (magic/length/CRC/parse); the
  /// server closes the connection after sending this.
  kBadFrame = 17,
  /// The frame's protocol version is not kWireVersion; connection closed.
  kVersionMismatch = 18,
  /// The server is draining (SIGTERM): no new work is admitted, in-flight
  /// work still completes and its responses still flush.
  kShuttingDown = 19,
};

std::string_view WireCodeToString(WireCode code);

WireCode WireCodeFromStatus(const Status& status);
/// Serving-layer codes (kOverloaded, ...) map to FailedPrecondition with
/// the wire-code name prefixed to the message.
Status StatusFromWireCode(WireCode code, std::string_view message);

// --- Request bodies --------------------------------------------------------
// Every request carries a client-chosen request_id echoed verbatim in the
// response; clients that pipeline frames MUST match replies by id, not by
// order. Ping/Health/Metrics/writes are answered from the event loop immediately
// (that's what keeps Ping responsive while batches queue), and separately
// submitted batch groups complete in pool order, so responses can
// interleave across — and within — message types.

/// The body of every message that carries only its request id: the
/// kPing, kHealth and kMetrics requests and the kPong response. kHealth is
/// the readiness probe for load balancers; kMetrics asks for the full
/// metrics snapshot (every registry histogram with its buckets, plus the
/// flat Introspect() map that carries every count). All three are answered
/// inline from the event loop, including while draining.
struct RequestIdMessage {
  uint64_t request_id = 0;
};

struct RunBatchRequest {
  uint64_t request_id = 0;
  std::vector<Query> queries;
};

struct InsertRequest {
  uint64_t request_id = 0;
  std::vector<Value> row;
};

struct InsertBatchRequest {
  uint64_t request_id = 0;
  std::vector<std::vector<Value>> rows;
};

struct DeleteRequest {
  uint64_t request_id = 0;
  std::vector<Value> key;
};

// --- Response bodies -------------------------------------------------------

/// One query's aggregate result, bit-exact: count/sum are the same
/// integers an in-process RunBatch produces.
struct WireQueryResult {
  uint8_t kind = 0;  ///< 0 = COUNT, 1 = SUM.
  bool skipped_empty = false;
  uint64_t count = 0;
  int64_t sum = 0;
  uint64_t total_ns = 0;  ///< Server-side end-to-end time for this query.
};

struct BatchResultResponse {
  uint64_t request_id = 0;
  WireCode code = WireCode::kOk;
  std::string message;  ///< Empty on kOk.
  std::vector<WireQueryResult> results;
  double server_wall_ms = 0.0;  ///< Wall time of the enclosing server batch.
};

struct WriteAckResponse {
  uint64_t request_id = 0;
  WireCode code = WireCode::kOk;
  std::string message;
  uint64_t deleted = 0;  ///< Rows deleted (kDelete only).
};

/// Server health for routing decisions. `ready` means new work is being
/// admitted (not draining); `persist_poisoned` means durability is degraded
/// (a checkpoint failed or the WAL detached) while reads keep serving —
/// route writes elsewhere, reads are fine.
struct HealthResponse {
  uint64_t request_id = 0;
  bool ready = false;
  bool draining = false;
  bool persist_poisoned = false;
  uint64_t queue_depth = 0;
  uint64_t connections_active = 0;
};

/// The kMetricsResult body: the registry histograms (each travels with
/// its non-empty buckets, sum, count, and exact max) plus the flat
/// Introspect() map — so one round-trip carries everything the
/// Prometheus endpoint exposes, in binary.
struct MetricsResponse {
  uint64_t request_id = 0;
  std::vector<obs::MetricSnapshot> metrics;
  /// Flat introspection map: serve.* counters + db.* / router.* gauges
  /// (the same key->double shape as MultiDimIndex::DebugProperties).
  std::vector<std::pair<std::string, double>> entries;
};

struct ErrorResponse {
  uint64_t request_id = 0;  ///< 0 when the offending frame had no id.
  WireCode code = WireCode::kBadFrame;
  std::string message;
};

// --- Encoding --------------------------------------------------------------
// Each Append* encodes one complete frame (header + payload) onto `out`.
// Encoders never fail; oversized payloads are impossible by construction
// for every real table (kMaxPayloadBytes is checked with FLOOD_CHECK).

void AppendFrame(MessageType type, std::string_view payload,
                 std::string* out);

/// `type` must be kPing, kHealth, kMetrics or kPong.
void AppendRequestId(MessageType type, const RequestIdMessage& msg,
                     std::string* out);
void AppendRunBatch(const RunBatchRequest& req, std::string* out);
void AppendInsert(const InsertRequest& req, std::string* out);
void AppendInsertBatch(const InsertBatchRequest& req, std::string* out);
void AppendDelete(const DeleteRequest& req, std::string* out);

void AppendBatchResult(const BatchResultResponse& resp, std::string* out);
void AppendWriteAck(const WriteAckResponse& resp, std::string* out);
void AppendHealthResult(const HealthResponse& resp, std::string* out);
void AppendMetricsResult(const MetricsResponse& resp, std::string* out);
void AppendError(const ErrorResponse& resp, std::string* out);

// --- Decoding --------------------------------------------------------------
// Parsers take one validated frame payload. They fail with
// InvalidArgument (never crash, never over-read) on truncated or
// semantically impossible bodies — the CRC already passed, so a parse
// failure means a buggy or malicious peer, and the connection is closed.

/// Fails for a `type` other than kPing, kHealth, kMetrics or kPong.
StatusOr<RequestIdMessage> ParseRequestId(MessageType type,
                                          std::string_view payload);
StatusOr<RunBatchRequest> ParseRunBatch(std::string_view payload);
StatusOr<InsertRequest> ParseInsert(std::string_view payload);
StatusOr<InsertBatchRequest> ParseInsertBatch(std::string_view payload);
StatusOr<DeleteRequest> ParseDelete(std::string_view payload);

StatusOr<BatchResultResponse> ParseBatchResult(std::string_view payload);
StatusOr<WriteAckResponse> ParseWriteAck(std::string_view payload);
StatusOr<HealthResponse> ParseHealthResult(std::string_view payload);
StatusOr<MetricsResponse> ParseMetricsResult(std::string_view payload);
StatusOr<ErrorResponse> ParseError(std::string_view payload);

// --- Frame assembly --------------------------------------------------------

/// One complete, CRC-validated frame off the stream.
struct Frame {
  MessageType type = MessageType::kPing;
  std::string payload;
};

/// Incremental frame decoder over a byte stream delivered in arbitrary
/// chunks (partial reads, multiple frames per read). Feed() appends raw
/// socket bytes; Next() pops complete frames. The first structural error
/// (bad magic, unknown version, oversized length, CRC mismatch) latches
/// the assembler into a poisoned state — error_code()/error() say why, and
/// the owner terminates the connection; bytes after the error are never
/// interpreted (one corrupt frame cannot smuggle a later "valid" one).
class FrameAssembler {
 public:
  enum class Result {
    kFrame,     ///< *frame was filled with the next complete frame.
    kNeedMore,  ///< No complete frame buffered yet; Feed() more bytes.
    kBad,       ///< Stream poisoned; see error_code()/error().
  };

  void Feed(const void* data, size_t n);
  Result Next(Frame* frame);

  bool bad() const { return bad_; }
  WireCode error_code() const { return error_code_; }
  const std::string& error() const { return error_; }
  /// Bytes buffered but not yet consumed (bounded by one frame + one read).
  size_t buffered_bytes() const { return buffer_.size() - consumed_; }

 private:
  void Poison(WireCode code, std::string message);

  std::string buffer_;
  size_t consumed_ = 0;  ///< Prefix of buffer_ already handed out.
  bool bad_ = false;
  WireCode error_code_ = WireCode::kOk;
  std::string error_;
};

}  // namespace serve
}  // namespace flood

#endif  // FLOOD_SERVE_PROTOCOL_H_
