// Wire-protocol unit tests: encode/parse round-trips for every message
// type, frame assembly from arbitrary chunkings, and the fuzz battery the
// serving tier's safety story rests on — truncation, flipped CRC bits,
// oversized length prefixes, version mismatches, and garbage mid-stream
// must all produce a *typed* rejection (FrameAssembler poison or a parse
// error), never a crash, never an over-read, never a giant allocation.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "query/query.h"
#include "serve/metrics_summary.h"
#include "serve/protocol.h"

namespace flood {
namespace serve {
namespace {

Query MakeQuery(uint64_t seed) {
  Rng rng(seed);
  const size_t dims = 1 + seed % 5;
  Query q(dims);
  for (size_t d = 0; d < dims; ++d) {
    Value a = rng.UniformInt(-1'000'000, 1'000'000);
    Value b = rng.UniformInt(-1'000'000, 1'000'000);
    if (a > b) std::swap(a, b);
    q.SetRange(d, a, b);
  }
  if (seed % 2 == 0) {
    q.set_agg({AggSpec::Kind::kSum, seed % dims});
  }
  return q;
}

/// Feeds `bytes` to a fresh assembler and pops every frame.
std::vector<Frame> Assemble(const std::string& bytes, bool* bad = nullptr) {
  FrameAssembler fa;
  fa.Feed(bytes.data(), bytes.size());
  std::vector<Frame> frames;
  Frame f;
  for (;;) {
    const FrameAssembler::Result r = fa.Next(&f);
    if (r == FrameAssembler::Result::kFrame) {
      frames.push_back(f);
      continue;
    }
    if (bad != nullptr) *bad = r == FrameAssembler::Result::kBad;
    break;
  }
  return frames;
}

// --- Round-trips -----------------------------------------------------------

TEST(ServeProtocolTest, PingRoundTrip) {
  std::string out;
  AppendPing({77}, &out);
  const std::vector<Frame> frames = Assemble(out);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, MessageType::kPing);
  const StatusOr<PingRequest> req = ParsePing(frames[0].payload);
  ASSERT_TRUE(req.ok());
  EXPECT_EQ(req->request_id, 77u);
}

TEST(ServeProtocolTest, RunBatchRoundTripPreservesQueries) {
  RunBatchRequest req;
  req.request_id = 42;
  for (uint64_t s = 1; s <= 17; ++s) req.queries.push_back(MakeQuery(s));
  std::string out;
  AppendRunBatch(req, &out);
  const std::vector<Frame> frames = Assemble(out);
  ASSERT_EQ(frames.size(), 1u);
  const StatusOr<RunBatchRequest> parsed = ParseRunBatch(frames[0].payload);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->request_id, 42u);
  ASSERT_EQ(parsed->queries.size(), req.queries.size());
  for (size_t i = 0; i < req.queries.size(); ++i) {
    const Query& a = req.queries[i];
    const Query& b = parsed->queries[i];
    ASSERT_EQ(a.num_dims(), b.num_dims());
    for (size_t d = 0; d < a.num_dims(); ++d) {
      EXPECT_EQ(a.range(d).lo, b.range(d).lo);
      EXPECT_EQ(a.range(d).hi, b.range(d).hi);
    }
    EXPECT_EQ(a.agg().kind, b.agg().kind);
    if (a.agg().kind == AggSpec::Kind::kSum) {
      EXPECT_EQ(a.agg().dim, b.agg().dim);
    }
  }
}

TEST(ServeProtocolTest, WriteRequestsRoundTrip) {
  std::string out;
  AppendInsert({5, {1, -2, 3}}, &out);
  InsertBatchRequest ib;
  ib.request_id = 6;
  ib.rows = {{9, 8, 7}, {-1, -2, -3}, {}};
  AppendInsertBatch(ib, &out);
  AppendDelete({7, {4, 5, 6}}, &out);
  AppendStats({8}, &out);

  const std::vector<Frame> frames = Assemble(out);
  ASSERT_EQ(frames.size(), 4u);

  const StatusOr<InsertRequest> ins = ParseInsert(frames[0].payload);
  ASSERT_TRUE(ins.ok());
  EXPECT_EQ(ins->request_id, 5u);
  EXPECT_EQ(ins->row, (std::vector<Value>{1, -2, 3}));

  const StatusOr<InsertBatchRequest> batch =
      ParseInsertBatch(frames[1].payload);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->rows, ib.rows);

  const StatusOr<DeleteRequest> del = ParseDelete(frames[2].payload);
  ASSERT_TRUE(del.ok());
  EXPECT_EQ(del->key, (std::vector<Value>{4, 5, 6}));

  const StatusOr<StatsRequest> stats = ParseStats(frames[3].payload);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->request_id, 8u);
}

TEST(ServeProtocolTest, BatchResultRoundTripIsBitExact) {
  BatchResultResponse resp;
  resp.request_id = 99;
  resp.server_wall_ms = 12.625;
  resp.results.push_back({0, false, 12345, 0, 1000});
  resp.results.push_back({1, false, 7, -987654321012345, 2000});
  resp.results.push_back({0, true, 0, 0, 0});
  std::string out;
  AppendBatchResult(resp, &out);
  const std::vector<Frame> frames = Assemble(out);
  ASSERT_EQ(frames.size(), 1u);
  const StatusOr<BatchResultResponse> parsed =
      ParseBatchResult(frames[0].payload);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->request_id, 99u);
  EXPECT_EQ(parsed->code, WireCode::kOk);
  EXPECT_EQ(parsed->server_wall_ms, 12.625);
  ASSERT_EQ(parsed->results.size(), 3u);
  EXPECT_EQ(parsed->results[0].count, 12345u);
  EXPECT_EQ(parsed->results[1].sum, -987654321012345);
  EXPECT_EQ(parsed->results[1].kind, 1);
  EXPECT_TRUE(parsed->results[2].skipped_empty);
}

TEST(ServeProtocolTest, ErrorAndAckAndStatsRoundTrip) {
  std::string out;
  AppendError({3, WireCode::kOverloaded, "queue full"}, &out);
  AppendWriteAck({4, WireCode::kOk, "", 17}, &out);
  StatsResponse stats;
  stats.request_id = 5;
  stats.entries = {{"serve.frames_decoded", 12.0}, {"db.num_rows", 1e6}};
  AppendStatsResult(stats, &out);

  const std::vector<Frame> frames = Assemble(out);
  ASSERT_EQ(frames.size(), 3u);
  const StatusOr<ErrorResponse> err = ParseError(frames[0].payload);
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err->code, WireCode::kOverloaded);
  EXPECT_EQ(err->message, "queue full");

  const StatusOr<WriteAckResponse> ack = ParseWriteAck(frames[1].payload);
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack->deleted, 17u);

  const StatusOr<StatsResponse> st = ParseStatsResult(frames[2].payload);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->entries, stats.entries);
}

TEST(ServeProtocolTest, HealthRoundTrip) {
  std::string out;
  AppendHealth({41}, &out);
  HealthResponse resp;
  resp.request_id = 41;
  resp.ready = false;
  resp.draining = true;
  resp.persist_poisoned = true;
  resp.queue_depth = 9;
  resp.connections_active = 3;
  AppendHealthResult(resp, &out);

  const std::vector<Frame> frames = Assemble(out);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, MessageType::kHealth);
  const StatusOr<HealthRequest> req = ParseHealth(frames[0].payload);
  ASSERT_TRUE(req.ok());
  EXPECT_EQ(req->request_id, 41u);

  EXPECT_EQ(frames[1].type, MessageType::kHealthResult);
  const StatusOr<HealthResponse> parsed =
      ParseHealthResult(frames[1].payload);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->request_id, 41u);
  EXPECT_FALSE(parsed->ready);
  EXPECT_TRUE(parsed->draining);
  EXPECT_TRUE(parsed->persist_poisoned);
  EXPECT_EQ(parsed->queue_depth, 9u);
  EXPECT_EQ(parsed->connections_active, 3u);
}

TEST(ServeProtocolTest, MetricsRoundTripPreservesHistogramBuckets) {
  std::string out;
  AppendMetrics({51}, &out);

  MetricsResponse resp;
  resp.request_id = 51;
  obs::MetricSnapshot empty;
  empty.name = "flood_db_batch_ns";
  resp.metrics.push_back(empty);  // A fresh histogram: no buckets at all.
  obs::MetricSnapshot hist;
  hist.name = "flood_db_query_ns";
  hist.help = "per-query latency";
  for (int64_t v : {0, 1, 7, 1000, 123456, 999999999}) hist.hist.Record(v);
  resp.metrics.push_back(hist);
  resp.entries = {{"serve.frames_decoded", 9.0}, {"db.num_rows", -2e6}};
  AppendMetricsResult(resp, &out);

  const std::vector<Frame> frames = Assemble(out);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, MessageType::kMetrics);
  const StatusOr<MetricsRequest> req = ParseMetrics(frames[0].payload);
  ASSERT_TRUE(req.ok());
  EXPECT_EQ(req->request_id, 51u);

  EXPECT_EQ(frames[1].type, MessageType::kMetricsResult);
  const StatusOr<MetricsResponse> parsed =
      ParseMetricsResult(frames[1].payload);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->request_id, 51u);
  ASSERT_EQ(parsed->metrics.size(), 2u);
  EXPECT_EQ(parsed->metrics[0].name, "flood_db_batch_ns");
  EXPECT_EQ(parsed->metrics[0].help, "");
  EXPECT_EQ(parsed->metrics[0].hist.count, 0u);
  EXPECT_EQ(parsed->metrics[0].hist.buckets, empty.hist.buckets);
  EXPECT_EQ(parsed->metrics[1].name, "flood_db_query_ns");
  EXPECT_EQ(parsed->metrics[1].help, "per-query latency");
  const obs::HistogramData& h = parsed->metrics[1].hist;
  EXPECT_EQ(h.count, hist.hist.count);
  EXPECT_EQ(h.sum, hist.hist.sum);
  EXPECT_EQ(h.max, hist.hist.max);
  EXPECT_EQ(h.buckets, hist.hist.buckets);  // Sparse coding is lossless.
  EXPECT_EQ(parsed->entries, resp.entries);
}

using Buckets = std::vector<std::pair<uint32_t, uint64_t>>;

// One histogram record by hand: name "x", no help, count/sum/max, then
// the sparse (index, count) bucket pairs.
std::string MetricsPayload(uint32_t num_metrics, const Buckets& buckets,
                           uint32_t claimed_buckets) {
  std::string payload;
  ByteWriter w(&payload);
  w.PutU64(1);            // request_id
  w.PutU32(num_metrics);  // num_metrics
  w.PutString("x");       // name
  w.PutString("");        // help
  w.PutU64(1);            // count
  w.PutI64(1);            // sum
  w.PutI64(1);            // max
  w.PutU32(claimed_buckets);
  for (const auto& [idx, count] : buckets) {
    w.PutU32(idx);
    w.PutU64(count);
  }
  w.PutU32(0);  // no flat entries
  return payload;
}

TEST(ServeProtocolTest, MetricsResultRejectsTruncationAndBadBuckets) {
  const std::string good = MetricsPayload(1, {{1, 1}}, 1);
  ASSERT_TRUE(ParseMetricsResult(good).ok());
  // Every strict prefix is a truncated payload.
  for (size_t len = 0; len < good.size(); ++len) {
    EXPECT_FALSE(ParseMetricsResult(good.substr(0, len)).ok()) << len;
  }
  // A record count the remaining bytes cannot hold at 36 bytes a record.
  EXPECT_FALSE(ParseMetricsResult(MetricsPayload(2, {{1, 1}}, 1)).ok());
  // A bucket index past the last bucket, and a zero-count sparse bucket.
  const uint32_t past_end = static_cast<uint32_t>(obs::kNumBuckets);
  EXPECT_FALSE(ParseMetricsResult(MetricsPayload(1, {{past_end, 1}}, 1)).ok());
  EXPECT_FALSE(ParseMetricsResult(MetricsPayload(1, {{1, 0}}, 1)).ok());
  // More non-empty buckets claimed than bytes remain.
  EXPECT_FALSE(ParseMetricsResult(MetricsPayload(1, {}, 0x00FFFFFF)).ok());
}

TEST(MetricsSummaryTest, PrintsHistogramsThenEveryFlatEntry) {
  MetricsResponse resp;
  obs::MetricSnapshot query_ns;
  query_ns.name = "flood_db_query_ns";
  for (int64_t v : {1'000'000, 2'000'000, 3'000'000}) query_ns.hist.Record(v);
  resp.metrics.push_back(query_ns);
  obs::MetricSnapshot batch_queries;
  batch_queries.name = "flood_serve_batch_queries";
  batch_queries.hist.Record(12);
  resp.metrics.push_back(batch_queries);
  resp.entries.emplace_back("serve.queries_executed", 42.0);
  resp.entries.emplace_back("serve.frames_decoded", 7.0);
  resp.entries.emplace_back("serve.metrics_scrapes", 3.0);
  resp.entries.emplace_back("db.points_scanned", 1234567890.0);

  const std::string text = FormatMetricsSummary(resp);
  const size_t counts = text.find("-- counts and gauges --\n");
  ASSERT_NE(counts, std::string::npos) << text;
  // Histograms: count, then durations in ms for *_ns and plain values
  // otherwise; the exact max closes the row.
  const size_t query_row = text.find("flood_db_query_ns");
  ASSERT_LT(query_row, counts) << text;
  const std::string row =
      text.substr(query_row, text.find('\n', query_row) - query_row);
  EXPECT_NE(row.find(" 3  "), std::string::npos) << row;
  EXPECT_NE(row.find("3ms"), std::string::npos) << row;
  const size_t batch_row = text.find("flood_serve_batch_queries");
  ASSERT_LT(batch_row, counts) << text;
  EXPECT_NE(text.find("12 / 12 / 12 / 12", batch_row), std::string::npos)
      << text;
  // One `key value` line per flat entry, in order, after the histograms.
  size_t prev = counts;
  for (const auto& [key, value] : resp.entries) {
    const size_t at = text.find("  " + key + " ", prev);
    ASSERT_NE(at, std::string::npos) << key << "\n" << text;
    const size_t eol = text.find('\n', at);
    const std::string line = text.substr(at, eol - at);
    char expected[32];
    std::snprintf(expected, sizeof(expected), " %.0f", value);
    EXPECT_TRUE(line.ends_with(expected)) << line;
    prev = eol;
  }
}

TEST(ServeProtocolTest, HealthResultRejectsNonBooleanFlags) {
  std::string out;
  HealthResponse resp;
  resp.request_id = 1;
  AppendHealthResult(resp, &out);
  const std::vector<Frame> frames = Assemble(out);
  ASSERT_EQ(frames.size(), 1u);
  std::string payload = frames[0].payload;
  ASSERT_GE(payload.size(), 8u + 3u);
  payload[8] = 2;  // First flag byte: not 0/1.
  EXPECT_FALSE(ParseHealthResult(payload).ok());
}

TEST(ServeProtocolTest, WireCodeStatusMappingRoundTrips) {
  EXPECT_EQ(WireCodeFromStatus(Status::OK()), WireCode::kOk);
  EXPECT_EQ(WireCodeFromStatus(Status::InvalidArgument("x")),
            WireCode::kInvalidArgument);
  EXPECT_TRUE(StatusFromWireCode(WireCode::kOk, "").ok());
  const Status overloaded = StatusFromWireCode(WireCode::kOverloaded, "shed");
  EXPECT_FALSE(overloaded.ok());
  EXPECT_NE(overloaded.ToString().find("Overloaded"), std::string::npos);
  const Status deadline =
      StatusFromWireCode(WireCode::kDeadlineExceeded, "slow");
  EXPECT_EQ(deadline.code(), StatusCode::kDeadlineExceeded);
  const Status unavailable = StatusFromWireCode(WireCode::kUnavailable, "no");
  EXPECT_EQ(unavailable.code(), StatusCode::kUnavailable);
  EXPECT_EQ(WireCodeFromStatus(Status::DeadlineExceeded("x")),
            WireCode::kDeadlineExceeded);
  EXPECT_EQ(WireCodeFromStatus(Status::Unavailable("x")),
            WireCode::kUnavailable);
}

// --- Frame assembly --------------------------------------------------------

TEST(ServeProtocolTest, AssemblerHandlesArbitraryChunking) {
  std::string stream;
  AppendPing({1}, &stream);
  RunBatchRequest rb;
  rb.request_id = 2;
  rb.queries = {MakeQuery(3), MakeQuery(4)};
  AppendRunBatch(rb, &stream);
  AppendStats({3}, &stream);

  // Every chunk size from 1 byte up must yield the same three frames.
  for (size_t chunk = 1; chunk <= stream.size(); chunk += 7) {
    FrameAssembler fa;
    std::vector<Frame> frames;
    Frame f;
    for (size_t off = 0; off < stream.size(); off += chunk) {
      fa.Feed(stream.data() + off, std::min(chunk, stream.size() - off));
      while (fa.Next(&f) == FrameAssembler::Result::kFrame) {
        frames.push_back(f);
      }
    }
    ASSERT_EQ(frames.size(), 3u) << "chunk=" << chunk;
    EXPECT_EQ(frames[0].type, MessageType::kPing);
    EXPECT_EQ(frames[1].type, MessageType::kRunBatch);
    EXPECT_EQ(frames[2].type, MessageType::kStats);
  }
}

TEST(ServeProtocolTest, AssemblerCompactionSurvivesManyFrames) {
  // Thousands of small frames through one assembler: the lazy compaction
  // path must not lose or duplicate frames.
  FrameAssembler fa;
  Frame f;
  size_t got = 0;
  for (uint64_t i = 0; i < 5000; ++i) {
    std::string frame;
    AppendPing({i}, &frame);
    fa.Feed(frame.data(), frame.size());
    while (fa.Next(&f) == FrameAssembler::Result::kFrame) {
      const StatusOr<PingRequest> req = ParsePing(f.payload);
      ASSERT_TRUE(req.ok());
      ASSERT_EQ(req->request_id, got);
      ++got;
    }
  }
  EXPECT_EQ(got, 5000u);
  EXPECT_EQ(fa.buffered_bytes(), 0u);
}

// --- Fuzz: corruption must produce typed errors, never UB ------------------

TEST(ServeProtocolFuzzTest, TruncationAtEveryByteNeverCrashes) {
  std::string stream;
  RunBatchRequest rb;
  rb.request_id = 11;
  rb.queries = {MakeQuery(1), MakeQuery(2), MakeQuery(6)};
  AppendRunBatch(rb, &stream);

  for (size_t cut = 0; cut < stream.size(); ++cut) {
    bool bad = false;
    const std::vector<Frame> frames =
        Assemble(stream.substr(0, cut), &bad);
    // A truncated stream yields no frame and no poison — just "need more".
    EXPECT_TRUE(frames.empty());
    EXPECT_FALSE(bad) << "cut=" << cut;
  }
}

TEST(ServeProtocolFuzzTest, EverySingleBitFlipIsRejectedOrDetected) {
  std::string stream;
  RunBatchRequest rb;
  rb.request_id = 13;
  rb.queries = {MakeQuery(5)};
  AppendRunBatch(rb, &stream);

  for (size_t byte = 0; byte < stream.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = stream;
      corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1 << bit));
      bool bad = false;
      const std::vector<Frame> frames = Assemble(corrupt, &bad);
      if (frames.empty()) continue;  // Poisoned or starved: both fine.
      // A frame that still decoded means the flip hit the payload AND the
      // CRC simultaneously — impossible for a single-bit flip.
      ASSERT_EQ(frames.size(), 1u);
      const StatusOr<RunBatchRequest> parsed =
          ParseRunBatch(frames[0].payload);
      // Payload intact implies header-only flip was caught above; the only
      // decodable case is a flip in the reserved bytes, which we accept.
      ASSERT_TRUE(parsed.ok()) << "byte=" << byte << " bit=" << bit;
    }
  }
}

TEST(ServeProtocolFuzzTest, FlippedCrcPoisonsTheStream) {
  std::string stream;
  AppendPing({1}, &stream);
  stream[12] = static_cast<char>(stream[12] ^ 0xFF);  // CRC field.
  bool bad = false;
  const std::vector<Frame> frames = Assemble(stream, &bad);
  EXPECT_TRUE(frames.empty());
  EXPECT_TRUE(bad);

  FrameAssembler fa;
  fa.Feed(stream.data(), stream.size());
  Frame f;
  EXPECT_EQ(fa.Next(&f), FrameAssembler::Result::kBad);
  EXPECT_EQ(fa.error_code(), WireCode::kBadFrame);
  // Poison is sticky: feeding a pristine frame afterwards changes nothing.
  std::string good;
  AppendPing({2}, &good);
  fa.Feed(good.data(), good.size());
  EXPECT_EQ(fa.Next(&f), FrameAssembler::Result::kBad);
}

TEST(ServeProtocolFuzzTest, OversizedLengthPrefixIsRejectedNotAllocated) {
  std::string stream;
  AppendPing({1}, &stream);
  // Rewrite payload_len (offset 8..11) to 4 GiB-ish; the assembler must
  // reject from the header alone instead of waiting for (or allocating)
  // that many bytes.
  stream[8] = static_cast<char>(0xFF);
  stream[9] = static_cast<char>(0xFF);
  stream[10] = static_cast<char>(0xFF);
  stream[11] = static_cast<char>(0x7F);
  FrameAssembler fa;
  fa.Feed(stream.data(), stream.size());
  Frame f;
  EXPECT_EQ(fa.Next(&f), FrameAssembler::Result::kBad);
  EXPECT_EQ(fa.error_code(), WireCode::kBadFrame);
  EXPECT_EQ(fa.buffered_bytes(), 0u);  // Poison dropped the buffer.
}

TEST(ServeProtocolFuzzTest, VersionMismatchIsItsOwnTypedError) {
  std::string stream;
  AppendPing({1}, &stream);
  stream[4] = static_cast<char>(kWireVersion + 1);
  FrameAssembler fa;
  fa.Feed(stream.data(), stream.size());
  Frame f;
  EXPECT_EQ(fa.Next(&f), FrameAssembler::Result::kBad);
  EXPECT_EQ(fa.error_code(), WireCode::kVersionMismatch);
}

TEST(ServeProtocolFuzzTest, GarbageMidStreamPoisonsAfterValidPrefix) {
  std::string stream;
  AppendPing({1}, &stream);
  const size_t good_frames_end = stream.size();
  stream += "this is definitely not a frame header, not even close";

  FrameAssembler fa;
  fa.Feed(stream.data(), stream.size());
  Frame f;
  // The valid prefix still decodes...
  ASSERT_EQ(fa.Next(&f), FrameAssembler::Result::kFrame);
  EXPECT_EQ(f.type, MessageType::kPing);
  // ...then the garbage poisons the stream with a typed code.
  EXPECT_EQ(fa.Next(&f), FrameAssembler::Result::kBad);
  EXPECT_EQ(fa.error_code(), WireCode::kBadFrame);
  EXPECT_TRUE(fa.bad());
  (void)good_frames_end;
}

TEST(ServeProtocolFuzzTest, RandomGarbagePayloadsNeverCrashParsers) {
  // CRC-valid frames wrapping random bytes: every parser must fail
  // gracefully (or, rarely, succeed on an accidentally-valid body) without
  // UB — this is the test ASan/UBSan sharpen.
  Rng rng(2024);
  for (int iter = 0; iter < 500; ++iter) {
    const size_t len = static_cast<size_t>(rng.UniformInt(0, 64));
    std::string payload(len, '\0');
    for (char& c : payload) {
      c = static_cast<char>(rng.UniformInt(0, 255));
    }
    (void)ParsePing(payload);
    (void)ParseRunBatch(payload);
    (void)ParseInsert(payload);
    (void)ParseInsertBatch(payload);
    (void)ParseDelete(payload);
    (void)ParseStats(payload);
    (void)ParsePong(payload);
    (void)ParseBatchResult(payload);
    (void)ParseWriteAck(payload);
    (void)ParseStatsResult(payload);
    (void)ParseHealth(payload);
    (void)ParseHealthResult(payload);
    (void)ParseMetrics(payload);
    (void)ParseMetricsResult(payload);
    (void)ParseError(payload);
  }
}

TEST(ServeProtocolFuzzTest, HugeElementCountsAreRejectedBeforeAllocation) {
  // A RunBatch body claiming 2^31 queries in a 20-byte payload must be
  // rejected by the size sanity check, not by std::bad_alloc.
  std::string payload;
  ByteWriter w(&payload);
  w.PutU64(1);                    // request_id
  w.PutU32(0x7FFFFFFF);           // query count
  w.PutU64(0);                    // a few bytes of "queries"
  EXPECT_FALSE(ParseRunBatch(payload).ok());

  payload.clear();
  ByteWriter w2(&payload);
  w2.PutU64(1);
  w2.PutU32(0x7FFFFFFF);  // row count
  EXPECT_FALSE(ParseInsertBatch(payload).ok());

  // And a query whose num_dims claims more than the payload could hold.
  payload.clear();
  ByteWriter w3(&payload);
  w3.PutU64(1);
  w3.PutU32(1);           // one query
  w3.PutU32(0xFFFF);      // num_dims = 65535, but no range bytes follow
  EXPECT_FALSE(ParseRunBatch(payload).ok());
}

TEST(ServeProtocolFuzzTest, TrailingGarbageInsideValidPayloadIsRejected) {
  // CRC passes (we frame the oversized body ourselves), but the body has
  // extra bytes after a complete Ping — parsers must reject, not ignore.
  std::string payload;
  ByteWriter w(&payload);
  w.PutU64(123);
  w.PutU8(0xAB);  // trailing byte
  EXPECT_FALSE(ParsePing(payload).ok());
}

}  // namespace
}  // namespace serve
}  // namespace flood
