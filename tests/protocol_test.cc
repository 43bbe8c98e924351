// Wire protocol of the query server: frame encoding, request/result
// round trips, incremental frame reassembly, and rejection of malformed
// input (the decoder faces untrusted bytes from the network).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "server/protocol.h"
#include "test_util.h"

namespace rodb {
namespace {

QueryRequest FullRequest() {
  QueryRequest request;
  request.table = "lineitem_col";
  request.scan.projection = {2, 0, 5};
  request.scan.predicates = {
      Predicate::Int32(1, CompareOp::kLt, -42),
      Predicate::Text(3, CompareOp::kEq, "east    "),
      Predicate::Int32(0, CompareOp::kGe, 1000),
  };
  request.mode = QueryMode::kShared;
  request.scan.block_tuples = 4096;
  request.scan.compressed_eval = false;
  request.scan.vectorized = false;
  request.scan.prune = false;
  request.parallelism = 8;
  request.ordered = true;
  request.collect_rows = true;
  request.limit_rows = 123456789;
  request.timeout = std::chrono::milliseconds(2500);
  request.max_retries = 3;
  request.scan.range = ScanRange::Rows(77, 99999);
  return request;
}

TEST(ProtocolTest, QueryRequestRoundTrip) {
  const QueryRequest request = FullRequest();
  std::vector<uint8_t> wire = EncodeQueryRequest(request);
  ASSERT_OK_AND_ASSIGN(QueryRequest decoded,
                       DecodeQueryRequest(wire.data(), wire.size()));

  EXPECT_EQ(decoded.table, request.table);
  EXPECT_EQ(decoded.scan.projection, request.scan.projection);
  ASSERT_EQ(decoded.scan.predicates.size(), request.scan.predicates.size());
  for (size_t i = 0; i < request.scan.predicates.size(); ++i) {
    const Predicate& got = decoded.scan.predicates[i];
    const Predicate& want = request.scan.predicates[i];
    EXPECT_EQ(got.attr_index(), want.attr_index());
    EXPECT_EQ(got.op(), want.op());
    ASSERT_EQ(got.is_text(), want.is_text());
    if (want.is_text()) {
      EXPECT_EQ(got.text_operand(), want.text_operand());
    } else {
      EXPECT_EQ(got.int_operand(), want.int_operand());
    }
  }
  EXPECT_EQ(decoded.mode, request.mode);
  EXPECT_EQ(decoded.scan.block_tuples, request.scan.block_tuples);
  EXPECT_EQ(decoded.scan.compressed_eval, request.scan.compressed_eval);
  EXPECT_EQ(decoded.scan.vectorized, request.scan.vectorized);
  EXPECT_EQ(decoded.scan.prune, request.scan.prune);
  EXPECT_EQ(decoded.parallelism, request.parallelism);
  EXPECT_EQ(decoded.ordered, request.ordered);
  EXPECT_EQ(decoded.collect_rows, request.collect_rows);
  EXPECT_EQ(decoded.limit_rows, request.limit_rows);
  EXPECT_EQ(decoded.timeout, request.timeout);
  EXPECT_EQ(decoded.max_retries, request.max_retries);
  EXPECT_EQ(decoded.scan.range.unit, request.scan.range.unit);
  EXPECT_EQ(decoded.scan.range.first, request.scan.range.first);
  EXPECT_EQ(decoded.scan.range.count, request.scan.range.count);
}

TEST(ProtocolTest, DefaultRequestRoundTrip) {
  QueryRequest request;
  request.table = "t";
  std::vector<uint8_t> wire = EncodeQueryRequest(request);
  ASSERT_OK_AND_ASSIGN(QueryRequest decoded,
                       DecodeQueryRequest(wire.data(), wire.size()));
  EXPECT_EQ(decoded.table, "t");
  EXPECT_TRUE(decoded.scan.projection.empty());
  EXPECT_TRUE(decoded.scan.predicates.empty());
  EXPECT_EQ(decoded.mode, QueryMode::kAuto);
  EXPECT_EQ(decoded.scan.block_tuples, kDefaultBlockTuples);
  EXPECT_TRUE(decoded.scan.prune);
  EXPECT_TRUE(decoded.scan.range.is_all());
  EXPECT_EQ(decoded.timeout.count(), 0);
}

TEST(ProtocolTest, QueryResultRoundTrip) {
  QueryResult result;
  result.rows = 6001215;
  result.blocks = 5867;
  result.output_checksum = 0xdeadbeefcafef00dull;
  result.row_digest = 0x1234567890abcdefull;
  result.shared = true;
  result.attach_position = 524288;
  result.attach_lap = 7;
  result.morsels = 42;
  result.wall_seconds = 1.75;
  result.row_layout = BlockLayout::FromWidths({4, 8});
  result.rows_collected = 2;
  result.row_data = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12,
                     13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24};
  result.snapshot_epoch = 17;
  result.snapshot_tuples = 987654321;

  std::vector<uint8_t> wire = EncodeQueryResult(result);
  ASSERT_OK_AND_ASSIGN(QueryResult decoded,
                       DecodeQueryResult(wire.data(), wire.size()));

  EXPECT_EQ(decoded.rows, result.rows);
  EXPECT_EQ(decoded.blocks, result.blocks);
  EXPECT_EQ(decoded.output_checksum, result.output_checksum);
  EXPECT_EQ(decoded.row_digest, result.row_digest);
  EXPECT_EQ(decoded.shared, result.shared);
  EXPECT_EQ(decoded.attach_position, result.attach_position);
  EXPECT_EQ(decoded.attach_lap, result.attach_lap);
  EXPECT_EQ(decoded.morsels, result.morsels);
  EXPECT_EQ(decoded.wall_seconds, result.wall_seconds);
  EXPECT_EQ(decoded.row_layout.widths, result.row_layout.widths);
  EXPECT_EQ(decoded.row_layout.tuple_width, result.row_layout.tuple_width);
  EXPECT_EQ(decoded.rows_collected, result.rows_collected);
  EXPECT_EQ(decoded.row_data, result.row_data);
  EXPECT_EQ(decoded.snapshot_epoch, result.snapshot_epoch);
  EXPECT_EQ(decoded.snapshot_tuples, result.snapshot_tuples);
}

TEST(ProtocolTest, QueryResultCarriesEveryCounter) {
  // Remote clients model queries from the counters they get back, so
  // every field must survive the wire, not just the headline ones.
  QueryResult result;
  result.counters = testing::DistinctCounters();
  std::vector<uint8_t> wire = EncodeQueryResult(result);
  ASSERT_OK_AND_ASSIGN(QueryResult decoded,
                       DecodeQueryResult(wire.data(), wire.size()));
  const testing::CounterWords sent = testing::ToWords(result.counters);
  const testing::CounterWords got = testing::ToWords(decoded.counters);
  for (size_t i = 0; i < testing::kCounterWords; ++i) {
    EXPECT_EQ(got[i], sent[i]) << "counter field #" << i;
  }
}

// --- ingest frames ---

TEST(ProtocolTest, IngestRequestRoundTrip) {
  IngestRequest request;
  request.table = "stream";
  request.schema_text = "key int32 none\nval int32 bitpack:10\n";
  request.layout = Layout::kPax;
  request.sort_attr = 1;
  request.count = 3;
  request.data = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12,
                  13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24};
  request.freeze = true;
  request.merge = true;

  std::vector<uint8_t> wire = EncodeIngestRequest(request);
  ASSERT_OK_AND_ASSIGN(IngestRequest decoded,
                       DecodeIngestRequest(wire.data(), wire.size()));
  EXPECT_EQ(decoded.table, request.table);
  EXPECT_EQ(decoded.schema_text, request.schema_text);
  EXPECT_EQ(decoded.layout, request.layout);
  EXPECT_EQ(decoded.sort_attr, request.sort_attr);
  EXPECT_EQ(decoded.count, request.count);
  EXPECT_EQ(decoded.data, request.data);
  EXPECT_EQ(decoded.freeze, request.freeze);
  EXPECT_EQ(decoded.merge, request.merge);
}

TEST(ProtocolTest, IngestResultRoundTrip) {
  IngestResult result;
  result.appended_total = 123456789;
  result.epoch = 42;
  result.frozen_segments = 7;
  std::vector<uint8_t> wire = EncodeIngestResult(result);
  ASSERT_OK_AND_ASSIGN(IngestResult decoded,
                       DecodeIngestResult(wire.data(), wire.size()));
  EXPECT_EQ(decoded.appended_total, result.appended_total);
  EXPECT_EQ(decoded.epoch, result.epoch);
  EXPECT_EQ(decoded.frozen_segments, result.frozen_segments);
}

TEST(ProtocolTest, IngestDecodeRejectsMalformedPayloads) {
  IngestRequest request;
  request.table = "t";
  request.count = 1;
  request.data = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<uint8_t> wire = EncodeIngestRequest(request);

  // Truncations and trailing garbage are refused outright.
  for (size_t cut : {wire.size() - 1, wire.size() / 2, size_t{3}}) {
    EXPECT_FALSE(DecodeIngestRequest(wire.data(), cut).ok())
        << "accepted an ingest request truncated to " << cut << " bytes";
  }
  {
    std::vector<uint8_t> trailing = wire;
    trailing.push_back(0);
    EXPECT_FALSE(DecodeIngestRequest(trailing.data(), trailing.size()).ok())
        << "accepted trailing garbage";
  }

  // The layout byte follows table (4+1) + empty schema_text (4).
  {
    std::vector<uint8_t> bad = wire;
    bad[4 + 1 + 4] = static_cast<uint8_t>(Layout::kPax) + 1;
    EXPECT_EQ(DecodeIngestRequest(bad.data(), bad.size()).status().code(),
              StatusCode::kInvalidArgument);
  }

  // The data length (u64) sits just before the 8 data bytes; a length
  // promising more bytes than the payload holds must be rejected.
  {
    std::vector<uint8_t> bad = wire;
    bad[bad.size() - 8 - 8] = 200;
    EXPECT_FALSE(DecodeIngestRequest(bad.data(), bad.size()).ok());
  }

  IngestResult result;
  std::vector<uint8_t> result_wire = EncodeIngestResult(result);
  EXPECT_FALSE(
      DecodeIngestResult(result_wire.data(), result_wire.size() - 1).ok());
  result_wire.push_back(0);
  EXPECT_FALSE(
      DecodeIngestResult(result_wire.data(), result_wire.size()).ok());
}

TEST(ProtocolTest, ErrorRoundTrip) {
  Status original = Status::DeadlineExceeded("lap 3 boundary");
  std::vector<uint8_t> wire = EncodeError(original);
  Status decoded = DecodeError(wire.data(), wire.size());
  EXPECT_EQ(decoded.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(decoded.message(), "lap 3 boundary");
}

// --- frame reassembly ---

TEST(ProtocolTest, FrameReaderReassemblesByteDribble) {
  const QueryRequest request = FullRequest();
  std::vector<uint8_t> frame =
      EncodeFrame(FrameType::kQuery, EncodeQueryRequest(request));

  FrameReader reader;
  FrameReader::Frame out;
  for (size_t i = 0; i < frame.size(); ++i) {
    // Before the last byte lands, Next must keep reporting "not yet".
    ASSERT_OK_AND_ASSIGN(bool ready, reader.Next(&out));
    ASSERT_FALSE(ready) << "frame complete after only " << i << " bytes";
    reader.Feed(&frame[i], 1);
  }
  ASSERT_OK_AND_ASSIGN(bool ready, reader.Next(&out));
  ASSERT_TRUE(ready);
  EXPECT_EQ(out.type, FrameType::kQuery);
  ASSERT_OK_AND_ASSIGN(QueryRequest decoded,
                       DecodeQueryRequest(out.payload.data(),
                                          out.payload.size()));
  EXPECT_EQ(decoded.table, request.table);
}

TEST(ProtocolTest, FrameReaderHandlesBackToBackFrames) {
  std::vector<uint8_t> stream;
  for (int i = 0; i < 3; ++i) {
    QueryRequest request;
    request.table = "t" + std::to_string(i);
    std::vector<uint8_t> frame =
        EncodeFrame(FrameType::kQuery, EncodeQueryRequest(request));
    stream.insert(stream.end(), frame.begin(), frame.end());
  }
  std::vector<uint8_t> ping = EncodeFrame(FrameType::kPing, {});
  stream.insert(stream.end(), ping.begin(), ping.end());

  FrameReader reader;
  reader.Feed(stream.data(), stream.size());
  for (int i = 0; i < 3; ++i) {
    FrameReader::Frame out;
    ASSERT_OK_AND_ASSIGN(bool ready, reader.Next(&out));
    ASSERT_TRUE(ready);
    EXPECT_EQ(out.type, FrameType::kQuery);
    ASSERT_OK_AND_ASSIGN(QueryRequest decoded,
                         DecodeQueryRequest(out.payload.data(),
                                            out.payload.size()));
    EXPECT_EQ(decoded.table, "t" + std::to_string(i));
  }
  FrameReader::Frame out;
  ASSERT_OK_AND_ASSIGN(bool ready, reader.Next(&out));
  ASSERT_TRUE(ready);
  EXPECT_EQ(out.type, FrameType::kPing);
  EXPECT_TRUE(out.payload.empty());
  ASSERT_OK_AND_ASSIGN(bool more, reader.Next(&out));
  EXPECT_FALSE(more);
}

TEST(ProtocolTest, FrameReaderRejectsZeroLengthFrame) {
  const uint8_t bytes[4] = {0, 0, 0, 0};
  FrameReader reader;
  reader.Feed(bytes, sizeof(bytes));
  FrameReader::Frame out;
  EXPECT_EQ(reader.Next(&out).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ProtocolTest, FrameReaderRejectsOversizedFrame) {
  uint8_t bytes[4];
  StoreLE32(bytes, kMaxFrameBytes + 1);
  FrameReader reader;
  reader.Feed(bytes, sizeof(bytes));
  FrameReader::Frame out;
  EXPECT_EQ(reader.Next(&out).status().code(),
            StatusCode::kInvalidArgument);
}

// --- malformed payloads (decoder hardening) ---

TEST(ProtocolTest, DecodeRejectsBadCompareOp) {
  QueryRequest request;
  request.table = "t";
  request.scan.predicates = {Predicate::Int32(0, CompareOp::kGe, 1)};
  std::vector<uint8_t> wire = EncodeQueryRequest(request);
  // The op byte follows table (4+1) + projection count (4) + predicate
  // count (4) + attr index (4).
  const size_t op_offset = 4 + 1 + 4 + 4 + 4;
  ASSERT_EQ(wire[op_offset], static_cast<uint8_t>(CompareOp::kGe));
  wire[op_offset] = static_cast<uint8_t>(CompareOp::kGe) + 1;
  EXPECT_EQ(DecodeQueryRequest(wire.data(), wire.size()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ProtocolTest, DecodeRejectsBadMode) {
  QueryRequest request;
  request.table = "t";
  std::vector<uint8_t> wire = EncodeQueryRequest(request);
  // Mode byte follows table (4+1) + empty projection (4) + empty
  // predicates (4).
  const size_t mode_offset = 4 + 1 + 4 + 4;
  wire[mode_offset] = static_cast<uint8_t>(QueryMode::kShared) + 1;
  EXPECT_EQ(DecodeQueryRequest(wire.data(), wire.size()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ProtocolTest, DecodeRejectsBadRangeUnit) {
  QueryRequest request;
  request.table = "t";
  std::vector<uint8_t> wire = EncodeQueryRequest(request);
  // The range unit byte sits 17 bytes from the end (u8 + two u64s).
  wire[wire.size() - 17] = 255;
  EXPECT_EQ(DecodeQueryRequest(wire.data(), wire.size()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ProtocolTest, DecodeRejectsTruncatedAndTrailingBytes) {
  const QueryRequest request = FullRequest();
  std::vector<uint8_t> wire = EncodeQueryRequest(request);
  for (size_t cut : {wire.size() - 1, wire.size() / 2, size_t{3}}) {
    EXPECT_FALSE(DecodeQueryRequest(wire.data(), cut).ok())
        << "accepted a request truncated to " << cut << " bytes";
  }
  wire.push_back(0);
  EXPECT_FALSE(DecodeQueryRequest(wire.data(), wire.size()).ok())
      << "accepted trailing garbage";

  QueryResult result;
  result.rows = 10;
  std::vector<uint8_t> result_wire = EncodeQueryResult(result);
  EXPECT_FALSE(
      DecodeQueryResult(result_wire.data(), result_wire.size() - 1).ok());
  result_wire.push_back(0);
  EXPECT_FALSE(
      DecodeQueryResult(result_wire.data(), result_wire.size()).ok());
}

TEST(ProtocolTest, DecodeRejectsLyingRowDataLength) {
  QueryResult result;
  result.rows_collected = 1;
  result.row_layout = BlockLayout::FromWidths({4});
  result.row_data = {1, 2, 3, 4};
  std::vector<uint8_t> wire = EncodeQueryResult(result);
  // The row-data length (u64) sits just before the 4 data bytes, which
  // are followed by the two trailing snapshot u64s; bump it so it
  // promises more bytes than the payload holds.
  const size_t len_offset = wire.size() - 16 - 4 - 8;
  wire[len_offset] = 200;
  EXPECT_FALSE(DecodeQueryResult(wire.data(), wire.size()).ok());
}

// --- fuzz axis: FrameReader and decoders vs. hostile byte streams ---

/// Seeded random byte streams fed in random-sized chunks. The contract
/// under arbitrary input: Next() yields a frame, asks for more bytes,
/// or fails kInvalidArgument -- never anything else, never a crash, and
/// never a read past the fed bytes (ASan enforces the last one). Any
/// frame that does assemble is pushed through every payload decoder,
/// which likewise must return rather than fault.
TEST(ProtocolTest, FrameReaderFuzzRandomByteStreams) {
  for (uint32_t seed = 0; seed < 64; ++seed) {
    std::mt19937 rng(seed);
    std::vector<uint8_t> stream(64 + rng() % 4096);
    for (auto& b : stream) b = static_cast<uint8_t>(rng());
    // Bias a third of the streams toward small plausible LE lengths so
    // the reader assembles garbage frames instead of rejecting the
    // first header outright.
    if (seed % 3 == 0) {
      for (size_t i = 0; i + 4 <= stream.size(); i += 61) {
        StoreLE32(stream.data() + i, 1 + rng() % 128);
      }
    }
    FrameReader reader;
    size_t fed = 0;
    bool dead = false;
    while (fed < stream.size() && !dead) {
      const size_t chunk =
          std::min<size_t>(1 + rng() % 97, stream.size() - fed);
      reader.Feed(stream.data() + fed, chunk);
      fed += chunk;
      for (int pulls = 0; pulls < 4096; ++pulls) {
        FrameReader::Frame frame;
        const auto next = reader.Next(&frame);
        if (!next.ok()) {
          ASSERT_EQ(next.status().code(), StatusCode::kInvalidArgument)
              << "seed " << seed << ": " << next.status().ToString();
          dead = true;
          break;
        }
        if (!*next) break;
        const uint8_t* p = frame.payload.data();
        const size_t n = frame.payload.size();
        (void)DecodeQueryRequest(p, n);
        (void)DecodeQueryResult(p, n);
        (void)DecodeIngestRequest(p, n);
        (void)DecodeIngestResult(p, n);
        (void)DecodeServerHealth(p, n);
        (void)DecodeError(p, n);
      }
    }
  }
}

/// Every frame type truncated at every byte boundary: the reader must
/// keep answering "more bytes needed" (no error, no short frame), then
/// deliver the intact frame once the tail arrives.
TEST(ProtocolTest, FrameReaderFuzzTruncatedFrames) {
  QueryResult result;
  result.rows = 7;
  IngestRequest ingest;
  ingest.table = "t";
  ingest.count = 1;
  ingest.data = {1, 2, 3, 4};
  const std::vector<std::vector<uint8_t>> frames = {
      EncodeFrame(FrameType::kQuery, EncodeQueryRequest(FullRequest())),
      EncodeFrame(FrameType::kResult, EncodeQueryResult(result)),
      EncodeFrame(FrameType::kIngest, EncodeIngestRequest(ingest)),
      EncodeFrame(FrameType::kIngestReply,
                  EncodeIngestResult(IngestResult{})),
      EncodeFrame(FrameType::kHealth, {}),
      EncodeFrame(FrameType::kHealthReply,
                  EncodeServerHealth(ServerHealth{})),
      EncodeFrame(FrameType::kError, EncodeError(Status::Unavailable("x"))),
      EncodeFrame(FrameType::kPing, {}),
  };
  for (const auto& frame : frames) {
    for (size_t cut = 0; cut < frame.size(); ++cut) {
      FrameReader reader;
      reader.Feed(frame.data(), cut);
      FrameReader::Frame out;
      ASSERT_OK_AND_ASSIGN(bool ready, reader.Next(&out));
      ASSERT_FALSE(ready) << "frame of " << frame.size()
                          << " bytes completed after only " << cut;
      reader.Feed(frame.data() + cut, frame.size() - cut);
      ASSERT_OK_AND_ASSIGN(bool whole, reader.Next(&out));
      ASSERT_TRUE(whole);
      EXPECT_EQ(out.payload.size(), frame.size() - 5);
    }
  }
}

/// Payload truncation with a consistent header must surface as a
/// decoder error at every cut point -- never a crash or an accept.
TEST(ProtocolTest, DecodersRejectEveryPayloadTruncation) {
  QueryResult result;
  result.rows_collected = 1;
  result.row_layout = BlockLayout::FromWidths({4});
  result.row_data = {9, 9, 9, 9};
  IngestRequest ingest;
  ingest.table = "events";
  ingest.schema_text = "key:int32";
  ingest.count = 2;
  ingest.data = {1, 2, 3, 4, 5, 6, 7, 8};
  const std::vector<uint8_t> query_wire = EncodeQueryRequest(FullRequest());
  const std::vector<uint8_t> result_wire = EncodeQueryResult(result);
  const std::vector<uint8_t> ingest_wire = EncodeIngestRequest(ingest);
  const std::vector<uint8_t> health_wire =
      EncodeServerHealth(ServerHealth{2, 3, 4});
  for (size_t cut = 0; cut < query_wire.size(); ++cut) {
    EXPECT_FALSE(DecodeQueryRequest(query_wire.data(), cut).ok())
        << "query request accepted at " << cut << " bytes";
  }
  for (size_t cut = 0; cut < result_wire.size(); ++cut) {
    EXPECT_FALSE(DecodeQueryResult(result_wire.data(), cut).ok())
        << "query result accepted at " << cut << " bytes";
  }
  for (size_t cut = 0; cut < ingest_wire.size(); ++cut) {
    EXPECT_FALSE(DecodeIngestRequest(ingest_wire.data(), cut).ok())
        << "ingest request accepted at " << cut << " bytes";
  }
  for (size_t cut = 0; cut < health_wire.size(); ++cut) {
    EXPECT_FALSE(DecodeServerHealth(health_wire.data(), cut).ok())
        << "server health accepted at " << cut << " bytes";
  }
}

}  // namespace
}  // namespace rodb
