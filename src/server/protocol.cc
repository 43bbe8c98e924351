#include "server/protocol.h"

#include <cstring>

#include "common/bytes.h"

namespace rodb {

namespace {

void PutU8(std::vector<uint8_t>* out, uint8_t v) { out->push_back(v); }

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  uint8_t buf[4];
  StoreLE32(buf, v);
  out->insert(out->end(), buf, buf + 4);
}

void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  uint8_t buf[8];
  StoreLE64(buf, v);
  out->insert(out->end(), buf, buf + 8);
}

void PutI32(std::vector<uint8_t>* out, int32_t v) {
  PutU32(out, static_cast<uint32_t>(v));
}

void PutString(std::vector<uint8_t>* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->insert(out->end(), s.begin(), s.end());
}

void PutDouble(std::vector<uint8_t>* out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

/// Bounds-checked sequential reader over a decode buffer.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  bool ok() const { return ok_; }
  bool AtEnd() const { return pos_ == size_; }

  uint8_t U8() {
    if (!Need(1)) return 0;
    return data_[pos_++];
  }
  uint32_t U32() {
    if (!Need(4)) return 0;
    uint32_t v = LoadLE32(data_ + pos_);
    pos_ += 4;
    return v;
  }
  uint64_t U64() {
    if (!Need(8)) return 0;
    uint64_t v = LoadLE64(data_ + pos_);
    pos_ += 8;
    return v;
  }
  int32_t I32() { return static_cast<int32_t>(U32()); }
  double F64() {
    uint64_t bits = U64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string String() {
    uint32_t n = U32();
    if (!Need(n)) return {};
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }
  std::vector<uint8_t> Bytes(uint64_t n) {
    if (!Need(n)) return {};
    std::vector<uint8_t> b(data_ + pos_, data_ + pos_ + n);
    pos_ += n;
    return b;
  }

 private:
  bool Need(uint64_t n) {
    if (!ok_ || size_ - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  bool ok_ = true;
};

Status Truncated(const char* what) {
  return Status::InvalidArgument(std::string("truncated frame: ") + what);
}

void PutCounters(std::vector<uint8_t>* out, const ExecCounters& c) {
#define RODB_EXEC_COUNTER(field, phase, span, metric, scaling) \
  PutU64(out, c.field);
#include "hwmodel/exec_counters.def"
}

void GetCounters(ByteReader* in, ExecCounters* c) {
#define RODB_EXEC_COUNTER(field, phase, span, metric, scaling) \
  c->field = in->U64();
#include "hwmodel/exec_counters.def"
}

}  // namespace

std::vector<uint8_t> EncodeQueryRequest(const QueryRequest& request) {
  std::vector<uint8_t> out;
  PutString(&out, request.table);
  PutU32(&out, static_cast<uint32_t>(request.scan.projection.size()));
  for (int attr : request.scan.projection) PutI32(&out, attr);
  PutU32(&out, static_cast<uint32_t>(request.scan.predicates.size()));
  for (const Predicate& pred : request.scan.predicates) {
    PutI32(&out, pred.attr_index());
    PutU8(&out, static_cast<uint8_t>(pred.op()));
    PutU8(&out, pred.is_text() ? 1 : 0);
    if (pred.is_text()) {
      PutString(&out, pred.text_operand());
    } else {
      PutI32(&out, pred.int_operand());
    }
  }
  PutU8(&out, static_cast<uint8_t>(request.mode));
  PutU32(&out, request.scan.block_tuples);
  PutU8(&out, request.scan.compressed_eval ? 1 : 0);
  PutU8(&out, request.scan.vectorized ? 1 : 0);
  PutU8(&out, request.scan.prune ? 1 : 0);
  PutI32(&out, request.parallelism);
  PutU8(&out, request.ordered ? 1 : 0);
  PutU8(&out, request.collect_rows ? 1 : 0);
  PutU64(&out, request.limit_rows);
  PutU64(&out, static_cast<uint64_t>(request.timeout.count()));
  PutI32(&out, request.max_retries);
  PutU8(&out, static_cast<uint8_t>(request.scan.range.unit));
  PutU64(&out, request.scan.range.first);
  PutU64(&out, request.scan.range.count);
  return out;
}

Result<QueryRequest> DecodeQueryRequest(const uint8_t* data, size_t size) {
  ByteReader in(data, size);
  QueryRequest request;
  request.table = in.String();
  const uint32_t num_proj = in.U32();
  if (num_proj > kMaxFrameBytes / 4) return Truncated("projection");
  for (uint32_t i = 0; i < num_proj && in.ok(); ++i) {
    request.scan.projection.push_back(in.I32());
  }
  const uint32_t num_preds = in.U32();
  if (num_preds > kMaxFrameBytes / 8) return Truncated("predicates");
  for (uint32_t i = 0; i < num_preds && in.ok(); ++i) {
    const int attr = in.I32();
    const uint8_t op = in.U8();
    if (op > static_cast<uint8_t>(CompareOp::kGe)) {
      return Status::InvalidArgument("bad compare op on wire");
    }
    const bool is_text = in.U8() != 0;
    if (is_text) {
      request.scan.predicates.push_back(
          Predicate::Text(attr, static_cast<CompareOp>(op), in.String()));
    } else {
      request.scan.predicates.push_back(
          Predicate::Int32(attr, static_cast<CompareOp>(op), in.I32()));
    }
  }
  const uint8_t mode = in.U8();
  if (mode > static_cast<uint8_t>(QueryMode::kShared)) {
    return Status::InvalidArgument("bad query mode on wire");
  }
  request.mode = static_cast<QueryMode>(mode);
  request.scan.block_tuples = in.U32();
  request.scan.compressed_eval = in.U8() != 0;
  request.scan.vectorized = in.U8() != 0;
  request.scan.prune = in.U8() != 0;
  request.parallelism = in.I32();
  request.ordered = in.U8() != 0;
  request.collect_rows = in.U8() != 0;
  request.limit_rows = in.U64();
  request.timeout = std::chrono::milliseconds(in.U64());
  request.max_retries = in.I32();
  const uint8_t unit = in.U8();
  if (unit > static_cast<uint8_t>(ScanRange::Unit::kRows)) {
    return Status::InvalidArgument("bad scan-range unit on wire");
  }
  request.scan.range.unit = static_cast<ScanRange::Unit>(unit);
  request.scan.range.first = in.U64();
  request.scan.range.count = in.U64();
  if (!in.ok() || !in.AtEnd()) return Truncated("query request");
  return request;
}

std::vector<uint8_t> EncodeQueryResult(const QueryResult& result) {
  std::vector<uint8_t> out;
  PutU64(&out, result.rows);
  PutU64(&out, result.blocks);
  PutU64(&out, result.output_checksum);
  PutU64(&out, result.row_digest);
  PutU8(&out, result.shared ? 1 : 0);
  PutU64(&out, result.attach_position);
  PutU64(&out, result.attach_lap);
  PutI32(&out, result.morsels);
  PutDouble(&out, result.wall_seconds);
  PutCounters(&out, result.counters);
  PutU32(&out, static_cast<uint32_t>(result.row_layout.widths.size()));
  for (int w : result.row_layout.widths) PutI32(&out, w);
  PutU64(&out, result.rows_collected);
  PutU64(&out, static_cast<uint64_t>(result.row_data.size()));
  out.insert(out.end(), result.row_data.begin(), result.row_data.end());
  PutU64(&out, result.snapshot_epoch);
  PutU64(&out, result.snapshot_tuples);
  return out;
}

Result<QueryResult> DecodeQueryResult(const uint8_t* data, size_t size) {
  ByteReader in(data, size);
  QueryResult result;
  result.rows = in.U64();
  result.blocks = in.U64();
  result.output_checksum = in.U64();
  result.row_digest = in.U64();
  result.shared = in.U8() != 0;
  result.attach_position = in.U64();
  result.attach_lap = in.U64();
  result.morsels = in.I32();
  result.wall_seconds = in.F64();
  GetCounters(&in, &result.counters);
  const uint32_t num_widths = in.U32();
  if (num_widths > kMaxFrameBytes / 4) return Truncated("layout");
  std::vector<int> widths;
  for (uint32_t i = 0; i < num_widths && in.ok(); ++i) {
    widths.push_back(in.I32());
  }
  result.row_layout = BlockLayout::FromWidths(widths);
  result.rows_collected = in.U64();
  const uint64_t data_bytes = in.U64();
  if (data_bytes > kMaxFrameBytes) return Truncated("row data");
  result.row_data = in.Bytes(data_bytes);
  result.snapshot_epoch = in.U64();
  result.snapshot_tuples = in.U64();
  if (!in.ok() || !in.AtEnd()) return Truncated("query result");
  return result;
}

std::vector<uint8_t> EncodeIngestRequest(const IngestRequest& request) {
  std::vector<uint8_t> out;
  PutString(&out, request.table);
  PutString(&out, request.schema_text);
  PutU8(&out, static_cast<uint8_t>(request.layout));
  PutI32(&out, request.sort_attr);
  PutU8(&out, request.freeze ? 1 : 0);
  PutU8(&out, request.merge ? 1 : 0);
  PutU64(&out, request.count);
  PutU64(&out, static_cast<uint64_t>(request.data.size()));
  out.insert(out.end(), request.data.begin(), request.data.end());
  return out;
}

Result<IngestRequest> DecodeIngestRequest(const uint8_t* data, size_t size) {
  ByteReader in(data, size);
  IngestRequest request;
  request.table = in.String();
  request.schema_text = in.String();
  const uint8_t layout = in.U8();
  if (layout > static_cast<uint8_t>(Layout::kPax)) {
    return Status::InvalidArgument("bad layout on wire");
  }
  request.layout = static_cast<Layout>(layout);
  request.sort_attr = in.I32();
  request.freeze = in.U8() != 0;
  request.merge = in.U8() != 0;
  request.count = in.U64();
  const uint64_t data_bytes = in.U64();
  if (data_bytes > kMaxFrameBytes) return Truncated("ingest batch");
  request.data = in.Bytes(data_bytes);
  if (!in.ok() || !in.AtEnd()) return Truncated("ingest request");
  return request;
}

std::vector<uint8_t> EncodeIngestResult(const IngestResult& result) {
  std::vector<uint8_t> out;
  PutU64(&out, result.appended_total);
  PutU64(&out, result.epoch);
  PutU64(&out, result.frozen_segments);
  return out;
}

Result<IngestResult> DecodeIngestResult(const uint8_t* data, size_t size) {
  ByteReader in(data, size);
  IngestResult result;
  result.appended_total = in.U64();
  result.epoch = in.U64();
  result.frozen_segments = in.U64();
  if (!in.ok() || !in.AtEnd()) return Truncated("ingest result");
  return result;
}

std::vector<uint8_t> EncodeServerHealth(const ServerHealth& health) {
  std::vector<uint8_t> out;
  PutU8(&out, health.state);
  PutU64(&out, health.active_connections);
  PutU64(&out, health.inflight_requests);
  return out;
}

Result<ServerHealth> DecodeServerHealth(const uint8_t* data, size_t size) {
  ByteReader in(data, size);
  ServerHealth health;
  health.state = in.U8();
  health.active_connections = in.U64();
  health.inflight_requests = in.U64();
  if (!in.ok() || !in.AtEnd()) return Truncated("server health");
  return health;
}

std::vector<uint8_t> EncodeError(const Status& status) {
  std::vector<uint8_t> out;
  PutU8(&out, static_cast<uint8_t>(status.code()));
  PutString(&out, std::string(status.message()));
  return out;
}

Status DecodeError(const uint8_t* data, size_t size) {
  ByteReader in(data, size);
  const uint8_t code = in.U8();
  std::string message = in.String();
  if (!in.ok()) return Status::InvalidArgument("truncated error frame");
  return Status(static_cast<StatusCode>(code), std::move(message));
}

std::vector<uint8_t> EncodeFrame(FrameType type,
                                 const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> out(5 + payload.size());
  StoreLE32(out.data(), static_cast<uint32_t>(payload.size() + 1));
  out[4] = static_cast<uint8_t>(type);
  if (!payload.empty()) {
    std::memcpy(out.data() + 5, payload.data(), payload.size());
  }
  return out;
}

void FrameReader::Feed(const uint8_t* data, size_t size) {
  // Compact lazily: drop consumed bytes once they dominate the buffer.
  if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), data, data + size);
}

Result<bool> FrameReader::Next(Frame* out) {
  const size_t available = buffer_.size() - consumed_;
  if (available < 4) return false;
  const uint32_t length = LoadLE32(buffer_.data() + consumed_);
  if (length == 0 || length > kMaxFrameBytes) {
    return Status::InvalidArgument("malformed frame header");
  }
  if (available < 4 + static_cast<size_t>(length)) return false;
  const uint8_t* frame = buffer_.data() + consumed_ + 4;
  out->type = static_cast<FrameType>(frame[0]);
  out->payload.assign(frame + 1, frame + length);
  consumed_ += 4 + static_cast<size_t>(length);
  return true;
}

}  // namespace rodb
