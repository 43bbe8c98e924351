#ifndef RODB_SERVER_PROTOCOL_H_
#define RODB_SERVER_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "server/query_request.h"

namespace rodb {

/// Wire format of the query server: length-prefixed binary frames over a
/// byte stream (TCP). Every frame is
///
///   u32 LE payload length | u8 frame type | payload
///
/// (the length counts the type byte plus the payload). All integers are
/// little-endian, matching the rest of rodb's on-disk format. A client
/// sends one kQuery frame and reads one kResult or kError frame back;
/// the connection is then ready for the next query (queries on one
/// connection are sequential; concurrency comes from many connections).
///
/// The protocol deliberately carries the *request* struct, not SQL: the
/// server is an execution endpoint for QueryRequest, and the closed-loop
/// drivers (bench/server_concurrency, rodbctl query --connect) need
/// byte-exact control over what runs.
enum class FrameType : uint8_t {
  kQuery = 1,        ///< client -> server: serialized QueryRequest
  kResult = 2,       ///< server -> client: serialized QueryResult
  kError = 3,        ///< server -> client: status code + message
  kPing = 4,         ///< client -> server: liveness probe
  kPong = 5,         ///< server -> client: reply to kPing
  kIngest = 6,       ///< client -> server: serialized IngestRequest
  kIngestReply = 7,  ///< server -> client: serialized IngestResult
  kHealth = 8,       ///< client -> server: drain-state probe
  kHealthReply = 9,  ///< server -> client: serialized ServerHealth
};

/// Answer to a kHealth probe. Unlike kPing (pure liveness), health is
/// answered even while the server drains, so load balancers and
/// shutdown orchestration can tell "alive but refusing work" from
/// "gone". `state` carries the server's lifecycle enum as its wire
/// value (0 serving, 1 draining, 2 stopped).
struct ServerHealth {
  uint8_t state = 0;
  uint64_t active_connections = 0;
  uint64_t inflight_requests = 0;
};

/// Frames larger than this are rejected as malformed rather than
/// allocated: 64 MiB comfortably holds any sane request and caps what a
/// misbehaving peer can make the server reserve.
constexpr uint32_t kMaxFrameBytes = 64u << 20;

/// Fields of QueryRequest that travel on the wire: all but the scan's
/// read options (the server reads with its defaults), the cancellation
/// token and the trace pointer. The last two are process-local by
/// nature: a remote client cancels by closing the connection; traces
/// stay server-side.
std::vector<uint8_t> EncodeQueryRequest(const QueryRequest& request);
Result<QueryRequest> DecodeQueryRequest(const uint8_t* data, size_t size);

/// Serializes rows/blocks/checksum/digest/shared/attach/counters/wall
/// plus any collected rows. The BlockLayout travels as its width list;
/// the counters travel whole, in hwmodel/exec_counters.def order. The
/// frame carries no version, so client and server must agree on that
/// list.
std::vector<uint8_t> EncodeQueryResult(const QueryResult& result);
Result<QueryResult> DecodeQueryResult(const uint8_t* data, size_t size);

/// The ingest frame carries the whole batch (raw tuple bytes included);
/// kMaxFrameBytes bounds the batch size a client may ship at once.
std::vector<uint8_t> EncodeIngestRequest(const IngestRequest& request);
Result<IngestRequest> DecodeIngestRequest(const uint8_t* data, size_t size);

std::vector<uint8_t> EncodeIngestResult(const IngestResult& result);
Result<IngestResult> DecodeIngestResult(const uint8_t* data, size_t size);

std::vector<uint8_t> EncodeServerHealth(const ServerHealth& health);
Result<ServerHealth> DecodeServerHealth(const uint8_t* data, size_t size);

std::vector<uint8_t> EncodeError(const Status& status);
/// Reconstructs the Status an error frame carries.
Status DecodeError(const uint8_t* data, size_t size);

/// Prepends the frame header to a payload.
std::vector<uint8_t> EncodeFrame(FrameType type,
                                 const std::vector<uint8_t>& payload);

/// Incremental frame reassembly for a nonblocking or chunked byte
/// stream: feed bytes in, pull complete frames out.
class FrameReader {
 public:
  struct Frame {
    FrameType type;
    std::vector<uint8_t> payload;
  };

  /// Appends raw bytes from the stream.
  void Feed(const uint8_t* data, size_t size);
  /// Pops the next complete frame, or false if more bytes are needed.
  /// Fails with InvalidArgument on a malformed header (oversized or
  /// zero-length frame); the stream is unusable afterwards.
  Result<bool> Next(Frame* out);

 private:
  std::vector<uint8_t> buffer_;
  size_t consumed_ = 0;
};

}  // namespace rodb

#endif  // RODB_SERVER_PROTOCOL_H_
