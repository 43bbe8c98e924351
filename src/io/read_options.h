#ifndef RODB_IO_READ_OPTIONS_H_
#define RODB_IO_READ_OPTIONS_H_

#include <cstddef>
#include <cstdint>

namespace rodb {

class BlockCache;
struct IoStats;

namespace obs {
class QueryTrace;
}  // namespace obs

/// The knobs every read path shares, owned in exactly one place.
///
/// Before this struct existed the same fields were declared twice --
/// `ScanSpec` carried {io_unit_bytes, prefetch_depth, verify_checksums}
/// for the scanners and `IoOptions` carried {io_unit_bytes,
/// prefetch_depth, stats} for the backends -- and a cache handle had
/// nowhere to live at all. Now `ScanSpec::read` and `IoOptions::read`
/// are the same type, so a spec's I/O configuration flows through the
/// engine to the backend without copying field by field.
struct ReadOptions {
  /// I/O request granularity (Section 2.2.3: fixed-size I/O units).
  size_t io_unit_bytes = 128 * 1024;
  /// At most this many I/O units in flight ahead of the consumer, capped
  /// by the units the range holds.
  int prefetch_depth = 48;
  /// Verify every page's CRC-32 before decoding it. Off on the hot path
  /// (as in any engine); turned on by verification tools and by the
  /// fault-injecting fuzz runs, where silent payload corruption must
  /// surface as Status::Corruption instead of decoded garbage.
  bool verify_checksums = false;
  /// Optional block cache (not owned). When set on a ScanSpec, the
  /// scanner routes all of its streams through a CachingBackend over
  /// this cache; repeated scans of the same files are then served from
  /// memory (IoStats::bytes_from_cache) instead of the backend.
  BlockCache* cache = nullptr;
  /// Optional I/O statistics sink (not owned). Honored by backends when
  /// streams are opened directly; scanners ignore a ScanSpec-level sink
  /// and substitute their own ExecStats record, preserving the IoStats
  /// single-writer contract under morsel parallelism (io/io.h).
  IoStats* stats = nullptr;
  /// Optional per-query trace (not owned). Decorators that spend time
  /// below the engine — today the RetryingBackend's backoff/re-issue
  /// loop — record their spans here (TracePhase::kIoRetry). Scanners
  /// populate it from ExecStats::trace() alongside `stats`.
  obs::QueryTrace* trace = nullptr;
};

}  // namespace rodb

#endif  // RODB_IO_READ_OPTIONS_H_
