#ifndef RODB_IO_IO_H_
#define RODB_IO_IO_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/result.h"
#include "common/status.h"
#include "io/read_options.h"

namespace rodb {

/// Counters a stream updates while reading; the engine folds these into
/// its ExecCounters to model CPU system time.
///
/// Single-writer contract: streams update their IoStats sink with plain
/// unsynchronized increments, so at any moment a given IoStats object may
/// be written by AT MOST ONE stream/worker thread. Partitioned scans give
/// every worker its own ExecStats (and therefore its own IoStats) and sum
/// the per-worker counters after the workers have quiesced; sharing one
/// IoStats* across concurrently running streams is a data race.
struct IoStats {
  uint64_t bytes_read = 0;  ///< bytes the backend actually served
  uint64_t requests = 0;    ///< I/O unit requests issued to the backend
  uint64_t files_opened = 0;
  /// Bytes served from a BlockCache instead of the backend. A fully warm
  /// scan has bytes_read == 0 and bytes_from_cache == the scan's bytes;
  /// ModelQueryTiming then sees (almost) no disk traffic and the run is
  /// CPU-bound (see CacheAdjustedStreams in engine/executor.h).
  uint64_t bytes_from_cache = 0;
  uint64_t cache_hits = 0;    ///< I/O units served from cache
  uint64_t cache_misses = 0;  ///< I/O units assembled from the backend
};

/// How a scan reads a file (Section 2.2.3): fixed-size I/O units, a
/// prefetch depth saying how many units are kept in flight ahead of the
/// consumer, and DMA-like delivery (buffers are handed to the query with
/// no extra copies and no OS file cache assumptions).
///
/// The shared knobs (unit size, prefetch depth, stats sink, cache) live
/// in `read` -- the same ReadOptions a ScanSpec carries -- and this
/// struct adds only what is inherently per-stream: the byte range and
/// the stable file identity.
struct IoOptions {
  ReadOptions read;
  /// Byte range of the file to read ([start_offset, start_offset+length)),
  /// for partitioned scans; length saturates at end of file.
  uint64_t start_offset = 0;
  uint64_t length = UINT64_MAX;
  /// Stable identity of the file for cache keying (storage records one
  /// per table file in TableMeta). 0 = unknown; a CachingBackend then
  /// derives it from the path (common/file_id.h).
  uint64_t file_id = 0;
};

/// A filled I/O unit as seen by the consumer. The view stays valid until
/// the next Next() call on the same stream.
struct IoView {
  const uint8_t* data = nullptr;
  size_t size = 0;          ///< 0 at end of file
  uint64_t file_offset = 0;
};

/// Sequential, prefetched read stream over one file. Single consumer.
class SequentialStream {
 public:
  virtual ~SequentialStream() = default;
  /// Returns the next I/O unit (size == 0 at EOF).
  virtual Result<IoView> Next() = 0;
  /// Total size of the underlying file in bytes.
  virtual uint64_t file_size() const = 0;
};

/// Factory for streams. Implementations: FileBackend (real files through
/// the threaded async reader) and MemBackend (in-memory files, for tests
/// and model-driven sweeps); decorators: CachingBackend (block cache),
/// FaultInjectingBackend and TracingBackend (io/fault_injection.h).
class IoBackend {
 public:
  virtual ~IoBackend() = default;
  virtual Result<std::unique_ptr<SequentialStream>> OpenStream(
      const std::string& path, const IoOptions& options) = 0;
};

}  // namespace rodb

#endif  // RODB_IO_IO_H_
