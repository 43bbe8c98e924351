#ifndef RODB_IO_FILE_BACKEND_H_
#define RODB_IO_FILE_BACKEND_H_

#include "io/io.h"

namespace rodb {

/// Reads real files with a non-blocking prefetching reader.
///
/// The paper implements prefetching with Linux AIO inside a single-
/// threaded process; rodb reaches the same behaviour portably with one
/// background producer thread per stream that keeps up to `prefetch_depth`
/// I/O units in flight in a ring of reusable buffers while the consumer
/// (the query engine) drains them in order. The ring is sized to the
/// range -- min(prefetch_depth, units the range holds) + 1 buffers, never
/// zero-filled -- and a range of at most one I/O unit gets a stream with
/// no thread and no ring, which preads the unit on its first Next().
/// Ring and one-unit buffers come from the unit free list
/// (io/unit_buffers.h), so a closed stream's memory serves the next
/// stream's. As in the paper there is no page caching in this layer: the
/// stream hands the query a pointer into its buffer.
class FileBackend : public IoBackend {
 public:
  Result<std::unique_ptr<SequentialStream>> OpenStream(
      const std::string& path, const IoOptions& options) override;
};

}  // namespace rodb

#endif  // RODB_IO_FILE_BACKEND_H_
