#ifndef RODB_IO_UNIT_BUFFERS_H_
#define RODB_IO_UNIT_BUFFERS_H_

#include <cstddef>
#include <cstdint>
#include <memory>

namespace rodb {

/// Process-wide free list of I/O buffers, keyed by byte size.
///
/// Nearly every large buffer the engine churns is one I/O unit (Section
/// 2.2.3) or a ring of them: stream rings, one-unit reads, block-cache
/// blocks, morsel output chunks. Handing a released buffer to the next
/// request of the same size keeps resident memory at the peak number of
/// buffers live at once, instead of leaving freed units to the
/// allocator's per-thread arenas. It is a free list, not a buffer pool:
/// it caches no pages and never hands out a buffer's old contents as
/// data. There is no cap: each size's list holds at most the peak number
/// of its buffers that were live at once. Sizes are few in practice:
/// streams and morsel output take whole units, and only block-cache
/// blocks at the end of a range are shorter -- page-aligned, so at most
/// io_unit_bytes / page_size sizes per unit size.
///
/// Thread-safe (one mutex). Under AddressSanitizer a buffer on the list
/// is poisoned, so a use after release still trips ASan.
struct UnitBufferRelease {
  size_t size = 0;
  /// Pushes `buffer` back onto the free list for `size`.
  void operator()(uint8_t* buffer) const;
};

using UnitBuffer = std::unique_ptr<uint8_t[], UnitBufferRelease>;

/// Returns a buffer of `size` bytes (contents unspecified), reusing a
/// released one of the same size when the list has one. `size` 0 gives
/// an empty handle.
UnitBuffer AcquireUnitBuffer(size_t size);

}  // namespace rodb

#endif  // RODB_IO_UNIT_BUFFERS_H_
