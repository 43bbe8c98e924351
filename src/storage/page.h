#ifndef RODB_STORAGE_PAGE_H_
#define RODB_STORAGE_PAGE_H_

#include <cstdint>
#include <vector>

#include "common/bitio.h"
#include "common/result.h"
#include "compression/codec.h"

namespace rodb {

/// rodb pages follow Figure 3: a leading entry count, a dense-packed
/// payload, and page-specific information at a fixed offset from the end.
///
///   [0, 4)                      uint32 entry count
///   [4, 4 + payload)            dense-packed tuples / values (bit stream)
///   [P - 16 - 8*m, P - 16)      m int64 codec bases (FOR / FOR-delta)
///   [P - 16, P)                 PageTrailer
///
/// There is no slotted directory and no per-page free list: updates happen
/// in bulk through the write-optimized store, so pages are written once
/// and dense (Section 2.2.1).
inline constexpr size_t kDefaultPageSize = 4096;
inline constexpr uint32_t kPageMagic = 0x42444F52;  // "RODB" little-endian

/// Page flags (PageTrailer::flags).
inline constexpr uint16_t kPageFlagPax = 1;  ///< column-wise internal layout

/// Fixed 20-byte trailer at the end of every page. The page ID combined
/// with a tuple's position in the page gives the Record ID. `checksum`
/// covers everything before the trailer plus the trailer's own leading
/// fields (CRC-32; see PageChecksum).
struct PageTrailer {
  uint32_t magic = kPageMagic;
  uint32_t page_id = 0;
  uint16_t meta_count = 0;  ///< number of int64 codec bases before trailer
  uint16_t flags = 0;
  uint32_t payload_bits = 0;  ///< bits of payload actually used
  uint32_t checksum = 0;
};
static_assert(sizeof(PageTrailer) == 20);

inline constexpr size_t kPageTrailerBytes = 20;
inline constexpr size_t kPageHeaderBytes = 4;

/// The checksum stored in (and verified against) a sealed page buffer:
/// CRC-32 of the page up to but excluding the trailer's checksum field.
uint32_t PageChecksum(const uint8_t* page, size_t page_size);

/// Writes count, codec bases, trailer and checksum into a page buffer
/// whose payload was already filled. Used by PageWriter and by builders
/// that manage the payload themselves (PAX minipages).
Status SealPage(uint8_t* buffer, size_t page_size, uint32_t count,
                uint32_t payload_bits, const std::vector<CodecPageMeta>& metas,
                uint32_t page_id, uint16_t flags);

/// Payload capacity in bytes for a page with `meta_count` codec bases.
constexpr size_t PagePayloadCapacity(size_t page_size, int meta_count) {
  return page_size - kPageHeaderBytes - kPageTrailerBytes -
         8 * static_cast<size_t>(meta_count);
}

/// Incrementally fills one page buffer. The caller appends values through
/// writer() (advancing the count via set_count / IncrementCount) and seals
/// the page with Finish().
class PageWriter {
 public:
  /// `buffer` must hold `page_size` zeroed bytes and outlive the writer.
  PageWriter(uint8_t* buffer, size_t page_size, int meta_count);

  BitWriter* writer() { return &writer_; }
  void IncrementCount() { ++count_; }
  uint32_t count() const { return count_; }
  size_t payload_capacity_bits() const {
    return PagePayloadCapacity(page_size_, meta_count_) * 8;
  }

  /// Writes count, codec bases and trailer (including the checksum).
  /// `metas` must have exactly the meta_count entries announced at
  /// construction.
  Status Finish(uint32_t page_id, const std::vector<CodecPageMeta>& metas,
                uint16_t flags = 0);

 private:
  uint8_t* buffer_;
  size_t page_size_;
  int meta_count_;
  uint32_t count_ = 0;
  BitWriter writer_;
};

/// Read-side view over one page buffer. Parse() validates the trailer and
/// bounds so downstream decode loops can trust the geometry.
class PageView {
 public:
  /// Validates geometry. Scanners skip the checksum on the hot path (as
  /// any engine would); pass verify_checksum=true in verification tools
  /// and corruption tests.
  static Result<PageView> Parse(const uint8_t* buffer, size_t page_size,
                                bool verify_checksum = false);

  uint32_t count() const { return count_; }
  size_t page_size() const { return page_size_; }
  uint32_t page_id() const { return trailer_.page_id; }
  int meta_count() const { return trailer_.meta_count; }
  uint16_t flags() const { return trailer_.flags; }
  uint32_t stored_checksum() const { return trailer_.checksum; }
  CodecPageMeta meta(int i) const;
  /// All codec bases, in attribute order.
  std::vector<CodecPageMeta> metas() const;

  /// Reader positioned at the start of the payload bit stream, bounded by
  /// the used payload bits.
  BitReader payload_reader() const;
  const uint8_t* payload() const { return buffer_ + kPageHeaderBytes; }
  size_t payload_bits() const { return trailer_.payload_bits; }

 private:
  PageView(const uint8_t* buffer, size_t page_size, uint32_t count,
           PageTrailer trailer)
      : buffer_(buffer), page_size_(page_size), count_(count),
        trailer_(trailer) {}

  const uint8_t* buffer_;
  size_t page_size_;
  uint32_t count_;
  PageTrailer trailer_;
};

}  // namespace rodb

#endif  // RODB_STORAGE_PAGE_H_
