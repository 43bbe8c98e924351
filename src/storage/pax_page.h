#ifndef RODB_STORAGE_PAX_PAGE_H_
#define RODB_STORAGE_PAX_PAGE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "compression/codec.h"
#include "storage/page.h"
#include "storage/row_page.h"  // AppendResult
#include "storage/schema.h"

namespace rodb {

/// PAX page layout (Ailamaki et al., discussed in the paper's Section 6):
/// whole tuples live in one page -- so a PAX table is a SINGLE file with
/// row-store I/O behaviour -- but inside the page each attribute's values
/// are grouped into a "minipage", giving column-store cache behaviour.
///
///   [0, 4)        uint32 tuple count
///   [4, ...)      minipage 0 | minipage 1 | ... (byte-aligned each)
///   [... , P-20)  codec bases + trailer (flags |= kPageFlagPax)
///
/// Minipage sizes are fixed per (schema, page_size): capacity tuples of
/// each attribute at its fixed encoded width.
struct PaxGeometry {
  uint32_t capacity = 0;             ///< tuples per page
  std::vector<size_t> minipage_offsets;  ///< byte offset of each minipage
  std::vector<size_t> minipage_bytes;

  /// Derives the geometry from the per-attribute encoded widths.
  static Result<PaxGeometry> Make(const std::vector<AttributeCodec*>& codecs,
                                  size_t page_size);
};

/// Builds PAX pages: one stateful codec + bit cursor per attribute, all
/// writing into their minipage slice of the same buffer. Appends are
/// transactional across attributes.
class PaxPageBuilder {
 public:
  /// `schema` and `codecs` (one per attribute, in order) must outlive the
  /// builder.
  static Result<std::unique_ptr<PaxPageBuilder>> Make(
      const Schema* schema, std::vector<AttributeCodec*> codecs,
      size_t page_size = kDefaultPageSize);

  void Reset();
  AppendResult Append(const uint8_t* raw_tuple);
  Status Finish(uint32_t page_id);

  uint32_t count() const { return count_; }
  uint32_t capacity() const { return geometry_.capacity; }
  const uint8_t* data() const { return buffer_.data(); }
  size_t page_size() const { return page_size_; }
  const PaxGeometry& geometry() const { return geometry_; }

 private:
  PaxPageBuilder(const Schema* schema, std::vector<AttributeCodec*> codecs,
                 size_t page_size, PaxGeometry geometry);

  const Schema* schema_;
  std::vector<AttributeCodec*> codecs_;
  size_t page_size_;
  PaxGeometry geometry_;
  int meta_count_;
  std::vector<uint8_t> buffer_;
  std::vector<BitWriter> writers_;  ///< one per minipage
  uint32_t count_ = 0;
};

/// Reads one PAX page through per-attribute cursors. Each attribute
/// advances independently (DecodeNext / SkipValues per attribute), which
/// is exactly what gives PAX its cache selectivity.
class PaxPageReader {
 public:
  /// Opens a page already parsed (and, if asked, verified) by
  /// PageView::Parse. `codecs` must match the page's schema; they are
  /// reset per page.
  static Result<PaxPageReader> Open(const PageView& view,
                                    const Schema* schema,
                                    const std::vector<AttributeCodec*>& codecs);

  uint32_t count() const { return view_.count(); }
  uint32_t page_id() const { return view_.page_id(); }

  /// Decodes attribute `attr`'s next value into `out`.
  void DecodeNext(size_t attr, uint8_t* out) {
    codecs_[attr]->DecodeValue(&readers_[attr], out);
  }
  /// Skips `n` values of attribute `attr` (FOR-delta pays the decode).
  void SkipValues(size_t attr, uint64_t n);

  // --- Batched kernel hooks (src/kernels/) -------------------------------

  /// Evaluates a bound predicate over attribute `attr`'s next `n` values
  /// into bits [base, base + n) of `sel` without materializing them.
  void ScanNext(size_t attr, size_t n, const kernels::PackedPredicate& pred,
                kernels::BitVector* sel, size_t base) {
    codecs_[attr]->ScanBatch(&readers_[attr], n, pred, sel, base);
  }
  /// Decodes attribute `attr`'s next `n` values into `out`.
  void DecodeBatch(size_t attr, size_t n, uint8_t* out) {
    codecs_[attr]->DecodeBatch(&readers_[attr], n, out);
  }
  /// Repositions attribute `attr` to its first value and re-runs
  /// BeginDecode so a second pass over the minipage can re-read it.
  void Rewind(size_t attr) {
    readers_[attr].SeekToBit(0);
    codecs_[attr]->BeginDecode(metas_[attr]);
  }
  AttributeCodec* codec(size_t attr) const { return codecs_[attr]; }

 private:
  PaxPageReader(PageView view, std::vector<AttributeCodec*> codecs,
                std::vector<BitReader> readers,
                std::vector<CodecPageMeta> metas)
      : view_(view), codecs_(std::move(codecs)), readers_(std::move(readers)),
        metas_(std::move(metas)) {}

  PageView view_;
  std::vector<AttributeCodec*> codecs_;
  std::vector<BitReader> readers_;
  std::vector<CodecPageMeta> metas_;  ///< per attribute, default if none
};

}  // namespace rodb

#endif  // RODB_STORAGE_PAX_PAGE_H_
