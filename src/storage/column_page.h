#ifndef RODB_STORAGE_COLUMN_PAGE_H_
#define RODB_STORAGE_COLUMN_PAGE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "compression/codec.h"
#include "storage/page.h"
#include "storage/row_page.h"  // AppendResult

namespace rodb {

/// Builds single-attribute column pages (Figure 3, right): a dense bit
/// stream of encoded values plus the codec's per-page base in the trailer.
class ColumnPageBuilder {
 public:
  /// `codec` must outlive the builder (it is stateful per page).
  ColumnPageBuilder(AttributeCodec* codec, size_t page_size = kDefaultPageSize);

  void Reset();
  AppendResult Append(const uint8_t* raw_value);
  Status Finish(uint32_t page_id);

  uint32_t count() const { return page_writer_->count(); }
  const uint8_t* data() const { return buffer_.data(); }
  size_t page_size() const { return page_size_; }
  /// Values that fit in one page at the codec's fixed bit width.
  uint32_t capacity() const;

 private:
  AttributeCodec* codec_;
  size_t page_size_;
  int meta_count_;
  std::vector<uint8_t> buffer_;
  std::unique_ptr<PageWriter> page_writer_;
};

/// Sequentially decodes one column page through its (stateful) codec.
class ColumnPageReader {
 public:
  /// Opens a page already parsed (and, if asked, verified) by
  /// PageView::Parse.
  static Result<ColumnPageReader> Open(const PageView& view,
                                       AttributeCodec* codec);

  uint32_t count() const { return view_.count(); }
  uint32_t page_id() const { return view_.page_id(); }

  /// Decodes the next value into `out` (codec->raw_width() bytes).
  void DecodeNext(uint8_t* out) { codec_->DecodeValue(&reader_, out); }

  /// Reads the next value's dictionary code without materializing it
  /// (codec->SupportsCodeDecoding() must hold).
  uint32_t DecodeNextCode() { return codec_->DecodeCode(&reader_); }
  /// Advances past the next value (FOR-delta still pays the arithmetic).
  void SkipNext() { codec_->SkipValue(&reader_); }

  /// Skips `n` values. O(1) for fixed-width codecs without running state;
  /// FOR-delta must decode every skipped value (Section 4.4).
  void SkipValues(uint64_t n) {
    if (codec_->kind() == CompressionKind::kForDelta) {
      for (uint64_t i = 0; i < n; ++i) codec_->SkipValue(&reader_);
      return;
    }
    reader_.Skip(n * static_cast<uint64_t>(codec_->encoded_bits()));
  }

  // --- Batched kernel hooks (src/kernels/) -------------------------------

  /// Evaluates a bound predicate over the next `n` values into bits
  /// [base, base + n) of `sel` without materializing them.
  void ScanNext(size_t n, const kernels::PackedPredicate& pred,
                kernels::BitVector* sel, size_t base) {
    codec_->ScanBatch(&reader_, n, pred, sel, base);
  }
  /// Decodes the next `n` values into `out` (n * raw_width() bytes).
  void DecodeBatch(size_t n, uint8_t* out) {
    codec_->DecodeBatch(&reader_, n, out);
  }
  /// Repositions to the first value of the page and re-runs BeginDecode,
  /// so a second pass (materializing mask survivors after a scan pass)
  /// can re-read the page.
  void Rewind() {
    reader_.SeekToBit(0);
    codec_->BeginDecode(meta_);
  }
  AttributeCodec* codec() const { return codec_; }

 private:
  ColumnPageReader(PageView view, AttributeCodec* codec, CodecPageMeta meta)
      : view_(view), codec_(codec), meta_(meta),
        reader_(view_.payload_reader()) {}

  PageView view_;
  AttributeCodec* codec_;
  CodecPageMeta meta_;
  BitReader reader_;
};

}  // namespace rodb

#endif  // RODB_STORAGE_COLUMN_PAGE_H_
