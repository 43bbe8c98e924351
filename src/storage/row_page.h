#ifndef RODB_STORAGE_ROW_PAGE_H_
#define RODB_STORAGE_ROW_PAGE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "compression/row_codec.h"
#include "storage/page.h"
#include "storage/schema.h"

namespace rodb {

/// Result of appending a value/tuple to a page builder.
enum class AppendResult {
  kOk,           ///< appended
  kPageFull,     ///< does not fit; finish the page and retry on a fresh one
  kUnencodable,  ///< can never be encoded under the schema's codecs
};

/// Builds uncompressed or compressed row pages (Figure 3, left).
///
/// Uncompressed tuples occupy padded_tuple_width() bytes each; compressed
/// tuples are bit-packed by a RowCodec at a fixed encoded width. Appends
/// are transactional: a tuple that does not fit leaves the page unchanged.
class RowPageBuilder {
 public:
  /// `codec` may be null for uncompressed schemas; if non-null it must
  /// match the schema and outlive the builder.
  RowPageBuilder(const Schema* schema, RowCodec* codec,
                 size_t page_size = kDefaultPageSize);

  /// Starts a fresh page.
  void Reset();

  AppendResult Append(const uint8_t* raw_tuple);

  /// Seals the page. The buffer (data(), page_size() bytes) remains valid
  /// until the next Reset().
  Status Finish(uint32_t page_id);

  uint32_t count() const { return page_writer_->count(); }
  const uint8_t* data() const { return buffer_.data(); }
  size_t page_size() const { return page_size_; }
  /// Tuples that fit in one page (exact for uncompressed/typical pages).
  uint32_t capacity() const;

 private:
  const Schema* schema_;
  RowCodec* codec_;
  size_t page_size_;
  int meta_count_;
  std::vector<uint8_t> buffer_;
  std::unique_ptr<PageWriter> page_writer_;
};

/// Reads tuples off one row page. For uncompressed schemas TupleAt() gives
/// zero-copy access; for compressed schemas tuples are decoded forward-only
/// through the (stateful) RowCodec.
class RowPageReader {
 public:
  /// Opens a page already parsed (and, if asked, verified) by
  /// PageView::Parse.
  static Result<RowPageReader> Open(const PageView& view,
                                    const Schema* schema, RowCodec* codec);

  uint32_t count() const { return view_.count(); }
  uint32_t page_id() const { return view_.page_id(); }
  bool compressed() const { return codec_ != nullptr; }

  /// Zero-copy access to tuple `i` (uncompressed schemas only).
  const uint8_t* TupleAt(uint32_t i) const {
    return view_.payload() +
           static_cast<size_t>(i) *
               static_cast<size_t>(schema_->padded_tuple_width());
  }

  /// Decodes the next tuple into `out` (raw_tuple_width() bytes). Valid
  /// for both layouts; call at most count() times.
  void DecodeNext(uint8_t* out);

 private:
  RowPageReader(PageView view, const Schema* schema, RowCodec* codec)
      : view_(view), schema_(schema), codec_(codec),
        reader_(view_.payload_reader()) {}

  PageView view_;
  const Schema* schema_;
  RowCodec* codec_;
  BitReader reader_;
};

}  // namespace rodb

#endif  // RODB_STORAGE_ROW_PAGE_H_
