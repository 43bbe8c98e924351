#include "storage/row_page.h"

#include <cstring>

#include "common/macros.h"

namespace rodb {

RowPageBuilder::RowPageBuilder(const Schema* schema, RowCodec* codec,
                               size_t page_size)
    : schema_(schema), codec_(codec), page_size_(page_size),
      meta_count_(codec != nullptr ? codec->page_meta_count() : 0),
      buffer_(page_size, 0) {
  RODB_CHECK(schema_ != nullptr);
  RODB_CHECK((codec_ != nullptr) == schema_->is_compressed());
  Reset();
}

void RowPageBuilder::Reset() {
  std::memset(buffer_.data(), 0, buffer_.size());
  page_writer_ =
      std::make_unique<PageWriter>(buffer_.data(), page_size_, meta_count_);
  if (codec_ != nullptr) codec_->BeginPage();
}

uint32_t RowPageBuilder::capacity() const {
  const size_t payload = PagePayloadCapacity(page_size_, meta_count_);
  const size_t width = codec_ != nullptr
                           ? static_cast<size_t>(codec_->encoded_tuple_bytes())
                           : static_cast<size_t>(schema_->padded_tuple_width());
  return static_cast<uint32_t>(payload / width);
}

AppendResult RowPageBuilder::Append(const uint8_t* raw_tuple) {
  BitWriter* w = page_writer_->writer();
  const size_t start = w->bit_pos();
  if (codec_ == nullptr) {
    const size_t need =
        static_cast<size_t>(schema_->padded_tuple_width()) * 8;
    if (start + need > page_writer_->payload_capacity_bits()) {
      return AppendResult::kPageFull;
    }
    const bool ok =
        w->PutBytes(raw_tuple,
                    static_cast<size_t>(schema_->raw_tuple_width()));
    RODB_CHECK(ok);
    // Alignment padding up to the on-disk tuple width (already zero).
    const int pad_bits =
        (schema_->padded_tuple_width() - schema_->raw_tuple_width()) * 8;
    if (pad_bits > 0) RODB_CHECK(w->Put(0, pad_bits));
    page_writer_->IncrementCount();
    return AppendResult::kOk;
  }
  if (!codec_->EncodeTuple(raw_tuple, w)) {
    w->TruncateTo(start);
    // A value that cannot be encoded on an empty page can never be
    // encoded: every per-page codec state is fresh here.
    return page_writer_->count() == 0 ? AppendResult::kUnencodable
                                      : AppendResult::kPageFull;
  }
  page_writer_->IncrementCount();
  return AppendResult::kOk;
}

Status RowPageBuilder::Finish(uint32_t page_id) {
  std::vector<CodecPageMeta> metas;
  if (codec_ != nullptr) codec_->FinishPage(&metas);
  return page_writer_->Finish(page_id, metas);
}

Result<RowPageReader> RowPageReader::Open(const PageView& view,
                                          const Schema* schema,
                                          RowCodec* codec) {
  if (schema == nullptr) {
    return Status::InvalidArgument("RowPageReader requires a schema");
  }
  if ((codec != nullptr) != schema->is_compressed()) {
    return Status::InvalidArgument(
        "RowPageReader codec presence must match schema compression");
  }
  if (codec != nullptr && view.meta_count() != codec->page_meta_count()) {
    return Status::Corruption("row page meta count mismatch");
  }
  // Every tuple, encoded or not, occupies a fixed width on the page.
  const int width = codec != nullptr ? codec->encoded_tuple_bytes()
                                     : schema->padded_tuple_width();
  if (static_cast<uint64_t>(view.count()) * static_cast<uint64_t>(width) * 8 >
      view.payload_bits()) {
    return Status::Corruption("row page count overflows payload");
  }
  if (codec != nullptr) codec->BeginDecode(view.metas());
  return RowPageReader(view, schema, codec);
}

void RowPageReader::DecodeNext(uint8_t* out) {
  if (codec_ != nullptr) {
    codec_->DecodeTuple(&reader_, out);
    return;
  }
  reader_.GetBytes(out, static_cast<size_t>(schema_->raw_tuple_width()));
  reader_.Skip(static_cast<size_t>(schema_->padded_tuple_width() -
                                   schema_->raw_tuple_width()) *
               8);
}

}  // namespace rodb
