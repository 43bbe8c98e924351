#include "storage/column_page.h"

#include <cstring>

#include "common/macros.h"

namespace rodb {

ColumnPageBuilder::ColumnPageBuilder(AttributeCodec* codec, size_t page_size)
    : codec_(codec), page_size_(page_size),
      meta_count_(CodecNeedsPageMeta(codec->kind()) ? 1 : 0),
      buffer_(page_size, 0) {
  Reset();
}

void ColumnPageBuilder::Reset() {
  std::memset(buffer_.data(), 0, buffer_.size());
  page_writer_ =
      std::make_unique<PageWriter>(buffer_.data(), page_size_, meta_count_);
  codec_->BeginPage();
}

uint32_t ColumnPageBuilder::capacity() const {
  return static_cast<uint32_t>(page_writer_->payload_capacity_bits() /
                               static_cast<size_t>(codec_->encoded_bits()));
}

AppendResult ColumnPageBuilder::Append(const uint8_t* raw_value) {
  BitWriter* w = page_writer_->writer();
  const size_t start = w->bit_pos();
  if (start + static_cast<size_t>(codec_->encoded_bits()) >
      page_writer_->payload_capacity_bits()) {
    return AppendResult::kPageFull;
  }
  if (!codec_->EncodeValue(raw_value, w)) {
    w->TruncateTo(start);
    return page_writer_->count() == 0 ? AppendResult::kUnencodable
                                      : AppendResult::kPageFull;
  }
  page_writer_->IncrementCount();
  return AppendResult::kOk;
}

Status ColumnPageBuilder::Finish(uint32_t page_id) {
  std::vector<CodecPageMeta> metas;
  if (meta_count_ == 1) {
    CodecPageMeta meta;
    codec_->FinishPage(&meta);
    metas.push_back(meta);
  }
  return page_writer_->Finish(page_id, metas);
}

Result<ColumnPageReader> ColumnPageReader::Open(const PageView& view,
                                                AttributeCodec* codec) {
  if (codec == nullptr) {
    return Status::InvalidArgument("ColumnPageReader requires a codec");
  }
  const int want_meta = CodecNeedsPageMeta(codec->kind()) ? 1 : 0;
  if (view.meta_count() != want_meta) {
    return Status::Corruption("column page meta count mismatch");
  }
  const size_t need = static_cast<size_t>(view.count()) *
                      static_cast<size_t>(codec->encoded_bits());
  if (need > view.payload_bits()) {
    return Status::Corruption("column page count overflows payload");
  }
  const CodecPageMeta meta = want_meta == 1 ? view.meta(0) : CodecPageMeta{};
  codec->BeginDecode(meta);
  return ColumnPageReader(view, codec, meta);
}

}  // namespace rodb
