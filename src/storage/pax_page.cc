#include "storage/pax_page.h"

#include <cstring>

#include "common/bytes.h"
#include "common/macros.h"

namespace rodb {

namespace {

int CountMetaCodecs(const std::vector<AttributeCodec*>& codecs) {
  int metas = 0;
  for (const AttributeCodec* codec : codecs) {
    metas += CodecNeedsPageMeta(codec->kind()) ? 1 : 0;
  }
  return metas;
}

}  // namespace

Result<PaxGeometry> PaxGeometry::Make(
    const std::vector<AttributeCodec*>& codecs, size_t page_size) {
  if (codecs.empty()) {
    return Status::InvalidArgument("PAX geometry needs attributes");
  }
  const size_t payload =
      PagePayloadCapacity(page_size, CountMetaCodecs(codecs));
  uint64_t tuple_bits = 0;
  for (const AttributeCodec* codec : codecs) {
    tuple_bits += static_cast<uint64_t>(codec->encoded_bits());
  }
  if (tuple_bits == 0) return Status::InvalidArgument("zero tuple width");
  uint64_t capacity = payload * 8 / tuple_bits;
  // Byte-aligning each minipage costs at most one byte per attribute;
  // shrink until everything fits.
  auto total_bytes = [&codecs](uint64_t cap) {
    uint64_t bytes = 0;
    for (const AttributeCodec* codec : codecs) {
      bytes += (cap * static_cast<uint64_t>(codec->encoded_bits()) + 7) / 8;
    }
    return bytes;
  };
  while (capacity > 0 && total_bytes(capacity) > payload) --capacity;
  if (capacity == 0) {
    return Status::InvalidArgument("page too small for one PAX tuple");
  }
  PaxGeometry geometry;
  geometry.capacity = static_cast<uint32_t>(capacity);
  size_t offset = 0;
  for (const AttributeCodec* codec : codecs) {
    const size_t bytes =
        (capacity * static_cast<uint64_t>(codec->encoded_bits()) + 7) / 8;
    geometry.minipage_offsets.push_back(offset);
    geometry.minipage_bytes.push_back(bytes);
    offset += bytes;
  }
  return geometry;
}

PaxPageBuilder::PaxPageBuilder(const Schema* schema,
                               std::vector<AttributeCodec*> codecs,
                               size_t page_size, PaxGeometry geometry)
    : schema_(schema), codecs_(std::move(codecs)), page_size_(page_size),
      geometry_(std::move(geometry)), meta_count_(CountMetaCodecs(codecs_)),
      buffer_(page_size, 0) {
  Reset();
}

Result<std::unique_ptr<PaxPageBuilder>> PaxPageBuilder::Make(
    const Schema* schema, std::vector<AttributeCodec*> codecs,
    size_t page_size) {
  if (schema == nullptr || codecs.size() != schema->num_attributes()) {
    return Status::InvalidArgument("PAX builder: schema/codec mismatch");
  }
  RODB_ASSIGN_OR_RETURN(PaxGeometry geometry,
                        PaxGeometry::Make(codecs, page_size));
  return std::unique_ptr<PaxPageBuilder>(new PaxPageBuilder(
      schema, std::move(codecs), page_size, std::move(geometry)));
}

void PaxPageBuilder::Reset() {
  std::memset(buffer_.data(), 0, buffer_.size());
  writers_.clear();
  for (size_t a = 0; a < codecs_.size(); ++a) {
    writers_.emplace_back(
        buffer_.data() + kPageHeaderBytes + geometry_.minipage_offsets[a],
        geometry_.minipage_bytes[a]);
    codecs_[a]->BeginPage();
  }
  count_ = 0;
}

AppendResult PaxPageBuilder::Append(const uint8_t* raw_tuple) {
  if (count_ >= geometry_.capacity) return AppendResult::kPageFull;
  // Record cursor positions for transactional rollback.
  std::vector<size_t> marks(codecs_.size());
  for (size_t a = 0; a < codecs_.size(); ++a) marks[a] = writers_[a].bit_pos();
  for (size_t a = 0; a < codecs_.size(); ++a) {
    const uint8_t* value =
        raw_tuple + static_cast<size_t>(schema_->attr_offset(a));
    if (!codecs_[a]->EncodeValue(value, &writers_[a])) {
      for (size_t b = 0; b <= a; ++b) writers_[b].TruncateTo(marks[b]);
      return count_ == 0 ? AppendResult::kUnencodable
                         : AppendResult::kPageFull;
    }
  }
  ++count_;
  return AppendResult::kOk;
}

Status PaxPageBuilder::Finish(uint32_t page_id) {
  std::vector<CodecPageMeta> metas;
  for (AttributeCodec* codec : codecs_) {
    if (CodecNeedsPageMeta(codec->kind())) {
      CodecPageMeta meta;
      codec->FinishPage(&meta);
      metas.push_back(meta);
    }
  }
  const size_t last = codecs_.size() - 1;
  const uint32_t payload_bits = static_cast<uint32_t>(
      (geometry_.minipage_offsets[last] + geometry_.minipage_bytes[last]) * 8);
  return SealPage(buffer_.data(), page_size_, count_, payload_bits, metas,
                  page_id, kPageFlagPax);
}

Result<PaxPageReader> PaxPageReader::Open(
    const PageView& view, const Schema* schema,
    const std::vector<AttributeCodec*>& codecs) {
  if (schema == nullptr || codecs.size() != schema->num_attributes()) {
    return Status::InvalidArgument("PAX reader: schema/codec mismatch");
  }
  if ((view.flags() & kPageFlagPax) == 0) {
    return Status::Corruption("not a PAX page");
  }
  RODB_ASSIGN_OR_RETURN(PaxGeometry geometry,
                        PaxGeometry::Make(codecs, view.page_size()));
  if (view.count() > geometry.capacity) {
    return Status::Corruption("PAX page count overflows capacity");
  }
  if (view.meta_count() != CountMetaCodecs(codecs)) {
    return Status::Corruption("PAX page meta count mismatch");
  }
  std::vector<BitReader> readers;
  std::vector<CodecPageMeta> metas;
  readers.reserve(codecs.size());
  metas.reserve(codecs.size());
  int meta_index = 0;
  for (size_t a = 0; a < codecs.size(); ++a) {
    readers.emplace_back(
        view.payload() + geometry.minipage_offsets[a],
        geometry.minipage_bytes[a]);
    metas.push_back(CodecNeedsPageMeta(codecs[a]->kind())
                        ? view.meta(meta_index++)
                        : CodecPageMeta{});
    codecs[a]->BeginDecode(metas.back());
  }
  return PaxPageReader(view, codecs, std::move(readers), std::move(metas));
}

void PaxPageReader::SkipValues(size_t attr, uint64_t n) {
  AttributeCodec* codec = codecs_[attr];
  if (codec->kind() == CompressionKind::kForDelta) {
    for (uint64_t i = 0; i < n; ++i) codec->SkipValue(&readers_[attr]);
    return;
  }
  readers_[attr].Skip(n * static_cast<uint64_t>(codec->encoded_bits()));
}

}  // namespace rodb
