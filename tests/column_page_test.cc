#include <gtest/gtest.h>

#include <vector>

#include "common/bytes.h"
#include "storage/column_page.h"
#include "test_util.h"

namespace rodb {
namespace {

std::unique_ptr<AttributeCodec> Codec(CodecSpec spec) {
  auto c = MakeCodec(spec, 4, nullptr);
  EXPECT_TRUE(c.ok());
  return std::move(c).value();
}

TEST(ColumnPageBuilderTest, BitPackedCapacity) {
  auto codec = Codec(CodecSpec::BitPack(3));
  ColumnPageBuilder builder(codec.get(), 4096);
  // (4096 - 24) * 8 / 3 = 10858 values per page.
  EXPECT_EQ(builder.capacity(), (4096u - 24) * 8 / 3);
}

TEST(ColumnPageBuilderTest, FillsAndRoundTrips) {
  auto codec = Codec(CodecSpec::BitPack(6));
  ColumnPageBuilder builder(codec.get(), 512);
  int n = 0;
  uint8_t raw[4];
  while (true) {
    StoreLE32s(raw, n % 50);
    const AppendResult r = builder.Append(raw);
    if (r == AppendResult::kPageFull) break;
    ASSERT_EQ(r, AppendResult::kOk);
    ++n;
  }
  EXPECT_EQ(static_cast<uint32_t>(n), builder.capacity());
  ASSERT_OK(builder.Finish(12));
  ASSERT_OK_AND_ASSIGN(PageView view, PageView::Parse(builder.data(), 512));
  ASSERT_OK_AND_ASSIGN(ColumnPageReader reader,
                       ColumnPageReader::Open(view, codec.get()));
  EXPECT_EQ(reader.count(), static_cast<uint32_t>(n));
  EXPECT_EQ(reader.page_id(), 12u);
  for (int i = 0; i < n; ++i) {
    uint8_t out[4];
    reader.DecodeNext(out);
    EXPECT_EQ(LoadLE32s(out), i % 50);
  }
}

TEST(ColumnPageBuilderTest, ForDeltaStoresBaseInTrailer) {
  auto codec = Codec(CodecSpec::ForDelta(8));
  ColumnPageBuilder builder(codec.get(), 256);
  uint8_t raw[4];
  for (int i = 0; i < 10; ++i) {
    StoreLE32s(raw, 7777 + i);
    ASSERT_EQ(builder.Append(raw), AppendResult::kOk);
  }
  ASSERT_OK(builder.Finish(0));
  ASSERT_OK_AND_ASSIGN(PageView view, PageView::Parse(builder.data(), 256));
  EXPECT_EQ(view.meta_count(), 1);
  EXPECT_EQ(view.meta(0).base, 7777);
  ASSERT_OK_AND_ASSIGN(ColumnPageReader reader,
                       ColumnPageReader::Open(view, codec.get()));
  uint8_t out[4];
  for (int i = 0; i < 10; ++i) {
    reader.DecodeNext(out);
    EXPECT_EQ(LoadLE32s(out), 7777 + i);
  }
}

TEST(ColumnPageBuilderTest, ForOverflowEndsPageEarly) {
  auto codec = Codec(CodecSpec::For(8));
  ColumnPageBuilder builder(codec.get(), 4096);
  uint8_t raw[4];
  StoreLE32s(raw, 0);
  ASSERT_EQ(builder.Append(raw), AppendResult::kOk);
  StoreLE32s(raw, 300);  // diff 300 needs 9 bits
  EXPECT_EQ(builder.Append(raw), AppendResult::kPageFull);
  // On a fresh page the same value becomes the new base and encodes fine.
  ASSERT_OK(builder.Finish(0));
  builder.Reset();
  EXPECT_EQ(builder.Append(raw), AppendResult::kOk);
}

TEST(ColumnPageReaderTest, SkipValuesFixedWidth) {
  auto codec = Codec(CodecSpec::BitPack(10));
  ColumnPageBuilder builder(codec.get(), 1024);
  uint8_t raw[4];
  for (int i = 0; i < 200; ++i) {
    StoreLE32s(raw, i);
    ASSERT_EQ(builder.Append(raw), AppendResult::kOk);
  }
  ASSERT_OK(builder.Finish(0));
  ASSERT_OK_AND_ASSIGN(PageView view, PageView::Parse(builder.data(), 1024));
  ASSERT_OK_AND_ASSIGN(ColumnPageReader reader,
                       ColumnPageReader::Open(view, codec.get()));
  reader.SkipValues(150);
  uint8_t out[4];
  reader.DecodeNext(out);
  EXPECT_EQ(LoadLE32s(out), 150);
}

TEST(ColumnPageReaderTest, SkipValuesForDeltaKeepsState) {
  auto codec = Codec(CodecSpec::ForDelta(8));
  ColumnPageBuilder builder(codec.get(), 1024);
  uint8_t raw[4];
  int32_t v = 1000;
  for (int i = 0; i < 100; ++i) {
    v += i % 3;
    StoreLE32s(raw, v);
    ASSERT_EQ(builder.Append(raw), AppendResult::kOk);
  }
  ASSERT_OK(builder.Finish(0));
  // Re-derive expected value at index 60.
  int32_t expect = 1000;
  for (int i = 0; i <= 60; ++i) expect += i % 3;
  // Note: first value uses i=0 -> +0; reconstruct by replay.
  int32_t replay = 1000;
  std::vector<int32_t> values;
  for (int i = 0; i < 100; ++i) {
    replay += i % 3;
    values.push_back(replay);
  }
  ASSERT_OK_AND_ASSIGN(PageView view, PageView::Parse(builder.data(), 1024));
  ASSERT_OK_AND_ASSIGN(ColumnPageReader reader,
                       ColumnPageReader::Open(view, codec.get()));
  reader.SkipValues(60);
  uint8_t out[4];
  reader.DecodeNext(out);
  EXPECT_EQ(LoadLE32s(out), values[60]);
  (void)expect;
}

TEST(ColumnPageReaderTest, RejectsNullCodecAndMetaMismatch) {
  auto pack = Codec(CodecSpec::BitPack(8));
  ColumnPageBuilder builder(pack.get(), 256);
  uint8_t raw[4];
  StoreLE32s(raw, 1);
  ASSERT_EQ(builder.Append(raw), AppendResult::kOk);
  ASSERT_OK(builder.Finish(0));
  ASSERT_OK_AND_ASSIGN(PageView view, PageView::Parse(builder.data(), 256));
  EXPECT_FALSE(ColumnPageReader::Open(view, nullptr).ok());
  // A FOR codec expects one meta; the bit-packed page has none.
  auto fr = Codec(CodecSpec::For(8));
  EXPECT_TRUE(ColumnPageReader::Open(view, fr.get()).status().IsCorruption());
}

}  // namespace
}  // namespace rodb
