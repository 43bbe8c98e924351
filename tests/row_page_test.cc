#include <gtest/gtest.h>

#include <cstring>

#include <vector>

#include "common/bytes.h"
#include "storage/row_page.h"
#include "test_util.h"

namespace rodb {
namespace {

Schema UncompressedSchema() {
  auto schema = Schema::Make(
      {AttributeDesc::Int32("a"), AttributeDesc::Text("b", 6)});
  EXPECT_TRUE(schema.ok());
  return std::move(schema).value();
}

std::vector<uint8_t> MakeTuple(int32_t a, const char* b) {
  std::vector<uint8_t> t(10, ' ');
  StoreLE32s(t.data(), a);
  std::memcpy(t.data() + 4, b, std::min<size_t>(std::strlen(b), 6));
  return t;
}

TEST(RowPageBuilderTest, UncompressedCapacityAndRoundTrip) {
  Schema schema = UncompressedSchema();
  ASSERT_EQ(schema.padded_tuple_width(), 12);
  RowPageBuilder builder(&schema, nullptr, 4096);
  // (4096 - 4 - 16) / 12 = 339 tuples.
  EXPECT_EQ(builder.capacity(), 339u);
  int appended = 0;
  while (true) {
    auto t = MakeTuple(appended, "hello");
    const AppendResult r = builder.Append(t.data());
    if (r == AppendResult::kPageFull) break;
    ASSERT_EQ(r, AppendResult::kOk);
    ++appended;
  }
  EXPECT_EQ(appended, 339);
  ASSERT_OK(builder.Finish(3));

  ASSERT_OK_AND_ASSIGN(PageView view, PageView::Parse(builder.data(), 4096));
  ASSERT_OK_AND_ASSIGN(RowPageReader reader,
                       RowPageReader::Open(view, &schema, nullptr));
  EXPECT_EQ(reader.count(), 339u);
  EXPECT_EQ(reader.page_id(), 3u);
  EXPECT_FALSE(reader.compressed());
  // Zero-copy access.
  EXPECT_EQ(LoadLE32s(reader.TupleAt(100)), 100);
  EXPECT_EQ(std::memcmp(reader.TupleAt(0) + 4, "hello ", 6), 0);
  // Sequential decode matches too.
  std::vector<uint8_t> out(10);
  for (int i = 0; i < 5; ++i) {
    reader.DecodeNext(out.data());
    EXPECT_EQ(LoadLE32s(out.data()), i);
  }
}

TEST(RowPageBuilderTest, ResetStartsFresh) {
  Schema schema = UncompressedSchema();
  RowPageBuilder builder(&schema, nullptr, 512);
  auto t = MakeTuple(1, "x");
  ASSERT_EQ(builder.Append(t.data()), AppendResult::kOk);
  EXPECT_EQ(builder.count(), 1u);
  builder.Reset();
  EXPECT_EQ(builder.count(), 0u);
  ASSERT_EQ(builder.Append(t.data()), AppendResult::kOk);
  ASSERT_OK(builder.Finish(0));
  ASSERT_OK_AND_ASSIGN(PageView view, PageView::Parse(builder.data(), 512));
  ASSERT_OK_AND_ASSIGN(RowPageReader reader,
                       RowPageReader::Open(view, &schema, nullptr));
  EXPECT_EQ(reader.count(), 1u);
}

struct CompressedFixture {
  Schema schema;
  std::vector<std::unique_ptr<AttributeCodec>> owned;
  std::unique_ptr<RowCodec> codec;

  CompressedFixture() {
    auto s = Schema::Make(
        {AttributeDesc::Int32("key", CodecSpec::ForDelta(8)),
         AttributeDesc::Int32("qty", CodecSpec::BitPack(6))});
    EXPECT_TRUE(s.ok());
    schema = std::move(s).value();
    std::vector<AttributeCodec*> raw;
    for (size_t i = 0; i < schema.num_attributes(); ++i) {
      auto c = MakeCodec(schema.attribute(i).codec, 4, nullptr);
      EXPECT_TRUE(c.ok());
      raw.push_back(c->get());
      owned.push_back(std::move(c).value());
    }
    codec = std::make_unique<RowCodec>(raw);
  }
};

TEST(RowPageBuilderTest, CompressedRoundTrip) {
  CompressedFixture fx;
  EXPECT_EQ(fx.codec->encoded_tuple_bytes(), 2);  // 14 bits -> 2 bytes
  RowPageBuilder builder(&fx.schema, fx.codec.get(), 1024);
  std::vector<std::pair<int32_t, int32_t>> rows;
  int32_t key = 500;
  for (int i = 0; i < 100; ++i) {
    key += i % 2;
    const int32_t qty = i % 50;
    uint8_t tuple[8];
    StoreLE32s(tuple, key);
    StoreLE32s(tuple + 4, qty);
    ASSERT_EQ(builder.Append(tuple), AppendResult::kOk) << i;
    rows.emplace_back(key, qty);
  }
  ASSERT_OK(builder.Finish(9));
  ASSERT_OK_AND_ASSIGN(PageView view, PageView::Parse(builder.data(), 1024));
  ASSERT_OK_AND_ASSIGN(RowPageReader reader,
                       RowPageReader::Open(view, &fx.schema, fx.codec.get()));
  EXPECT_EQ(reader.count(), 100u);
  EXPECT_TRUE(reader.compressed());
  for (const auto& [k, q] : rows) {
    uint8_t out[8];
    reader.DecodeNext(out);
    EXPECT_EQ(LoadLE32s(out), k);
    EXPECT_EQ(LoadLE32s(out + 4), q);
  }
}

TEST(RowPageBuilderTest, UnencodableValueReported) {
  CompressedFixture fx;
  RowPageBuilder builder(&fx.schema, fx.codec.get(), 1024);
  uint8_t tuple[8];
  StoreLE32s(tuple, 10);
  StoreLE32s(tuple + 4, 64);  // exceeds 6-bit quantity
  EXPECT_EQ(builder.Append(tuple), AppendResult::kUnencodable);
}

TEST(RowPageBuilderTest, PageFullMidTupleRollsBack) {
  CompressedFixture fx;
  // Tiny page: fits only a few 2-byte tuples.
  RowPageBuilder builder(&fx.schema, fx.codec.get(), 64);
  uint8_t tuple[8];
  int appended = 0;
  for (int i = 0; i < 100; ++i) {
    StoreLE32s(tuple, 100 + i);
    StoreLE32s(tuple + 4, i % 50);
    const AppendResult r = builder.Append(tuple);
    if (r != AppendResult::kOk) {
      EXPECT_EQ(r, AppendResult::kPageFull);
      break;
    }
    ++appended;
  }
  ASSERT_GT(appended, 0);
  ASSERT_OK(builder.Finish(0));
  ASSERT_OK_AND_ASSIGN(PageView view, PageView::Parse(builder.data(), 64));
  ASSERT_OK_AND_ASSIGN(RowPageReader reader,
                       RowPageReader::Open(view, &fx.schema, fx.codec.get()));
  EXPECT_EQ(reader.count(), static_cast<uint32_t>(appended));
  uint8_t out[8];
  for (int i = 0; i < appended; ++i) {
    reader.DecodeNext(out);
    EXPECT_EQ(LoadLE32s(out), 100 + i);
  }
}

TEST(RowPageReaderTest, OpenValidatesCodecPresence) {
  Schema schema = UncompressedSchema();
  RowPageBuilder builder(&schema, nullptr, 512);
  ASSERT_OK(builder.Finish(0));
  CompressedFixture fx;
  ASSERT_OK_AND_ASSIGN(PageView view, PageView::Parse(builder.data(), 512));
  EXPECT_FALSE(RowPageReader::Open(view, &schema, fx.codec.get()).ok());
  EXPECT_FALSE(RowPageReader::Open(view, nullptr, nullptr).ok());
}

TEST(RowPageReaderTest, CorruptCountRejected) {
  Schema schema = UncompressedSchema();
  RowPageBuilder builder(&schema, nullptr, 512);
  auto t = MakeTuple(1, "x");
  ASSERT_EQ(builder.Append(t.data()), AppendResult::kOk);
  ASSERT_OK(builder.Finish(0));
  std::vector<uint8_t> page(builder.data(), builder.data() + 512);
  StoreLE32(page.data(), 100000);  // count overflows payload
  ASSERT_OK_AND_ASSIGN(PageView view, PageView::Parse(page.data(), 512));
  EXPECT_TRUE(
      RowPageReader::Open(view, &schema, nullptr).status().IsCorruption());
}

TEST(RowPageReaderTest, CompressedCountCheckedAgainstPayload) {
  // A compressed page's count is bounded by its payload just like an
  // uncompressed one's: otherwise a count of 0xFFFFFFFF (checksums off)
  // decodes ~4.29 billion tuples from past the payload.
  CompressedFixture fx;
  RowPageBuilder builder(&fx.schema, fx.codec.get(), 256);
  uint8_t tuple[8];
  for (int i = 0; i < 1000; ++i) {
    StoreLE32s(tuple, 100 + i);
    StoreLE32s(tuple + 4, i % 50);
    if (builder.Append(tuple) != AppendResult::kOk) break;
  }
  const uint32_t full = builder.capacity();
  ASSERT_EQ(builder.count(), full);
  ASSERT_OK(builder.Finish(0));
  std::vector<uint8_t> page(builder.data(), builder.data() + 256);
  for (const uint32_t count : {full, full + 1, 0xFFFFFFFFu}) {
    SCOPED_TRACE(count);
    StoreLE32(page.data(), count);
    ASSERT_OK_AND_ASSIGN(PageView view, PageView::Parse(page.data(), 256));
    const Status status =
        RowPageReader::Open(view, &fx.schema, fx.codec.get()).status();
    if (count == full) {
      EXPECT_OK(status);
    } else {
      EXPECT_TRUE(status.IsCorruption()) << status.ToString();
      EXPECT_EQ(status.message(), "row page count overflows payload");
    }
  }
}

}  // namespace
}  // namespace rodb
