#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/bytes.h"
#include "storage/pax_page.h"
#include "test_util.h"

namespace rodb {
namespace {

struct Codecs {
  std::vector<std::unique_ptr<AttributeCodec>> owned;
  std::vector<AttributeCodec*> raw;

  void Add(CodecSpec spec, int width, Dictionary* dict = nullptr) {
    auto codec = MakeCodec(spec, width, dict);
    ASSERT_TRUE(codec.ok()) << codec.status().ToString();
    raw.push_back(codec->get());
    owned.push_back(std::move(codec).value());
  }
};

Schema TwoIntOneText() {
  auto schema = Schema::Make({AttributeDesc::Int32("a"),
                              AttributeDesc::Int32("b"),
                              AttributeDesc::Text("t", 6)});
  EXPECT_TRUE(schema.ok());
  return std::move(schema).value();
}

TEST(PaxGeometryTest, CapacityAndOffsets) {
  Codecs codecs;
  codecs.Add(CodecSpec::None(), 4);
  codecs.Add(CodecSpec::None(), 4);
  codecs.Add(CodecSpec::None(), 6);
  ASSERT_OK_AND_ASSIGN(PaxGeometry geometry,
                       PaxGeometry::Make(codecs.raw, 4096));
  // 4072 payload bytes / 14 bytes per tuple = 290 tuples.
  EXPECT_EQ(geometry.capacity, 290u);
  EXPECT_EQ(geometry.minipage_offsets[0], 0u);
  EXPECT_EQ(geometry.minipage_bytes[0], 290u * 4);
  EXPECT_EQ(geometry.minipage_offsets[1], 290u * 4);
  EXPECT_EQ(geometry.minipage_offsets[2], 290u * 8);
  EXPECT_EQ(geometry.minipage_bytes[2], 290u * 6);
}

TEST(PaxGeometryTest, BitPackedMinipagesByteAligned) {
  Codecs codecs;
  codecs.Add(CodecSpec::BitPack(3), 4);
  codecs.Add(CodecSpec::BitPack(5), 4);
  ASSERT_OK_AND_ASSIGN(PaxGeometry geometry,
                       PaxGeometry::Make(codecs.raw, 4096));
  // 4072 * 8 / 8 bits = 4072 tuples; byte rounding may shave a little.
  EXPECT_GE(geometry.capacity, 4070u);
  const uint64_t total = geometry.minipage_bytes[0] + geometry.minipage_bytes[1];
  EXPECT_LE(total, 4072u);
  EXPECT_EQ(geometry.minipage_bytes[0],
            (geometry.capacity * 3 + 7) / 8);
}

TEST(PaxGeometryTest, RejectsImpossiblePages) {
  Codecs codecs;
  codecs.Add(CodecSpec::None(), 4000);
  EXPECT_FALSE(PaxGeometry::Make(codecs.raw, 512).ok());
  EXPECT_FALSE(PaxGeometry::Make({}, 4096).ok());
}

TEST(PaxPageTest, RoundTripsTuples) {
  Schema schema = TwoIntOneText();
  Codecs codecs;
  codecs.Add(CodecSpec::None(), 4);
  codecs.Add(CodecSpec::None(), 4);
  codecs.Add(CodecSpec::None(), 6);
  ASSERT_OK_AND_ASSIGN(auto builder,
                       PaxPageBuilder::Make(&schema, codecs.raw, 1024));
  std::vector<std::vector<uint8_t>> tuples;
  uint8_t tuple[14];
  int n = 0;
  while (true) {
    StoreLE32s(tuple, n);
    StoreLE32s(tuple + 4, -n * 3);
    std::memcpy(tuple + 8, "abcdef", 6);
    tuple[8] = static_cast<uint8_t>('a' + n % 26);
    const AppendResult r = builder->Append(tuple);
    if (r == AppendResult::kPageFull) break;
    ASSERT_EQ(r, AppendResult::kOk);
    tuples.emplace_back(tuple, tuple + 14);
    ++n;
  }
  EXPECT_EQ(static_cast<uint32_t>(n), builder->capacity());
  ASSERT_OK(builder->Finish(5));

  // The page carries the PAX flag and a valid checksum.
  ASSERT_OK_AND_ASSIGN(PageView view,
                       PageView::Parse(builder->data(), 1024, true));
  EXPECT_EQ(view.flags() & kPageFlagPax, kPageFlagPax);
  EXPECT_EQ(view.page_id(), 5u);

  Codecs read_codecs;
  read_codecs.Add(CodecSpec::None(), 4);
  read_codecs.Add(CodecSpec::None(), 4);
  read_codecs.Add(CodecSpec::None(), 6);
  ASSERT_OK_AND_ASSIGN(PaxPageReader reader,
                       PaxPageReader::Open(view, &schema, read_codecs.raw));
  ASSERT_EQ(reader.count(), static_cast<uint32_t>(n));
  // Column-at-a-time read of attribute 1.
  for (int i = 0; i < n; ++i) {
    uint8_t out[4];
    reader.DecodeNext(1, out);
    EXPECT_EQ(LoadLE32s(out), -i * 3);
  }
  // Independent cursor on attribute 2 with skipping.
  reader.SkipValues(2, static_cast<uint64_t>(n - 1));
  uint8_t text[6];
  reader.DecodeNext(2, text);
  EXPECT_EQ(text[0], static_cast<uint8_t>('a' + (n - 1) % 26));
}

TEST(PaxPageTest, CompressedAttributesWithMetas) {
  auto schema = Schema::Make(
      {AttributeDesc::Int32("key", CodecSpec::ForDelta(8)),
       AttributeDesc::Int32("qty", CodecSpec::BitPack(6))});
  ASSERT_OK(schema.status());
  Codecs codecs;
  codecs.Add(CodecSpec::ForDelta(8), 4);
  codecs.Add(CodecSpec::BitPack(6), 4);
  ASSERT_OK_AND_ASSIGN(auto builder,
                       PaxPageBuilder::Make(&*schema, codecs.raw, 512));
  uint8_t tuple[8];
  for (int i = 0; i < 100; ++i) {
    StoreLE32s(tuple, 9000 + i);
    StoreLE32s(tuple + 4, i % 50);
    ASSERT_EQ(builder->Append(tuple), AppendResult::kOk) << i;
  }
  ASSERT_OK(builder->Finish(0));
  ASSERT_OK_AND_ASSIGN(PageView view, PageView::Parse(builder->data(), 512));
  EXPECT_EQ(view.meta_count(), 1);
  EXPECT_EQ(view.meta(0).base, 9000);

  Codecs read;
  read.Add(CodecSpec::ForDelta(8), 4);
  read.Add(CodecSpec::BitPack(6), 4);
  ASSERT_OK_AND_ASSIGN(PaxPageReader reader,
                       PaxPageReader::Open(view, &*schema, read.raw));
  uint8_t out[4];
  for (int i = 0; i < 100; ++i) {
    reader.DecodeNext(0, out);
    EXPECT_EQ(LoadLE32s(out), 9000 + i);
  }
  for (int i = 0; i < 100; ++i) {
    reader.DecodeNext(1, out);
    EXPECT_EQ(LoadLE32s(out), i % 50);
  }
}

TEST(PaxPageTest, UnencodableValueRollsBackAllMinipages) {
  auto schema = Schema::Make(
      {AttributeDesc::Int32("a", CodecSpec::BitPack(8)),
       AttributeDesc::Int32("b", CodecSpec::BitPack(4))});
  ASSERT_OK(schema.status());
  Codecs codecs;
  codecs.Add(CodecSpec::BitPack(8), 4);
  codecs.Add(CodecSpec::BitPack(4), 4);
  ASSERT_OK_AND_ASSIGN(auto builder,
                       PaxPageBuilder::Make(&*schema, codecs.raw, 512));
  uint8_t tuple[8];
  StoreLE32s(tuple, 200);
  StoreLE32s(tuple + 4, 99);  // does not fit 4 bits
  EXPECT_EQ(builder->Append(tuple), AppendResult::kUnencodable);
  EXPECT_EQ(builder->count(), 0u);
  // Attribute a's partial write was rolled back: a valid tuple encodes
  // into a clean page.
  StoreLE32s(tuple + 4, 9);
  EXPECT_EQ(builder->Append(tuple), AppendResult::kOk);
  ASSERT_OK(builder->Finish(0));
  Codecs read;
  read.Add(CodecSpec::BitPack(8), 4);
  read.Add(CodecSpec::BitPack(4), 4);
  ASSERT_OK_AND_ASSIGN(PageView view, PageView::Parse(builder->data(), 512));
  ASSERT_OK_AND_ASSIGN(PaxPageReader reader,
                       PaxPageReader::Open(view, &*schema, read.raw));
  uint8_t out[4];
  reader.DecodeNext(0, out);
  EXPECT_EQ(LoadLE32s(out), 200);
  reader.DecodeNext(1, out);
  EXPECT_EQ(LoadLE32s(out), 9);
}

TEST(PaxPageReaderTest, RejectsNonPaxPagesAndMismatches) {
  Schema schema = TwoIntOneText();
  Codecs codecs;
  codecs.Add(CodecSpec::None(), 4);
  codecs.Add(CodecSpec::None(), 4);
  codecs.Add(CodecSpec::None(), 6);
  // A plain (non-PAX) page is rejected.
  std::vector<uint8_t> plain(1024, 0);
  PageWriter writer(plain.data(), plain.size(), 0);
  ASSERT_OK(writer.Finish(0, {}));
  ASSERT_OK_AND_ASSIGN(PageView plain_view,
                       PageView::Parse(plain.data(), 1024));
  EXPECT_TRUE(PaxPageReader::Open(plain_view, &schema, codecs.raw)
                  .status()
                  .IsCorruption());
  // Codec count mismatch.
  ASSERT_OK_AND_ASSIGN(auto builder,
                       PaxPageBuilder::Make(&schema, codecs.raw, 1024));
  ASSERT_OK(builder->Finish(0));
  Codecs two;
  two.Add(CodecSpec::None(), 4);
  two.Add(CodecSpec::None(), 4);
  ASSERT_OK_AND_ASSIGN(PageView view, PageView::Parse(builder->data(), 1024));
  EXPECT_FALSE(PaxPageReader::Open(view, &schema, two.raw).ok());
}

}  // namespace
}  // namespace rodb
