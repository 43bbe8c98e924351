// ReadAllTuples -- the ingest merge's read phase and the decoder behind
// rodbctl verify/advise -- must return exactly the tuples a bulk load
// wrote, in order, for every layout, plain and compressed.

#include <gtest/gtest.h>

#include <cstring>
#include <tuple>

#include "common/bytes.h"
#include "scan_test_util.h"
#include "wos/ingest_store.h"

namespace rodb {
namespace {

using rodb::testing::LayoutSuffix;
using rodb::testing::LoadLayouts;
using rodb::testing::TempDir;

class ReadAllTuplesTest
    : public ::testing::TestWithParam<std::tuple<Layout, bool>> {};

TEST_P(ReadAllTuplesTest, RoundTripsBulkLoad) {
  const auto [layout, compressed] = GetParam();
  auto schema = Schema::Make(
      {AttributeDesc::Int32(
           "key", compressed ? CodecSpec::ForDelta(8) : CodecSpec::None()),
       AttributeDesc::Int32(
           "val", compressed ? CodecSpec::BitPack(10) : CodecSpec::None()),
       AttributeDesc::Text(
           "tag", 4, compressed ? CodecSpec::Dict(2) : CodecSpec::None())});
  ASSERT_OK(schema.status());
  std::vector<std::vector<uint8_t>> tuples;
  static const char* kTags[] = {"AAAA", "BBBB", "CCCC", "DDDD"};
  for (int i = 0; i < 5000; ++i) {
    std::vector<uint8_t> t(12);
    StoreLE32s(t.data(), 3 * i);
    StoreLE32s(t.data() + 4, (i * 37) % 1000);
    std::memcpy(t.data() + 8, kTags[i % 7 % 4], 4);
    tuples.push_back(std::move(t));
  }
  TempDir dir;
  // Small pages so every layout spans many of them.
  ASSERT_OK(LoadLayouts(dir.path(), "t", *schema, tuples, {layout}, 1024));
  ASSERT_OK_AND_ASSIGN(
      OpenTable table,
      OpenTable::Open(dir.path(), std::string("t") + LayoutSuffix(layout)));
  ASSERT_GT(table.meta().file_pages[0], 1u);
  ASSERT_OK_AND_ASSIGN(auto read, ReadAllTuples(table));
  EXPECT_EQ(read, tuples);
}

INSTANTIATE_TEST_SUITE_P(
    LayoutsAndCodecs, ReadAllTuplesTest,
    ::testing::Combine(::testing::Values(Layout::kRow, Layout::kColumn,
                                         Layout::kPax),
                       ::testing::Bool()));

}  // namespace
}  // namespace rodb
