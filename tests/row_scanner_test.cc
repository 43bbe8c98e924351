#include <gtest/gtest.h>

#include <cstring>

#include "common/bytes.h"
#include "engine/row_scanner.h"
#include "scan_test_util.h"

namespace rodb {
namespace {

using rodb::testing::CollectTuples;
using rodb::testing::LoadBothLayouts;
using rodb::testing::TempDir;

class RowScannerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto schema = Schema::Make({AttributeDesc::Int32("id"),
                                AttributeDesc::Int32("val"),
                                AttributeDesc::Text("tag", 3)});
    ASSERT_OK(schema.status());
    schema_ = std::move(schema).value();
    std::vector<std::vector<uint8_t>> tuples;
    for (int i = 0; i < 2500; ++i) {
      std::vector<uint8_t> t(11);
      StoreLE32s(t.data(), i);
      StoreLE32s(t.data() + 4, (i * 37) % 1000);
      const char* tag = (i % 3 == 0) ? "foo" : "bar";
      std::memcpy(t.data() + 8, tag, 3);
      tuples.push_back(std::move(t));
    }
    ASSERT_OK(LoadBothLayouts(dir_.path(), "t", schema_, tuples, 1024));
    auto table = OpenTable::Open(dir_.path(), "t_row");
    ASSERT_OK(table.status());
    table_ = std::move(table).value();
  }

  ScanSpec BaseSpec() {
    ScanSpec spec;
    spec.projection = {0, 1, 2};
    spec.read.io_unit_bytes = 4096;  // multiple of the 1024 page size
    spec.read.prefetch_depth = 4;
    return spec;
  }

  TempDir dir_;
  Schema schema_;
  OpenTable table_;
  FileBackend backend_;
  ExecStats stats_;
};

TEST_F(RowScannerTest, FullScanReturnsEveryTuple) {
  ASSERT_OK_AND_ASSIGN(
      auto scanner,
      RowScanner::Make(&table_, BaseSpec(), &backend_, &stats_));
  ASSERT_OK_AND_ASSIGN(auto tuples, CollectTuples(scanner.get()));
  ASSERT_EQ(tuples.size(), 2500u);
  EXPECT_EQ(LoadLE32s(tuples[0].data()), 0);
  EXPECT_EQ(LoadLE32s(tuples[2499].data()), 2499);
  EXPECT_EQ(stats_.counters().tuples_examined, 2500u);
  EXPECT_GT(stats_.counters().pages_parsed, 0u);
  EXPECT_GT(stats_.counters().io_bytes_read, 0u);
}

TEST_F(RowScannerTest, PredicateFilters) {
  ScanSpec spec = BaseSpec();
  spec.predicates = {Predicate::Int32(1, CompareOp::kLt, 100)};
  spec.prune = false;  // every tuple is evaluated
  ASSERT_OK_AND_ASSIGN(
      auto scanner, RowScanner::Make(&table_, spec, &backend_, &stats_));
  ASSERT_OK_AND_ASSIGN(auto tuples, CollectTuples(scanner.get()));
  for (const auto& t : tuples) {
    EXPECT_LT(LoadLE32s(t.data() + 4), 100);
  }
  // (i*37)%1000 < 100 for ~10% of tuples.
  EXPECT_NEAR(static_cast<double>(tuples.size()), 250.0, 50.0);
  EXPECT_EQ(stats_.counters().predicate_evals, 2500u);
}

TEST_F(RowScannerTest, ConjunctionShortCircuits) {
  ScanSpec spec = BaseSpec();
  spec.predicates = {Predicate::Int32(1, CompareOp::kLt, 100),
                     Predicate::Text(2, CompareOp::kEq, "foo")};
  ASSERT_OK_AND_ASSIGN(
      auto scanner, RowScanner::Make(&table_, spec, &backend_, &stats_));
  ASSERT_OK_AND_ASSIGN(auto tuples, CollectTuples(scanner.get()));
  for (const auto& t : tuples) {
    EXPECT_LT(LoadLE32s(t.data() + 4), 100);
    EXPECT_EQ(std::memcmp(t.data() + 8, "foo", 3), 0);
  }
  // Second predicate only evaluated for survivors of the first.
  EXPECT_LT(stats_.counters().predicate_evals, 2 * 2500u);
  EXPECT_GT(stats_.counters().predicate_evals, 2500u);
}

TEST_F(RowScannerTest, ProjectionSubsetAndOrder) {
  ScanSpec spec = BaseSpec();
  spec.projection = {2, 0};  // tag, id
  ASSERT_OK_AND_ASSIGN(
      auto scanner, RowScanner::Make(&table_, spec, &backend_, &stats_));
  EXPECT_EQ(scanner->output_layout().widths, (std::vector<int>{3, 4}));
  ASSERT_OK_AND_ASSIGN(auto tuples, CollectTuples(scanner.get()));
  ASSERT_EQ(tuples.size(), 2500u);
  EXPECT_EQ(std::memcmp(tuples[0].data(), "foo", 3), 0);
  EXPECT_EQ(LoadLE32s(tuples[10].data() + 3), 10);
}

TEST_F(RowScannerTest, PredicateAttrOutsideProjection) {
  ScanSpec spec = BaseSpec();
  spec.projection = {0};
  spec.predicates = {Predicate::Int32(1, CompareOp::kLt, 100)};
  ASSERT_OK_AND_ASSIGN(
      auto scanner, RowScanner::Make(&table_, spec, &backend_, &stats_));
  ASSERT_OK_AND_ASSIGN(auto tuples, CollectTuples(scanner.get()));
  EXPECT_GT(tuples.size(), 0u);
  EXPECT_EQ(scanner->output_layout().tuple_width, 4);
}

TEST_F(RowScannerTest, RowStoreReadsAllBytesRegardlessOfProjection) {
  // The defining row-store property: I/O does not shrink with projection.
  ScanSpec full = BaseSpec();
  ASSERT_OK_AND_ASSIGN(
      auto s1, RowScanner::Make(&table_, full, &backend_, &stats_));
  ASSERT_OK(CollectTuples(s1.get()).status());
  const uint64_t all_bytes = stats_.counters().io_bytes_read;

  ExecStats narrow_stats;
  ScanSpec narrow = BaseSpec();
  narrow.projection = {0};
  ASSERT_OK_AND_ASSIGN(
      auto s2, RowScanner::Make(&table_, narrow, &backend_, &narrow_stats));
  ASSERT_OK(CollectTuples(s2.get()).status());
  EXPECT_EQ(narrow_stats.counters().io_bytes_read, all_bytes);
}

TEST_F(RowScannerTest, SelectivityZeroAndOne) {
  ScanSpec none = BaseSpec();
  none.predicates = {Predicate::Int32(1, CompareOp::kLt, 0)};
  ASSERT_OK_AND_ASSIGN(
      auto s1, RowScanner::Make(&table_, none, &backend_, &stats_));
  ASSERT_OK_AND_ASSIGN(auto empty, CollectTuples(s1.get()));
  EXPECT_TRUE(empty.empty());

  ScanSpec all = BaseSpec();
  all.predicates = {Predicate::Int32(1, CompareOp::kGe, 0)};
  ExecStats stats2;
  ASSERT_OK_AND_ASSIGN(
      auto s2, RowScanner::Make(&table_, all, &backend_, &stats2));
  ASSERT_OK_AND_ASSIGN(auto everything, CollectTuples(s2.get()));
  EXPECT_EQ(everything.size(), 2500u);
}

TEST_F(RowScannerTest, MakeValidatesArguments) {
  ScanSpec spec = BaseSpec();
  EXPECT_FALSE(RowScanner::Make(nullptr, spec, &backend_, &stats_).ok());
  ScanSpec empty = spec;
  empty.projection = {};
  EXPECT_FALSE(RowScanner::Make(&table_, empty, &backend_, &stats_).ok());
  ScanSpec bad_attr = spec;
  bad_attr.projection = {99};
  EXPECT_FALSE(RowScanner::Make(&table_, bad_attr, &backend_, &stats_).ok());
  ScanSpec bad_pred = spec;
  bad_pred.predicates = {Predicate::Int32(42, CompareOp::kEq, 0)};
  EXPECT_FALSE(RowScanner::Make(&table_, bad_pred, &backend_, &stats_).ok());
  ScanSpec bad_unit = spec;
  bad_unit.read.io_unit_bytes = 1000;  // not a multiple of page size
  EXPECT_FALSE(RowScanner::Make(&table_, bad_unit, &backend_, &stats_).ok());
  // Column table rejected.
  ASSERT_OK_AND_ASSIGN(OpenTable col, OpenTable::Open(dir_.path(), "t_col"));
  EXPECT_FALSE(RowScanner::Make(&col, spec, &backend_, &stats_).ok());
}

TEST_F(RowScannerTest, NextBeforeOpenFails) {
  ASSERT_OK_AND_ASSIGN(
      auto scanner,
      RowScanner::Make(&table_, BaseSpec(), &backend_, &stats_));
  EXPECT_FALSE(scanner->Next().ok());
}

}  // namespace
}  // namespace rodb
