#include <gtest/gtest.h>

#include <algorithm>

#include "common/bytes.h"
#include "engine/aggregate.h"
#include "engine/open_scanner.h"
#include "engine/project.h"
#include "engine/select.h"
#include "scan_test_util.h"

namespace rodb {
namespace {

using rodb::testing::LoadAllLayouts;
using rodb::testing::TempDir;

class OpenScannerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto schema = Schema::Make({AttributeDesc::Int32("key"),
                                AttributeDesc::Int32("group"),
                                AttributeDesc::Int32("value")});
    ASSERT_OK(schema.status());
    schema_ = std::move(schema).value();
    std::vector<std::vector<uint8_t>> tuples;
    for (int i = 0; i < 2000; ++i) {
      std::vector<uint8_t> t(12);
      StoreLE32s(t.data(), i);
      StoreLE32s(t.data() + 4, i % 5);
      StoreLE32s(t.data() + 8, i % 100);
      tuples.push_back(std::move(t));
    }
    ASSERT_OK(LoadAllLayouts(dir_.path(), "t", schema_, tuples, 1024));
  }

  TempDir dir_;
  Schema schema_;
  FileBackend backend_;
};

TEST_F(OpenScannerTest, ScanFilterProjectAggregateOnEveryLayout) {
  // The same plan runs against all three physical layouts: OpenScanner
  // picks the layout's scanner, and the operators above it never know.
  std::vector<uint64_t> checksums;
  for (const char* name : {"t_row", "t_col", "t_pax"}) {
    ASSERT_OK_AND_ASSIGN(OpenTable table, OpenTable::Open(dir_.path(), name));
    ExecStats stats;
    ScanSpec spec;
    spec.projection = {0, 1, 2};
    spec.read.io_unit_bytes = 4096;
    ASSERT_OK_AND_ASSIGN(OperatorPtr scan,
                         OpenScanner(table, spec, &backend_, &stats));
    auto filter = std::make_unique<FilterOperator>(
        std::move(scan),
        std::vector<Predicate>{Predicate::Int32(2, CompareOp::kLt, 50)},
        &stats);
    ASSERT_OK_AND_ASSIGN(
        OperatorPtr project,
        ProjectOperator::Make(std::move(filter), {1, 2}, &stats));
    AggPlan agg;
    agg.group_column = 0;  // "group" after the projection above
    agg.aggs = {{AggFunc::kSum, 1}, {AggFunc::kCount, 0}};
    ASSERT_OK_AND_ASSIGN(
        OperatorPtr plan,
        SortAggOperator::Make(std::move(project), agg, &stats));
    ASSERT_OK_AND_ASSIGN(ExecutionResult result, Execute(plan.get(), &stats));
    EXPECT_EQ(result.rows, 5u);  // five groups
    checksums.push_back(result.output_checksum);
  }
  EXPECT_EQ(checksums[0], checksums[1]);
  EXPECT_EQ(checksums[0], checksums[2]);
}

TEST_F(OpenScannerTest, EveryScannerRejectsZeroBlockTuples) {
  // Refused at open: a zero-tuple block would end the scan at once (row,
  // PAX, early mat) or never hand back a block (column).
  ScanSpec spec;
  spec.projection = {0, 1};
  spec.read.io_unit_bytes = 4096;
  spec.block_tuples = 0;
  const std::pair<const char*, ScannerImpl> scanners[] = {
      {"t_row", ScannerImpl::kAuto},
      {"t_col", ScannerImpl::kAuto},
      {"t_pax", ScannerImpl::kAuto},
      {"t_col", ScannerImpl::kEarlyMat}};
  for (const auto& [name, impl] : scanners) {
    ASSERT_OK_AND_ASSIGN(OpenTable table, OpenTable::Open(dir_.path(), name));
    ExecStats stats;
    EXPECT_EQ(OpenScanner(table, spec, &backend_, &stats, impl).status().code(),
              StatusCode::kInvalidArgument)
        << name;
  }
}

TEST(ScanPipelineAttrsTest, PredicatesFirstThenProjectionDeduped) {
  ScanSpec spec;
  spec.projection = {4, 2, 7, 2};
  spec.predicates = {Predicate::Int32(2, CompareOp::kLt, 5),
                     Predicate::Int32(9, CompareOp::kGt, 1),
                     Predicate::Int32(2, CompareOp::kGt, 0)};
  EXPECT_EQ(ScanPipelineAttrs(spec), (std::vector<size_t>{2, 9, 4, 7}));
  EXPECT_TRUE(ScanPipelineAttrs(ScanSpec{}).empty());
}

TEST(ScanPipelineAttrsTest, WideProjectionStaysFast) {
  // Regression: the order-preserving dedup used to be O(n^2) in the
  // number of mentions, so a star-schema-width SELECT list took seconds
  // (minutes under sanitizers). The O(n log n) version must chew through
  // 200k mentions of 50k distinct attributes instantly.
  constexpr size_t kMentions = 200000;
  constexpr size_t kDistinct = 50000;
  ScanSpec spec;
  spec.projection.reserve(kMentions);
  for (size_t i = 0; i < kMentions; ++i) {
    spec.projection.push_back(static_cast<int>((i * 37) % kDistinct));
  }
  const std::vector<size_t> attrs = ScanPipelineAttrs(spec);
  ASSERT_EQ(attrs.size(), kDistinct);
  // First occurrences, kept in first-occurrence order.
  EXPECT_EQ(attrs[0], 0u);
  EXPECT_EQ(attrs[1], 37u);
  std::vector<size_t> sorted = attrs;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < sorted.size(); ++i) {
    ASSERT_EQ(sorted[i], i);
  }
}

}  // namespace
}  // namespace rodb
