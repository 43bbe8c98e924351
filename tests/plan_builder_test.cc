#include <gtest/gtest.h>

#include <algorithm>

#include "common/bytes.h"
#include "engine/open_scanner.h"
#include "engine/plan_builder.h"
#include "scan_test_util.h"

namespace rodb {
namespace {

using rodb::testing::CollectTuples;
using rodb::testing::LoadAllLayouts;
using rodb::testing::TempDir;

class PlanBuilderTest : public ::testing::Test {
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
  ExecStats stats_;
};

TEST_F(PlanBuilderTest, ScanFilterProjectAggregateOnEveryLayout) {
  // The same plan text runs against all three physical layouts.
  std::vector<uint64_t> checksums;
  for (const char* name : {"t_row", "t_col", "t_pax"}) {
    ASSERT_OK_AND_ASSIGN(OpenTable table, OpenTable::Open(dir_.path(), name));
    ExecStats stats;
    ScanSpec spec;
    spec.projection = {0, 1, 2};
    spec.read.io_unit_bytes = 4096;
    AggPlan agg;
    agg.group_column = 0;  // "group" after projection below
    agg.aggs = {{AggFunc::kSum, 1}, {AggFunc::kCount, 0}};
    ASSERT_OK_AND_ASSIGN(
        OperatorPtr plan,
        PlanBuilder::Scan(&table, spec, &backend_, &stats)
            .Filter({Predicate::Int32(2, CompareOp::kLt, 50)})
            .Project({1, 2})
            .SortAggregate(agg)
            .Build());
    ASSERT_OK_AND_ASSIGN(ExecutionResult result, Execute(plan.get(), &stats));
    EXPECT_EQ(result.rows, 5u);  // five groups
    checksums.push_back(result.output_checksum);
  }
  EXPECT_EQ(checksums[0], checksums[1]);
  EXPECT_EQ(checksums[0], checksums[2]);
}

TEST_F(PlanBuilderTest, MergeJoinPlan) {
  ASSERT_OK_AND_ASSIGN(OpenTable left, OpenTable::Open(dir_.path(), "t_row"));
  ASSERT_OK_AND_ASSIGN(OpenTable right, OpenTable::Open(dir_.path(), "t_col"));
  ScanSpec lspec;
  lspec.projection = {0, 2};
  lspec.read.io_unit_bytes = 4096;
  ScanSpec rspec;
  rspec.projection = {0, 1};
  rspec.read.io_unit_bytes = 4096;
  ASSERT_OK_AND_ASSIGN(
      OperatorPtr plan,
      PlanBuilder::MergeJoin(
          PlanBuilder::Scan(&left, lspec, &backend_, &stats_),
          PlanBuilder::Scan(&right, rspec, &backend_, &stats_), 0, 0)
          .Build());
  ASSERT_OK_AND_ASSIGN(ExecutionResult result, Execute(plan.get(), &stats_));
  EXPECT_EQ(result.rows, 2000u);  // 1:1 self-join on key
  EXPECT_EQ(plan->output_layout().num_attrs(), 4u);
}

TEST_F(PlanBuilderTest, ErrorsSurfaceAtBuild) {
  ASSERT_OK_AND_ASSIGN(OpenTable table, OpenTable::Open(dir_.path(), "t_row"));
  ScanSpec bad;
  bad.projection = {99};
  auto plan = PlanBuilder::Scan(&table, bad, &backend_, &stats_)
                  .Project({0})
                  .Build();
  EXPECT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kOutOfRange);

  ScanSpec good;
  good.projection = {0};
  good.read.io_unit_bytes = 4096;
  auto bad_project = PlanBuilder::Scan(&table, good, &backend_, &stats_)
                         .Project({7})
                         .Build();
  EXPECT_FALSE(bad_project.ok());
  EXPECT_FALSE(PlanBuilder::Scan(nullptr, good, &backend_, &stats_)
                   .Build()
                   .ok());
  EXPECT_FALSE(PlanBuilder::From(nullptr, &stats_).Build().ok());
}

TEST_F(PlanBuilderTest, EveryScannerRejectsZeroBlockTuples) {
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

TEST_F(PlanBuilderTest, OrderByAndTopN) {
  ASSERT_OK_AND_ASSIGN(OpenTable table, OpenTable::Open(dir_.path(), "t_pax"));
  ScanSpec spec;
  spec.projection = {0, 2};
  spec.read.io_unit_bytes = 4096;
  // Top 5 by value, descending.
  ASSERT_OK_AND_ASSIGN(OperatorPtr topn,
                       PlanBuilder::Scan(&table, spec, &backend_, &stats_)
                           .TopN(1, SortOrder::kDescending, 5)
                           .Build());
  ASSERT_OK_AND_ASSIGN(auto top, CollectTuples(topn.get()));
  ASSERT_EQ(top.size(), 5u);
  for (const auto& t : top) EXPECT_EQ(LoadLE32s(t.data() + 4), 99);

  // Full ORDER BY descending: first block carries the maxima.
  ASSERT_OK_AND_ASSIGN(OperatorPtr ordered,
                       PlanBuilder::Scan(&table, spec, &backend_, &stats_)
                           .OrderBy(1, SortOrder::kDescending)
                           .Build());
  ASSERT_OK_AND_ASSIGN(auto all, CollectTuples(ordered.get()));
  ASSERT_EQ(all.size(), 2000u);
  for (size_t i = 1; i < all.size(); ++i) {
    EXPECT_GE(LoadLE32s(all[i - 1].data() + 4), LoadLE32s(all[i].data() + 4));
  }
  // Bad sort column surfaces at Build.
  EXPECT_FALSE(PlanBuilder::Scan(&table, spec, &backend_, &stats_)
                   .OrderBy(9)
                   .Build()
                   .ok());
}

}  // namespace
}  // namespace rodb
