#include <gtest/gtest.h>

#include <cstring>

#include "common/bytes.h"
#include "common/random.h"
#include "engine/column_scanner.h"
#include "engine/early_mat_scanner.h"
#include "engine/pax_scanner.h"
#include "scan_test_util.h"

namespace rodb {
namespace {

using rodb::testing::CollectTuples;
using rodb::testing::LoadAllLayouts;
using rodb::testing::MakeScanner;
using rodb::testing::TempDir;

class PaxScannerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto schema = Schema::Make(
        {AttributeDesc::Int32("id", CodecSpec::ForDelta(8)),
         AttributeDesc::Int32("val"),
         AttributeDesc::Text("tag", 3, CodecSpec::Dict(2)),
         AttributeDesc::Int32("qty", CodecSpec::BitPack(6))});
    ASSERT_OK(schema.status());
    schema_ = std::move(schema).value();
    std::vector<std::vector<uint8_t>> tuples;
    for (int i = 0; i < 3000; ++i) {
      std::vector<uint8_t> t(15);
      StoreLE32s(t.data(), 100 + i);
      StoreLE32s(t.data() + 4, (i * 37) % 1000);
      std::memcpy(t.data() + 8, (i % 3 == 0) ? "foo" : "bar", 3);
      StoreLE32s(t.data() + 11, i % 50);
      expected_.push_back(t);
      tuples.push_back(std::move(t));
    }
    ASSERT_OK(LoadAllLayouts(dir_.path(), "t", schema_, tuples, 1024));
    auto table = OpenTable::Open(dir_.path(), "t_pax");
    ASSERT_OK(table.status());
    table_ = std::move(table).value();
  }

  ScanSpec BaseSpec() {
    ScanSpec spec;
    spec.projection = {0, 1, 2, 3};
    spec.read.io_unit_bytes = 4096;
    spec.read.prefetch_depth = 4;
    return spec;
  }

  TempDir dir_;
  Schema schema_;
  OpenTable table_;
  FileBackend backend_;
  ExecStats stats_;
  std::vector<std::vector<uint8_t>> expected_;
};

TEST_F(PaxScannerTest, FullScanDecodesEveryTuple) {
  ASSERT_OK_AND_ASSIGN(auto scanner,
                       PaxScanner::Make(&table_, BaseSpec(), &backend_,
                                        &stats_));
  ASSERT_OK_AND_ASSIGN(auto tuples, CollectTuples(scanner.get()));
  ASSERT_EQ(tuples.size(), 3000u);
  for (size_t i = 0; i < tuples.size(); ++i) {
    ASSERT_EQ(tuples[i], expected_[i]) << i;
  }
}

TEST_F(PaxScannerTest, PredicateAndProjection) {
  ScanSpec spec = BaseSpec();
  spec.projection = {3, 0};
  spec.predicates = {Predicate::Int32(1, CompareOp::kLt, 100)};
  ASSERT_OK_AND_ASSIGN(auto scanner,
                       PaxScanner::Make(&table_, spec, &backend_, &stats_));
  ASSERT_OK_AND_ASSIGN(auto tuples, CollectTuples(scanner.get()));
  size_t j = 0;
  for (const auto& e : expected_) {
    if (LoadLE32s(e.data() + 4) < 100) {
      ASSERT_LT(j, tuples.size());
      EXPECT_EQ(LoadLE32s(tuples[j].data()), LoadLE32s(e.data() + 11));
      EXPECT_EQ(LoadLE32s(tuples[j].data() + 4), LoadLE32s(e.data()));
      ++j;
    }
  }
  EXPECT_EQ(j, tuples.size());
}

TEST_F(PaxScannerTest, IoMatchesRowStoreNotColumnStore) {
  // PAX's defining property: single file, full-tuple I/O regardless of
  // projection.
  ScanSpec narrow = BaseSpec();
  narrow.projection = {3};
  ASSERT_OK_AND_ASSIGN(auto scanner,
                       PaxScanner::Make(&table_, narrow, &backend_, &stats_));
  ASSERT_OK(CollectTuples(scanner.get()).status());
  const uint64_t narrow_bytes = stats_.counters().io_bytes_read;
  EXPECT_EQ(stats_.counters().files_read, 1u);

  ExecStats full_stats;
  ASSERT_OK_AND_ASSIGN(
      auto full, PaxScanner::Make(&table_, BaseSpec(), &backend_,
                                  &full_stats));
  ASSERT_OK(CollectTuples(full.get()).status());
  EXPECT_EQ(full_stats.counters().io_bytes_read, narrow_bytes);
}

TEST_F(PaxScannerTest, CacheTrafficShrinksWithProjection) {
  // ... but unlike the row store, memory/cache traffic follows the
  // projection (only touched minipages stream).
  ScanSpec narrow = BaseSpec();
  narrow.projection = {3};
  ASSERT_OK_AND_ASSIGN(auto scanner,
                       PaxScanner::Make(&table_, narrow, &backend_, &stats_));
  ASSERT_OK(CollectTuples(scanner.get()).status());
  const uint64_t narrow_seq = stats_.counters().seq_bytes_touched;

  ExecStats full_stats;
  ASSERT_OK_AND_ASSIGN(
      auto full,
      PaxScanner::Make(&table_, BaseSpec(), &backend_, &full_stats));
  ASSERT_OK(CollectTuples(full.get()).status());
  EXPECT_LT(narrow_seq, full_stats.counters().seq_bytes_touched / 3);
}

TEST_F(PaxScannerTest, TwoPredicates) {
  ScanSpec spec = BaseSpec();
  spec.predicates = {Predicate::Int32(1, CompareOp::kLt, 500),
                     Predicate::Int32(3, CompareOp::kLt, 10)};
  ASSERT_OK_AND_ASSIGN(auto scanner,
                       PaxScanner::Make(&table_, spec, &backend_, &stats_));
  ASSERT_OK_AND_ASSIGN(auto tuples, CollectTuples(scanner.get()));
  size_t expected_count = 0;
  for (const auto& e : expected_) {
    expected_count += LoadLE32s(e.data() + 4) < 500 &&
                      LoadLE32s(e.data() + 11) < 10;
  }
  EXPECT_EQ(tuples.size(), expected_count);
}

TEST_F(PaxScannerTest, RejectsWrongLayout) {
  ASSERT_OK_AND_ASSIGN(OpenTable row, OpenTable::Open(dir_.path(), "t_row"));
  EXPECT_FALSE(PaxScanner::Make(&row, BaseSpec(), &backend_, &stats_).ok());
  ASSERT_OK_AND_ASSIGN(OpenTable col, OpenTable::Open(dir_.path(), "t_col"));
  EXPECT_FALSE(PaxScanner::Make(&col, BaseSpec(), &backend_, &stats_).ok());
}

// --- early-materialization scanner over the same dataset ---

TEST_F(PaxScannerTest, EarlyMatScannerMatchesPipelined) {
  ASSERT_OK_AND_ASSIGN(OpenTable col, OpenTable::Open(dir_.path(), "t_col"));
  for (int q = 0; q < 3; ++q) {
    ScanSpec spec = BaseSpec();
    if (q == 1) {
      spec.predicates = {Predicate::Int32(1, CompareOp::kLt, 300)};
    }
    if (q == 2) {
      spec.projection = {2, 0};
      spec.predicates = {Predicate::Int32(3, CompareOp::kEq, 7),
                         Predicate::Text(2, CompareOp::kEq, "bar")};
    }
    ExecStats s1, s2;
    ASSERT_OK_AND_ASSIGN(auto pipelined,
                         ColumnScanner::Make(&col, spec, &backend_, &s1));
    ASSERT_OK_AND_ASSIGN(
        auto early, EarlyMatColumnScanner::Make(&col, spec, &backend_, &s2));
    ASSERT_OK_AND_ASSIGN(auto a, CollectTuples(pipelined.get()));
    ASSERT_OK_AND_ASSIGN(auto b, CollectTuples(early.get()));
    EXPECT_EQ(a, b) << "query " << q;
    // Same files read either way.
    EXPECT_EQ(s1.counters().io_bytes_read, s2.counters().io_bytes_read);
  }
}

TEST_F(PaxScannerTest, EarlyMatDecodesEverythingAtLowSelectivity) {
  // The CPU tradeoff of Section 4.2: the single-iterator scanner decodes
  // (or walks) every value of every selected column even when almost
  // nothing qualifies, while the pipelined scanner's inner nodes idle.
  ASSERT_OK_AND_ASSIGN(OpenTable col, OpenTable::Open(dir_.path(), "t_col"));
  ScanSpec spec = BaseSpec();
  spec.projection = {1, 2};
  spec.predicates = {Predicate::Int32(1, CompareOp::kLt, 2)};  // ~0.2%
  spec.prune = false;  // no page may be skipped: early mat walks all
  ExecStats pipelined_stats, early_stats;
  ASSERT_OK_AND_ASSIGN(
      auto pipelined,
      ColumnScanner::Make(&col, spec, &backend_, &pipelined_stats));
  ASSERT_OK_AND_ASSIGN(
      auto early,
      EarlyMatColumnScanner::Make(&col, spec, &backend_, &early_stats));
  ASSERT_OK(CollectTuples(pipelined.get()).status());
  ASSERT_OK(CollectTuples(early.get()).status());
  // Dict column decodes: a handful for pipelined, ~all 3000 for early mat.
  EXPECT_LT(pipelined_stats.counters().values_decoded_dict, 50u);
  EXPECT_EQ(early_stats.counters().values_decoded_dict, 3000u);
}

TEST_F(PaxScannerTest, EarlyMatRejectsWrongLayout) {
  EXPECT_FALSE(
      EarlyMatColumnScanner::Make(&table_, BaseSpec(), &backend_, &stats_)
          .ok());
}

}  // namespace
}  // namespace rodb
