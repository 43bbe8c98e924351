#include <gtest/gtest.h>

#include <cstddef>
#include <set>

#include "common/bytes.h"
#include "engine/executor.h"
#include "scan_test_util.h"
#include "vector_source.h"

namespace rodb {
namespace {

using rodb::testing::CounterWords;
using rodb::testing::DistinctCounters;
using rodb::testing::kCounterWords;
using rodb::testing::LoadBothLayouts;
using rodb::testing::TempDir;
using rodb::testing::ToWords;
using rodb::testing::VectorSource;

TEST(ExecuteTest, CountsRowsAndBlocks) {
  std::vector<std::vector<int32_t>> rows;
  for (int i = 0; i < 250; ++i) rows.push_back({i});
  VectorSource source(BlockLayout::FromWidths({4}), std::move(rows), 100);
  ExecStats stats;
  ASSERT_OK_AND_ASSIGN(ExecutionResult result, Execute(&source, &stats));
  EXPECT_EQ(result.rows, 250u);
  EXPECT_EQ(result.blocks, 3u);
  EXPECT_GE(result.measured.wall_seconds, 0.0);
}

TEST(ExecuteTest, ChecksumIsOrderSensitive) {
  VectorSource a(BlockLayout::FromWidths({4}), {{1}, {2}, {3}});
  VectorSource b(BlockLayout::FromWidths({4}), {{3}, {2}, {1}});
  VectorSource c(BlockLayout::FromWidths({4}), {{1}, {2}, {3}});
  ExecStats stats;
  ASSERT_OK_AND_ASSIGN(auto ra, Execute(&a, &stats));
  ASSERT_OK_AND_ASSIGN(auto rb, Execute(&b, &stats));
  ASSERT_OK_AND_ASSIGN(auto rc, Execute(&c, &stats));
  EXPECT_NE(ra.output_checksum, rb.output_checksum);
  EXPECT_EQ(ra.output_checksum, rc.output_checksum);
}

TEST(ExecuteTest, NullArgumentsRejected) {
  VectorSource source(BlockLayout::FromWidths({4}), {});
  ExecStats stats;
  EXPECT_FALSE(Execute(nullptr, &stats).ok());
  EXPECT_FALSE(Execute(&source, nullptr).ok());
}

TEST(ScanStreamsTest, RowTableIsOneStream) {
  TempDir dir;
  auto schema = Schema::Make({AttributeDesc::Int32("a"),
                              AttributeDesc::Int32("b")});
  ASSERT_OK(schema.status());
  std::vector<std::vector<uint8_t>> tuples(100, std::vector<uint8_t>(8, 0));
  ASSERT_OK(LoadBothLayouts(dir.path(), "s", *schema, tuples, 1024));
  ASSERT_OK_AND_ASSIGN(OpenTable row, OpenTable::Open(dir.path(), "s_row"));
  ASSERT_OK_AND_ASSIGN(OpenTable col, OpenTable::Open(dir.path(), "s_col"));
  ScanSpec spec;
  spec.projection = {1};
  spec.predicates = {Predicate::Int32(0, CompareOp::kLt, 5)};
  const auto row_streams = ScanStreams(row, spec);
  ASSERT_EQ(row_streams.size(), 1u);
  EXPECT_EQ(row_streams[0].bytes, row.FileBytes(0));
  // Column scan: one stream per pipeline attribute (pred attr 0, proj 1).
  const auto col_streams = ScanStreams(col, spec);
  ASSERT_EQ(col_streams.size(), 2u);
  EXPECT_EQ(col_streams[0].bytes, col.FileBytes(0));
  EXPECT_EQ(col_streams[1].bytes, col.FileBytes(1));
}

TEST(ModelQueryTimingTest, IoBoundWhenCpuIdle) {
  ExecCounters counters;  // nearly free CPU
  counters.io_bytes_read = 1000000;
  const auto timing =
      ModelQueryTiming(counters, HardwareConfig::Paper2006(), 48,
                       {{9500000000ULL, 1.0, false}});
  EXPECT_TRUE(timing.io_bound);
  EXPECT_NEAR(timing.elapsed_seconds, timing.io_seconds, 1e-12);
  EXPECT_NEAR(timing.io_seconds, 52.8, 0.2);
}

TEST(ModelQueryTimingTest, CpuBoundWhenDiskIdle) {
  ExecCounters counters;
  counters.tuples_examined = 2000000000ULL;
  const auto timing = ModelQueryTiming(
      counters, HardwareConfig::Paper2006(), 48, {{1000, 1.0, false}});
  EXPECT_FALSE(timing.io_bound);
  EXPECT_NEAR(timing.elapsed_seconds, timing.cpu_seconds, 1e-12);
}

TEST(ModelQueryTimingTest, ElapsedIsMaxOfOverlappedTimes) {
  ExecCounters counters;
  counters.tuples_examined = 100000000;
  const auto timing = ModelQueryTiming(
      counters, HardwareConfig::Paper2006(), 48, {{2000000000ULL, 1.0, false}});
  EXPECT_DOUBLE_EQ(timing.elapsed_seconds,
                   std::max(timing.cpu_seconds, timing.io_seconds));
}

TEST(ScaleCountersTest, ScalesPerTupleWorkButNotPerScanCounts) {
  const ExecCounters c = DistinctCounters();
  constexpr uint64_t kFactor = 100;
  const ExecCounters s = ScaleCounters(c, static_cast<double>(kFactor));
  // The paper-scale CPU breakdowns price every scaled counter.
  const CpuModel cpu(HardwareConfig::Paper2006());
  EXPECT_DOUBLE_EQ(cpu.UserUops(s),
                   static_cast<double>(kFactor) * cpu.UserUops(c));
  // Counts taken once per scan do not grow with the table; every other
  // counter does.
  const std::set<size_t> per_scan = {
      offsetof(ExecCounters, files_read) / sizeof(uint64_t),
      offsetof(ExecCounters, prune_plans) / sizeof(uint64_t),
      offsetof(ExecCounters, prune_declined) / sizeof(uint64_t),
      offsetof(ExecCounters, synopsis_corrupt) / sizeof(uint64_t)};
  const CounterWords in = ToWords(c);
  const CounterWords out = ToWords(s);
  for (size_t i = 0; i < kCounterWords; ++i) {
    const uint64_t want = per_scan.count(i) > 0 ? in[i] : in[i] * kFactor;
    EXPECT_EQ(out[i], want) << "counter field #" << i;
  }
}

}  // namespace
}  // namespace rodb
