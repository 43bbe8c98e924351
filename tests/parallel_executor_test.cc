// Morsel-driven parallel execution (DESIGN.md "Parallel execution"):
// ParallelExecute must be observationally identical to the serial
// Execute -- same output checksum, same row count, and (on aligned
// scans) the same ExecCounters, so ModelQueryTiming produces the same
// Section-5 numbers regardless of the degree of parallelism.

#include "engine/parallel_executor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <latch>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/file_util.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "engine/open_scanner.h"
#include "io/fault_injection.h"
#include "scan_test_util.h"

namespace rodb {
namespace {

using rodb::testing::LoadAllLayouts;
using rodb::testing::TempDir;

// ---------------------------------------------------------------------------
// ThreadPool

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> done{0};
  std::latch latch(100);
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&done, &latch] {
      done.fetch_add(1, std::memory_order_relaxed);
      latch.count_down();
    });
  }
  latch.wait();
  EXPECT_EQ(done.load(), 100);
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.Submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
    }
  }  // ~ThreadPool joins only after the queue is empty.
  EXPECT_EQ(done.load(), 64);
}

TEST(ThreadPoolTest, ClampsToAtLeastOneWorker) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1);
  std::latch latch(1);
  pool.Submit([&latch] { latch.count_down(); });
  latch.wait();
}

TEST(ThreadPoolTest, SharedPoolIsAProcessSingleton) {
  ThreadPool* a = ThreadPool::Shared();
  ThreadPool* b = ThreadPool::Shared();
  EXPECT_EQ(a, b);
  EXPECT_GE(a->num_threads(), 2);
}

// ---------------------------------------------------------------------------
// Shared fixture data: an uncompressed 4-attribute table in all layouts.

constexpr int kNumTuples = 6000;
constexpr size_t kPageSize = 1024;

Schema TestSchema() {
  auto schema = Schema::Make({
      AttributeDesc::Int32("key"),
      AttributeDesc::Int32("qty"),
      AttributeDesc::Int32("grp"),
      AttributeDesc::Text("tag", 4),
  });
  EXPECT_TRUE(schema.ok()) << schema.status().ToString();
  return std::move(schema).value();
}

std::vector<std::vector<uint8_t>> TestTuples(const Schema& schema) {
  Random rng(4242);
  const char* tags[] = {"AAAA", "BBBB", "CCCC", "DDDD"};
  std::vector<std::vector<uint8_t>> tuples;
  for (int i = 0; i < kNumTuples; ++i) {
    std::vector<uint8_t> t(static_cast<size_t>(schema.raw_tuple_width()));
    StoreLE32s(t.data() + schema.attr_offset(0), static_cast<int32_t>(i));
    StoreLE32s(t.data() + schema.attr_offset(1),
               static_cast<int32_t>(rng.Uniform(50)));
    StoreLE32s(t.data() + schema.attr_offset(2),
               static_cast<int32_t>(rng.Uniform(7)));
    std::memcpy(t.data() + schema.attr_offset(3), tags[rng.Uniform(4)], 4);
    tuples.push_back(std::move(t));
  }
  return tuples;
}

/// Runs the plan's scan through the ordinary serial Execute() path.
Result<ExecutionResult> SerialExecute(const ParallelScanPlan& plan,
                                      ExecCounters* counters) {
  ExecStats stats;
  RODB_ASSIGN_OR_RETURN(OperatorPtr root, OpenScanner(*plan.table, plan.spec,
                                                      plan.backend, &stats));
  RODB_ASSIGN_OR_RETURN(ExecutionResult result, Execute(root.get(), &stats));
  if (counters != nullptr) *counters = stats.counters();
  return result;
}

class ParallelScanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    schema_ = TestSchema();
    tuples_ = TestTuples(schema_);
    ASSERT_OK(LoadAllLayouts(dir_.path(), "t", schema_, tuples_, kPageSize));
  }

  Result<OpenTable> Open(Layout layout) {
    return OpenTable::Open(
        dir_.path(), std::string("t") + rodb::testing::LayoutSuffix(layout));
  }

  TempDir dir_;
  Schema schema_;
  std::vector<std::vector<uint8_t>> tuples_;
  FileBackend backend_;
};

// ---------------------------------------------------------------------------
// PlanMorsels

TEST_F(ParallelScanTest, PlanMorselsSerialWhenParallelismIsOne) {
  ASSERT_OK_AND_ASSIGN(OpenTable table, Open(Layout::kColumn));
  ScanSpec spec;
  spec.projection = {0, 1};
  const auto morsels = PlanMorsels(table, spec, 1);
  ASSERT_EQ(morsels.size(), 1u);
  EXPECT_TRUE(morsels[0].range.is_all());
}

TEST_F(ParallelScanTest, PlanMorselsColumnCoversPositionSpaceAligned) {
  ASSERT_OK_AND_ASSIGN(OpenTable table, Open(Layout::kColumn));
  ScanSpec spec;
  spec.projection = {0, 1, 3};
  const auto morsels = PlanMorsels(table, spec, 4);
  ASSERT_EQ(morsels.size(), 4u);
  uint64_t next = 0;
  for (const ScanSpec& m : morsels) {
    EXPECT_EQ(m.range.first_row(), next);
    EXPECT_GT(m.range.num_rows(), 0u);
    // Every involved column file splits at a page boundary.
    for (size_t attr : ScanPipelineAttrs(spec)) {
      const uint32_t vpp = table.meta().PageValues(attr);
      ASSERT_GT(vpp, 0u);
      EXPECT_EQ(m.range.first_row() % vpp, 0u) << "attr " << attr;
    }
    next = m.range.first_row() + m.range.num_rows();
  }
  EXPECT_EQ(next, table.meta().num_tuples);
}

TEST_F(ParallelScanTest, PlanMorselsRowCoversPageSpace) {
  ASSERT_OK_AND_ASSIGN(OpenTable table, Open(Layout::kRow));
  ScanSpec spec;
  spec.projection = {0, 1, 2, 3};
  const auto morsels = PlanMorsels(table, spec, 3);
  ASSERT_EQ(morsels.size(), 3u);
  uint64_t next = 0;
  for (const ScanSpec& m : morsels) {
    EXPECT_EQ(m.range.first_page(), next);
    EXPECT_GT(m.range.num_pages(), 0u);
    next = m.range.first_page() + m.range.num_pages();
  }
  EXPECT_EQ(next, table.meta().file_pages[0]);
}

TEST_F(ParallelScanTest, PlanMorselsFallsBackWhenPageValuesUnknown) {
  // Strip the pagevals section (a pre-pagevals meta): every PageValues()
  // reads 0 and position-range partitioning must fall back to serial.
  ASSERT_OK_AND_ASSIGN(std::string text,
                       ReadFileToString(TablePaths::MetaFile(dir_.path(),
                                                             "t_col")));
  const size_t cut = text.find("pagevals");
  ASSERT_NE(cut, std::string::npos);
  ASSERT_OK(WriteStringToFile(TablePaths::MetaFile(dir_.path(), "t_col"),
                              text.substr(0, cut)));
  ASSERT_OK_AND_ASSIGN(OpenTable table,
                       OpenTable::Open(dir_.path(), "t_col"));
  ScanSpec spec;
  spec.projection = {0, 1};
  EXPECT_EQ(PlanMorsels(table, spec, 4).size(), 1u);

  // And ParallelExecute still answers the query (serially).
  ParallelScanPlan plan;
  plan.table = &table;
  plan.spec = spec;
  plan.backend = &backend_;
  ASSERT_OK_AND_ASSIGN(ParallelResult out, ParallelExecute(plan, 4));
  EXPECT_EQ(out.morsels, 1);
  EXPECT_EQ(out.result.rows, static_cast<uint64_t>(kNumTuples));
}

// ---------------------------------------------------------------------------
// Parallel scans equal serial scans: checksum, rows, blocks.

TEST_F(ParallelScanTest, ScanMatchesSerialAcrossLayoutsAndParallelism) {
  for (Layout layout : {Layout::kRow, Layout::kColumn, Layout::kPax}) {
    ASSERT_OK_AND_ASSIGN(OpenTable table, Open(layout));
    ParallelScanPlan plan;
    plan.table = &table;
    plan.spec.projection = {0, 1, 2, 3};
    plan.spec.read.io_unit_bytes = 4096;
    plan.backend = &backend_;
    ExecCounters serial_counters;
    ASSERT_OK_AND_ASSIGN(ExecutionResult serial,
                         SerialExecute(plan, &serial_counters));
    ASSERT_EQ(serial.rows, static_cast<uint64_t>(kNumTuples));
    for (int k : {1, 2, 4}) {
      ASSERT_OK_AND_ASSIGN(ParallelResult out, ParallelExecute(plan, k));
      EXPECT_EQ(out.result.rows, serial.rows)
          << rodb::testing::LayoutSuffix(layout) << " k=" << k;
      EXPECT_EQ(out.result.output_checksum, serial.output_checksum)
          << rodb::testing::LayoutSuffix(layout) << " k=" << k;
      if (k == 1) {
        EXPECT_EQ(out.morsels, 1);
      } else {
        EXPECT_GT(out.morsels, 1);
      }
    }
  }
}

TEST(ParallelOutputTest, WideTuplesSpanSeveralOutputChunks) {
  // 150-byte tuples, 2.4 MB of output: every worker buffers its morsel in
  // several unit-sized chunks, and the merge must chain them into exactly
  // the serial scan's checksum.
  auto schema = Schema::Make(
      {AttributeDesc::Int32("key"), AttributeDesc::Text("pad", 146)});
  ASSERT_OK(schema.status());
  constexpr int kRows = 16000;
  std::vector<std::vector<uint8_t>> tuples;
  for (int i = 0; i < kRows; ++i) {
    std::vector<uint8_t> t(150);
    StoreLE32s(t.data(), i);
    for (size_t b = 4; b < t.size(); ++b) {
      t[b] = static_cast<uint8_t>('a' + (i * 7 + b) % 26);
    }
    tuples.push_back(std::move(t));
  }
  TempDir dir;
  ASSERT_OK(rodb::testing::LoadLayouts(dir.path(), "wide", *schema, tuples,
                                       {Layout::kRow, Layout::kColumn}));
  FileBackend backend;
  for (const Layout layout : {Layout::kRow, Layout::kColumn}) {
    SCOPED_TRACE(rodb::testing::LayoutSuffix(layout));
    ASSERT_OK_AND_ASSIGN(
        OpenTable table,
        OpenTable::Open(dir.path(),
                        std::string("wide") +
                            rodb::testing::LayoutSuffix(layout)));
    ParallelScanPlan plan;
    plan.table = &table;
    plan.backend = &backend;
    plan.spec.projection = {0, 1};
    ASSERT_OK_AND_ASSIGN(ExecutionResult serial, SerialExecute(plan, nullptr));
    ASSERT_EQ(serial.rows, static_cast<uint64_t>(kRows));
    for (const int k : {2, 4}) {
      ASSERT_OK_AND_ASSIGN(ParallelResult out, ParallelExecute(plan, k));
      EXPECT_EQ(out.morsels, k);
      EXPECT_EQ(out.result.rows, serial.rows) << "k=" << k;
      EXPECT_EQ(out.result.output_checksum, serial.output_checksum)
          << "k=" << k;
    }
  }
}

TEST_F(ParallelScanTest, FilteredScanMatchesSerial) {
  for (Layout layout : {Layout::kRow, Layout::kColumn, Layout::kPax}) {
    ASSERT_OK_AND_ASSIGN(OpenTable table, Open(layout));
    ParallelScanPlan plan;
    plan.table = &table;
    plan.spec.projection = {0, 3};
    plan.spec.predicates = {Predicate::Int32(1, CompareOp::kLt, 25)};
    plan.spec.read.io_unit_bytes = 4096;
    plan.backend = &backend_;
    ASSERT_OK_AND_ASSIGN(ExecutionResult serial, SerialExecute(plan, nullptr));
    ASSERT_GT(serial.rows, 0u);
    ASSERT_LT(serial.rows, static_cast<uint64_t>(kNumTuples));
    for (int k : {2, 4}) {
      ASSERT_OK_AND_ASSIGN(ParallelResult out, ParallelExecute(plan, k));
      EXPECT_EQ(out.result.rows, serial.rows)
          << rodb::testing::LayoutSuffix(layout) << " k=" << k;
      EXPECT_EQ(out.result.output_checksum, serial.output_checksum)
          << rodb::testing::LayoutSuffix(layout) << " k=" << k;
    }
  }
}

// ---------------------------------------------------------------------------
// Counter / modeled-timing parity.

TEST_F(ParallelScanTest, AlignedScanCountersAndModeledTimingMatchSerial) {
  // With morsels that are whole multiples of both the page value count
  // and the block size, every counter -- not just the checksum -- must be
  // identical to the serial run, which is what makes ModelQueryTiming
  // parallelism-invariant.
  for (Layout layout : {Layout::kRow, Layout::kColumn, Layout::kPax}) {
    ASSERT_OK_AND_ASSIGN(OpenTable table, Open(layout));
    ParallelScanPlan plan;
    plan.table = &table;
    plan.spec.projection = {0, 1, 2, 3};
    plan.spec.read.io_unit_bytes = 4096;
    // Align block boundaries with page boundaries: every file in this
    // table has 4-byte values, so all layouts report one uniform count.
    const uint32_t vpp = table.meta().PageValues(0);
    ASSERT_GT(vpp, 0u);
    plan.spec.block_tuples = vpp;
    plan.backend = &backend_;
    ExecCounters serial_counters;
    ASSERT_OK_AND_ASSIGN(ExecutionResult serial,
                         SerialExecute(plan, &serial_counters));
    TracingBackend tracing(&backend_);
    plan.backend = &tracing;
    for (int k : {2, 4}) {
      tracing.Reset();
      ASSERT_OK_AND_ASSIGN(ParallelResult out, ParallelExecute(plan, k));
      ASSERT_GT(out.morsels, 1);
      const ExecCounters& c = out.counters;
      const ExecCounters& s = serial_counters;
      EXPECT_EQ(out.result.output_checksum, serial.output_checksum);
      EXPECT_EQ(out.result.blocks, serial.blocks);
      EXPECT_EQ(c.tuples_examined, s.tuples_examined);
      EXPECT_EQ(c.predicate_evals, s.predicate_evals);
      EXPECT_EQ(c.values_copied, s.values_copied);
      EXPECT_EQ(c.bytes_copied, s.bytes_copied);
      EXPECT_EQ(c.positions_processed, s.positions_processed);
      EXPECT_EQ(c.pages_parsed, s.pages_parsed);
      EXPECT_EQ(c.blocks_emitted, s.blocks_emitted);
      EXPECT_EQ(c.seq_bytes_touched, s.seq_bytes_touched);
      EXPECT_EQ(c.random_line_accesses, s.random_line_accesses);
      EXPECT_EQ(c.l1_lines_touched, s.l1_lines_touched);
      EXPECT_EQ(c.io_bytes_read, s.io_bytes_read);
      EXPECT_EQ(c.io_requests, s.io_requests);
      EXPECT_EQ(c.files_read, s.files_read);
      const auto streams = ScanStreams(table, plan.spec);
      const HardwareConfig hw = HardwareConfig::Paper2006();
      const auto serial_t =
          ModelQueryTiming(s, hw, plan.spec.read.prefetch_depth, streams);
      const auto parallel_t =
          ModelQueryTiming(c, hw, plan.spec.read.prefetch_depth, streams);
      EXPECT_DOUBLE_EQ(parallel_t.elapsed_seconds, serial_t.elapsed_seconds)
          << rodb::testing::LayoutSuffix(layout) << " k=" << k;
      EXPECT_DOUBLE_EQ(parallel_t.cpu_seconds, serial_t.cpu_seconds);
      EXPECT_DOUBLE_EQ(parallel_t.io_seconds, serial_t.io_seconds);
      // The backend saw what actually happened: one stream per worker
      // per file, bytes conserved.
      uint64_t traced_bytes = 0;
      for (const std::string& path : tracing.Paths()) {
        const TracingBackend::PathTrace t = tracing.Trace(path);
        EXPECT_EQ(t.opens, static_cast<uint64_t>(out.morsels)) << path;
        traced_bytes += t.bytes;
      }
      EXPECT_EQ(tracing.Paths().size(), s.files_read);
      EXPECT_EQ(traced_bytes, s.io_bytes_read);
    }
  }
}

// ---------------------------------------------------------------------------
// Explicit pool reuse.

TEST_F(ParallelScanTest, ReusesACallerProvidedPool) {
  ASSERT_OK_AND_ASSIGN(OpenTable table, Open(Layout::kColumn));
  ThreadPool pool(3);
  ParallelScanPlan plan;
  plan.table = &table;
  plan.spec.projection = {0, 1, 2, 3};
  plan.spec.read.io_unit_bytes = 4096;
  plan.backend = &backend_;
  ASSERT_OK_AND_ASSIGN(ExecutionResult serial, SerialExecute(plan, nullptr));
  for (int round = 0; round < 3; ++round) {
    ASSERT_OK_AND_ASSIGN(ParallelResult out, ParallelExecute(plan, 4, &pool));
    EXPECT_EQ(out.result.output_checksum, serial.output_checksum);
  }
}

}  // namespace
}  // namespace rodb
