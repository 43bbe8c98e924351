// Resilient query execution (docs/RESILIENCE.md): cooperative
// cancellation, deadlines and memory budgets threaded through the serial
// executor, all scanners, the parallel executor and the ingest merge's
// input scans -- plus the leak audits: a query aborted mid-stream must
// release every block-cache pin and leave no work queued on the shared
// thread pool.

#include "engine/query_context.h"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/thread_pool.h"
#include "engine/executor.h"
#include "engine/open_scanner.h"
#include "engine/parallel_executor.h"
#include "io/block_cache.h"
#include "io/fault_injection.h"
#include "io/file_backend.h"
#include "obs/metrics.h"
#include "scan_test_util.h"
#include "test_util.h"
#include "wos/ingest_store.h"

namespace rodb {
namespace {

using rodb::testing::TempDir;

Schema TwoIntSchema() {
  auto schema = Schema::Make(
      {AttributeDesc::Int32("a"), AttributeDesc::Int32("b")});
  EXPECT_TRUE(schema.ok());
  return *schema;
}

std::vector<std::vector<uint8_t>> MakeTuples(uint32_t n) {
  std::vector<std::vector<uint8_t>> tuples;
  for (uint32_t i = 0; i < n; ++i) {
    std::vector<uint8_t> t(8);
    StoreLE32s(t.data(), static_cast<int32_t>(i));
    StoreLE32s(t.data() + 4, static_cast<int32_t>(i * 7 + 3));
    tuples.push_back(std::move(t));
  }
  return tuples;
}

ScanSpec AllColumnsSpec() {
  ScanSpec spec;
  spec.projection = {0, 1};
  spec.read.io_unit_bytes = 1024;
  return spec;
}

QueryContext ExpiredContext() {
  QueryContext ctx;
  ctx.set_deadline(std::chrono::steady_clock::now() -
                   std::chrono::milliseconds(1));
  return ctx;
}

/// A fixture with one 2000-tuple table in each layout, small pages so
/// every scan crosses many page boundaries (the cancellation check
/// points).
class ResilienceScanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    schema_ = TwoIntSchema();
    tuples_ = MakeTuples(2000);
    ASSERT_OK(testing::LoadAllLayouts(dir_.path(), "t", schema_, tuples_,
                                      /*page_size=*/512));
  }

  Result<ExecutionResult> RunSerial(const std::string& table_name,
                                    const QueryContext* ctx,
                                    IoBackend* backend = nullptr,
                                    BlockCache* cache = nullptr) {
    RODB_ASSIGN_OR_RETURN(OpenTable table,
                          OpenTable::Open(dir_.path(), table_name));
    FileBackend file_backend;
    if (backend == nullptr) backend = &file_backend;
    ScanSpec spec = AllColumnsSpec();
    spec.read.cache = cache;
    spec.read.verify_checksums = true;
    ExecStats stats;
    stats.set_context(ctx);
    RODB_ASSIGN_OR_RETURN(OperatorPtr plan,
                          OpenScanner(table, std::move(spec), backend, &stats));
    return Execute(plan.get(), &stats);
  }

  TempDir dir_;
  Schema schema_;
  std::vector<std::vector<uint8_t>> tuples_;
};

// --- primitives ---

TEST(CancellationTokenTest, SharedAndChildSemantics) {
  CancellationToken token;
  EXPECT_FALSE(token.IsCancelled());
  CancellationToken copy = token;
  CancellationToken child = token.Child();

  // Cancelling a child never propagates up.
  child.Cancel();
  EXPECT_TRUE(child.IsCancelled());
  EXPECT_FALSE(token.IsCancelled());
  EXPECT_FALSE(copy.IsCancelled());

  // Cancelling the parent reaches copies and (new) children.
  CancellationToken other_child = token.Child();
  copy.Cancel();
  EXPECT_TRUE(token.IsCancelled());
  EXPECT_TRUE(other_child.IsCancelled());
}

TEST(MemoryBudgetTest, ReserveReleaseAndOverflow) {
  MemoryBudget budget(100);
  ASSERT_OK(budget.Reserve(60));
  EXPECT_EQ(budget.used_bytes(), 60u);
  const Status overflow = budget.Reserve(41);
  EXPECT_EQ(overflow.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(overflow.IsTransient());  // backpressure, not a verdict
  ASSERT_OK(budget.Reserve(40));
  budget.Release(100);
  EXPECT_EQ(budget.used_bytes(), 0u);
}

TEST(MemoryBudgetTest, ReservationIsRaii) {
  auto budget = std::make_shared<MemoryBudget>(1 << 20);
  QueryContext ctx;
  ctx.set_memory_budget(budget);
  {
    ASSERT_OK_AND_ASSIGN(MemoryReservation r, ctx.ReserveMemory(4096));
    EXPECT_EQ(r.bytes(), 4096u);
    EXPECT_EQ(budget->used_bytes(), 4096u);
    MemoryReservation moved = std::move(r);
    EXPECT_EQ(budget->used_bytes(), 4096u);  // moved, not doubled
  }
  EXPECT_EQ(budget->used_bytes(), 0u);  // destructor released
}

TEST(QueryContextTest, CheckAliveStatesAndPrecedence) {
  QueryContext ctx;
  EXPECT_OK(ctx.CheckAlive());

  QueryContext expired = ExpiredContext();
  EXPECT_EQ(expired.CheckAlive().code(), StatusCode::kDeadlineExceeded);

  // Cancellation wins over an expired deadline: explicit Cancel()
  // reports deterministically.
  expired.Cancel();
  EXPECT_EQ(expired.CheckAlive().code(), StatusCode::kCancelled);

  QueryContext with_time =
      QueryContext::WithTimeout(std::chrono::seconds(3600));
  EXPECT_OK(with_time.CheckAlive());
  EXPECT_TRUE(with_time.has_deadline());
}

TEST(QueryContextTest, LifecycleMetricsCountOncePerQuery) {
  auto& reg = obs::MetricsRegistry::Default();
  const uint64_t before =
      reg.GetCounter("rodb.resilience.cancelled")->Value();
  QueryContext ctx;
  ctx.Cancel();
  QueryContext child = ctx.Child();
  // Twelve workers polling one dead query still count one cancellation.
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(ctx.CheckAlive().code(), StatusCode::kCancelled);
    EXPECT_EQ(child.CheckAlive().code(), StatusCode::kCancelled);
  }
  EXPECT_EQ(reg.GetCounter("rodb.resilience.cancelled")->Value(),
            before + 1);
}

// --- serial executor + scanners ---

TEST_F(ResilienceScanTest, CancelledQueryStopsEveryLayout) {
  for (const char* name : {"t_row", "t_col", "t_pax"}) {
    QueryContext ctx;
    ctx.Cancel();
    auto result = RunSerial(name, &ctx);
    ASSERT_FALSE(result.ok()) << name;
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled) << name;
  }
}

TEST_F(ResilienceScanTest, ExpiredDeadlineStopsEveryLayout) {
  for (const char* name : {"t_row", "t_col", "t_pax"}) {
    QueryContext ctx = ExpiredContext();
    auto result = RunSerial(name, &ctx);
    ASSERT_FALSE(result.ok()) << name;
    EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded) << name;
  }
}

TEST_F(ResilienceScanTest, NullContextStillRunsToCompletion) {
  ASSERT_OK_AND_ASSIGN(auto result, RunSerial("t_row", nullptr));
  EXPECT_EQ(result.rows, tuples_.size());
}

TEST_F(ResilienceScanTest, ContextRetryPolicyRecoversTransientFault) {
  // The scanner composes the RetryingBackend from the context's policy
  // (PageSource's backend stack), so a transient fault below becomes
  // invisible.
  for (const char* name : {"t_row", "t_col", "t_pax"}) {
    FileBackend file_backend;
    FaultInjectingBackend faulty(&file_backend, FaultSpec::FailAfter(1));
    QueryContext ctx;
    RetryPolicy policy;
    policy.max_retries = 2;
    policy.initial_backoff_micros = 0;
    ctx.set_retry_policy(policy);
    ASSERT_OK_AND_ASSIGN(auto result, RunSerial(name, &ctx, &faulty));
    EXPECT_EQ(result.rows, tuples_.size()) << name;
    EXPECT_GT(faulty.injected_errors(), 0u) << name;
    // Without the policy the same fault kills the scan.
    FaultInjectingBackend faulty_again(&file_backend,
                                       FaultSpec::FailAfter(1));
    auto bare = RunSerial(name, nullptr, &faulty_again);
    ASSERT_FALSE(bare.ok()) << name;
    EXPECT_EQ(bare.status().code(), StatusCode::kIoError) << name;
  }
}

// --- satellite: leaked pins and stranded pool work on mid-stream abort ---

TEST_F(ResilienceScanTest, AbortedScanLeavesNoCachePins) {
  for (const char* name : {"t_row", "t_col", "t_pax"}) {
    BlockCache cache(8ULL << 20, 4);
    FileBackend file_backend;
    // Fail a mid-stream read so the scan dies with pinned cache blocks
    // in flight; the executor's close guard plus the scanners' RAII
    // stream teardown must drop every pin.
    FaultInjectingBackend faulty(&file_backend, FaultSpec::FailAfter(3));
    auto result = RunSerial(name, nullptr, &faulty, &cache);
    ASSERT_FALSE(result.ok()) << name;
    EXPECT_EQ(result.status().code(), StatusCode::kIoError) << name;
    EXPECT_EQ(cache.ExternalPins(), 0u) << name;
  }
}

TEST_F(ResilienceScanTest, CancelledScanLeavesNoCachePins) {
  BlockCache cache(8ULL << 20, 4);
  QueryContext ctx;
  ctx.Cancel();
  auto result = RunSerial("t_col", &ctx, nullptr, &cache);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(cache.ExternalPins(), 0u);
}

// --- parallel executor ---

TEST_F(ResilienceScanTest, ParallelRunObservesCancellation) {
  ASSERT_OK_AND_ASSIGN(OpenTable table, OpenTable::Open(dir_.path(), "t_col"));
  FileBackend backend;
  QueryContext ctx;
  ctx.Cancel();
  ParallelScanPlan plan;
  plan.table = &table;
  plan.spec = AllColumnsSpec();
  plan.backend = &backend;
  plan.context = &ctx;
  auto result = ParallelExecute(plan, 3);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(ThreadPool::Shared()->QueueDepth(), 0u);
}

TEST_F(ResilienceScanTest, FailingWorkerCancelsSiblingsNotCaller) {
  ASSERT_OK_AND_ASSIGN(OpenTable table, OpenTable::Open(dir_.path(), "t_row"));
  FileBackend file_backend;
  // Every worker's stream dies on its second unit; the run must surface
  // the I/O error (the root cause), not the sibling cancellations it
  // triggered, and the caller's own token must stay unfired.
  FaultInjectingBackend faulty(&file_backend, FaultSpec::FailAfter(1));
  QueryContext ctx;
  ParallelScanPlan plan;
  plan.table = &table;
  plan.spec = AllColumnsSpec();
  plan.spec.read.verify_checksums = true;
  plan.backend = &faulty;
  plan.context = &ctx;
  auto result = ParallelExecute(plan, 3);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
  EXPECT_FALSE(ctx.token().IsCancelled());
  // No morsel may be left queued after an aborted run.
  EXPECT_EQ(ThreadPool::Shared()->QueueDepth(), 0u);
}

TEST_F(ResilienceScanTest, ParallelRunHonorsMemoryBudget) {
  ASSERT_OK_AND_ASSIGN(OpenTable table, OpenTable::Open(dir_.path(), "t_row"));
  FileBackend backend;
  QueryContext ctx;
  // Far too small for even one output block: the first worker
  // reservation fails and the whole run reports ResourceExhausted.
  ctx.set_memory_budget(std::make_shared<MemoryBudget>(16));
  ParallelScanPlan plan;
  plan.table = &table;
  plan.spec = AllColumnsSpec();
  plan.backend = &backend;
  plan.context = &ctx;
  auto result = ParallelExecute(plan, 3);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  // Budget fully returned: the failed run cannot strand reservations.
  EXPECT_EQ(ctx.memory_budget()->used_bytes(), 0u);
  // A budget that fits the whole output succeeds.
  QueryContext roomy;
  roomy.set_memory_budget(std::make_shared<MemoryBudget>(64ULL << 20));
  plan.context = &roomy;
  ASSERT_OK_AND_ASSIGN(auto ok_result, ParallelExecute(plan, 3));
  EXPECT_EQ(ok_result.result.rows, tuples_.size());
  EXPECT_EQ(roomy.memory_budget()->used_bytes(), 0u);
}

// --- ingest merge ---

TEST_F(ResilienceScanTest, IngestMergeObservesContext) {
  // The merge streams its inputs through scans under the caller's
  // context, so a cancelled merge stops at a page boundary: one counted
  // failure, the epoch kept, no generation file left behind.
  IngestOptions options;
  options.layout = Layout::kPax;
  options.page_size = 512;
  options.freeze_tuples = 0;
  options.merge_segments = 0;
  ASSERT_OK_AND_ASSIGN(auto store, IngestStore::Open(dir_.path(), "events",
                                                     schema_, options));
  for (size_t i = 0; i < tuples_.size(); ++i) {
    ASSERT_OK(store->Append(tuples_[i].data()));
    if (i % 500 == 499) ASSERT_OK(store->Freeze());
  }
  const uint64_t epoch = store->epoch();
  obs::Counter* failures =
      obs::MetricsRegistry::Default().GetCounter("rodb.ingest.merge_failures");
  const uint64_t failures_before = failures->Value();
  QueryContext ctx;
  ctx.Cancel();
  const Status merged = store->Merge(&ctx);
  EXPECT_EQ(merged.code(), StatusCode::kCancelled) << merged.ToString();
  EXPECT_EQ(failures->Value(), failures_before + 1);
  EXPECT_EQ(store->epoch(), epoch);
  for (const auto& entry : std::filesystem::directory_iterator(dir_.path())) {
    EXPECT_NE(entry.path().filename().string().rfind("events__gen", 0), 0u)
        << entry.path();
  }
  // And without a context the same merge runs to completion.
  ASSERT_OK(store->Merge());
  const Snapshot snap = store->Acquire();
  ASSERT_NE(snap.ros(), nullptr);
  EXPECT_EQ(snap.num_frozen(), 0u);
  EXPECT_EQ(snap.ros()->meta().num_tuples, tuples_.size());
}

}  // namespace
}  // namespace rodb
