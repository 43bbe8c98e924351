// The scan-sharing query server: QueryEngine routing, circulating-scan
// attach semantics, lifecycle handling at window boundaries, and the
// socket front end.
//
// The attach-semantics tests drive the circulation deterministically
// with a gated backend: the scan cannot read I/O unit k+1 until the
// test releases it, so a query enqueued while the gate is closed is
// guaranteed to attach mid-flight (cursor > 0) and must still see
// exactly one full circulation -- no missed pages, no duplicates.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <iterator>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "engine/executor.h"
#include "engine/query_context.h"
#include "scan_test_util.h"
#include "server/circulating_scan.h"
#include "server/client.h"
#include "server/query_engine.h"
#include "server/query_request.h"
#include "server/server.h"
#include "storage/database.h"
#include "test_util.h"

namespace rodb {
namespace {

using rodb::testing::LoadAllLayouts;
using rodb::testing::TempDir;

constexpr int kTupleWidth = 16;  // id:4 val:4 tag:8
constexpr uint64_t kNumTuples = 6000;

const char* kTags[] = {"east    ", "west    ", "north   ", "south   "};

Result<Schema> TestSchema() {
  return Schema::Make({
      AttributeDesc::Int32("id"),
      AttributeDesc::Int32("val"),
      AttributeDesc::Text("tag", 8, CodecSpec::Dict(3)),
  });
}

std::vector<std::vector<uint8_t>> TestTuples(uint64_t n = kNumTuples) {
  std::vector<std::vector<uint8_t>> tuples;
  tuples.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    std::vector<uint8_t> t(kTupleWidth);
    StoreLE32s(t.data(), static_cast<int32_t>(i));
    StoreLE32s(t.data() + 4, static_cast<int32_t>((i * 7919) % 500));
    std::memcpy(t.data() + 8, kTags[i % 4], 8);
    tuples.push_back(std::move(t));
  }
  return tuples;
}

/// Backend decorator that blocks stream reads until the test releases
/// tickets: one ticket per I/O-unit Next() call. Lets a test freeze the
/// circulating scan at a known point in its lap.
class GateBackend : public IoBackend {
 public:
  explicit GateBackend(IoBackend* inner) : inner_(inner) {}

  void Allow(uint64_t n) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      allowed_ += n;
    }
    cv_.notify_all();
  }
  void AllowAll() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      unlimited_ = true;
    }
    cv_.notify_all();
  }
  uint64_t served() const {
    std::lock_guard<std::mutex> lock(mu_);
    return served_;
  }
  /// Blocks until the gated stream has consumed `n` tickets and is
  /// (about to be) parked on the next one.
  void WaitServed(uint64_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return served_ >= n; });
  }

  Result<std::unique_ptr<SequentialStream>> OpenStream(
      const std::string& path, const IoOptions& options) override {
    RODB_ASSIGN_OR_RETURN(std::unique_ptr<SequentialStream> inner,
                          inner_->OpenStream(path, options));
    return std::unique_ptr<SequentialStream>(
        new GatedStream(this, std::move(inner)));
  }

 private:
  struct GatedStream : SequentialStream {
    GatedStream(GateBackend* gate, std::unique_ptr<SequentialStream> inner)
        : gate(gate), inner(std::move(inner)) {}
    Result<IoView> Next() override {
      gate->TakeTicket();
      return inner->Next();
    }
    uint64_t file_size() const override { return inner->file_size(); }
    GateBackend* gate;
    std::unique_ptr<SequentialStream> inner;
  };

  void TakeTicket() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return unlimited_ || served_ < allowed_; });
    ++served_;
    cv_.notify_all();
  }

  IoBackend* inner_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  uint64_t allowed_ = 0;
  uint64_t served_ = 0;
  bool unlimited_ = false;
};

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK_AND_ASSIGN(Schema schema, TestSchema());
    ASSERT_OK(LoadAllLayouts(dir_.path(), "t", schema, TestTuples()));
  }

  /// Attaches ingest table `name` (the test schema) to `engine`, holding
  /// one frozen segment and an in-memory tail.
  void AttachIngest(QueryEngine* engine, const std::string& name) {
    ASSERT_OK_AND_ASSIGN(Schema schema, TestSchema());
    ASSERT_OK(engine->EnsureIngest(name, schema));
    std::vector<uint8_t> bytes;
    for (const auto& tuple : TestTuples(500)) {
      bytes.insert(bytes.end(), tuple.begin(), tuple.end());
    }
    IngestRequest batch;
    batch.table = name;
    for (const uint64_t count : {300, 200}) {
      batch.count = count;
      batch.data.assign(bytes.begin(), bytes.begin() + count * kTupleWidth);
      batch.freeze = count == 300;
      ASSERT_OK(engine->Ingest(batch).status());
    }
  }

  EngineOptions SmallIoOptions() {
    EngineOptions options;
    options.shared_read.io_unit_bytes = 4096;
    options.shared_block_tuples = 128;
    return options;
  }

  TempDir dir_;
};

// --- mode routing and shared/exclusive equality ---

TEST_F(ServerTest, AutoModeRoutesFullScansToSharedOnly) {
  QueryEngine engine(dir_.path());
  QueryRequest request;
  request.table = "t_row";

  ASSERT_OK_AND_ASSIGN(QueryResult full, engine.Execute(request));
  EXPECT_TRUE(full.shared);

  QueryRequest ranged = request;
  ranged.table = "t_col";  // row ranges need the column layout
  ranged.scan.range = ScanRange::Rows(0, 100);
  ASSERT_OK_AND_ASSIGN(QueryResult r, engine.Execute(ranged));
  EXPECT_FALSE(r.shared);
  EXPECT_EQ(r.rows, 100u);

  QueryRequest ordered = request;
  ordered.ordered = true;
  ASSERT_OK_AND_ASSIGN(QueryResult o, engine.Execute(ordered));
  EXPECT_FALSE(o.shared);

  QueryRequest parallel = request;
  parallel.parallelism = 2;
  ASSERT_OK_AND_ASSIGN(QueryResult p, engine.Execute(parallel));
  EXPECT_FALSE(p.shared);

  EXPECT_EQ(full.rows, kNumTuples);
  EXPECT_EQ(o.rows, kNumTuples);
  EXPECT_EQ(p.rows, kNumTuples);
}

TEST_F(ServerTest, SharedDisabledForcesExclusive) {
  EngineOptions options;
  options.scan_sharing = false;
  QueryEngine engine(dir_.path(), options);
  QueryRequest request;
  request.table = "t_col";
  ASSERT_OK_AND_ASSIGN(QueryResult result, engine.Execute(request));
  EXPECT_FALSE(result.shared);
  request.mode = QueryMode::kShared;
  EXPECT_EQ(engine.Execute(request).status().code(),
            StatusCode::kNotSupported);
}

TEST_F(ServerTest, SharedRejectsRangedScans) {
  QueryEngine engine(dir_.path());
  QueryRequest request;
  request.table = "t_row";
  request.mode = QueryMode::kShared;
  request.scan.range = ScanRange::Rows(10, 50);
  EXPECT_EQ(engine.Execute(request).status().code(),
            StatusCode::kInvalidArgument);
}

// The acceptance sweep: shared and exclusive execution return the exact
// same result (rows and order-independent digest) for every layout and
// a spread of predicate/projection shapes. Sequential shared queries
// attach to an idle circulation at cursor 0, so even the order-chained
// checksum must match.
TEST_F(ServerTest, SharedMatchesExclusiveAcrossLayoutsAndPredicates) {
  QueryEngine engine(dir_.path(), SmallIoOptions());

  struct Case {
    std::vector<int> projection;
    std::vector<Predicate> predicates;
  };
  const Case cases[] = {
      {{}, {}},
      {{0}, {}},
      {{0, 1}, {Predicate::Int32(1, CompareOp::kLt, 100)}},
      {{2, 0}, {Predicate::Text(2, CompareOp::kEq, "east    ")}},
      {{1},
       {Predicate::Int32(1, CompareOp::kGe, 50),
        Predicate::Int32(0, CompareOp::kLt, 3000)}},
      {{0}, {Predicate::Int32(1, CompareOp::kGt, 10000)}},  // empty result
  };

  for (const char* table : {"t_row", "t_col", "t_pax"}) {
    for (size_t c = 0; c < std::size(cases); ++c) {
      QueryRequest request;
      request.table = table;
      request.scan.projection = cases[c].projection;
      request.scan.predicates = cases[c].predicates;

      request.mode = QueryMode::kExclusive;
      ASSERT_OK_AND_ASSIGN(QueryResult exclusive, engine.Execute(request));
      request.mode = QueryMode::kShared;
      ASSERT_OK_AND_ASSIGN(QueryResult shared, engine.Execute(request));

      SCOPED_TRACE(::testing::Message() << table << " case " << c);
      EXPECT_FALSE(exclusive.shared);
      EXPECT_TRUE(shared.shared);
      EXPECT_EQ(shared.rows, exclusive.rows);
      EXPECT_EQ(shared.row_digest, exclusive.row_digest);
      ASSERT_EQ(shared.attach_position, 0u)
          << "sequential shared queries attach to an idle circulation";
      EXPECT_EQ(shared.output_checksum, exclusive.output_checksum);
    }
  }
}

// Every mode runs the scan the engine resolved and validated once, so a
// bad scan fails with one status however it would have executed.
TEST_F(ServerTest, BadScanFailsAlikeInEveryMode) {
  QueryEngine engine(dir_.path());
  AttachIngest(&engine, "events");
  struct Case {
    ScanSpec scan;
    StatusCode code;
  };
  Case cases[] = {{{}, StatusCode::kOutOfRange},
                  {{}, StatusCode::kOutOfRange},
                  {{}, StatusCode::kOutOfRange},
                  {{}, StatusCode::kInvalidArgument}};
  cases[0].scan.projection = {99};
  cases[1].scan.projection = {-1};
  cases[2].scan.predicates = {Predicate::Int32(42, CompareOp::kLt, 7)};
  cases[3].scan.block_tuples = 0;
  for (const Case& c : cases) {
    for (const std::string mode :
         {"shared", "exclusive", "parallel", "snapshot"}) {
      QueryRequest request;
      request.table = mode == "snapshot" ? "events" : "t_row";
      request.scan = c.scan;
      request.mode =
          mode == "shared" ? QueryMode::kShared : QueryMode::kExclusive;
      if (mode == "parallel") request.parallelism = 2;
      EXPECT_EQ(engine.Execute(request).status().code(), c.code) << mode;
    }
  }
}

TEST_F(ServerTest, ZeroSharedBlockTuplesFailsSharedQueries) {
  EngineOptions options;
  options.shared_block_tuples = 0;
  QueryEngine engine(dir_.path(), options);
  QueryRequest request;
  request.table = "t_row";
  request.mode = QueryMode::kShared;
  // Bounds the wait on a circulation whose windows could never advance.
  request.timeout = std::chrono::milliseconds(2000);
  EXPECT_EQ(engine.Execute(request).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ServerTest, ParallelExclusiveMatchesSerial) {
  QueryEngine engine(dir_.path());
  QueryRequest request;
  request.table = "t_row";
  request.mode = QueryMode::kExclusive;
  request.scan.predicates = {Predicate::Int32(1, CompareOp::kLt, 250)};
  ASSERT_OK_AND_ASSIGN(QueryResult serial, engine.Execute(request));
  request.parallelism = 4;
  ASSERT_OK_AND_ASSIGN(QueryResult parallel, engine.Execute(request));
  EXPECT_EQ(parallel.rows, serial.rows);
  EXPECT_EQ(parallel.output_checksum, serial.output_checksum);
  EXPECT_GE(parallel.morsels, 1);
}

TEST_F(ServerTest, ExclusiveCollectRowsHonorsLimit) {
  QueryEngine engine(dir_.path());
  QueryRequest request;
  request.table = "t_row";
  request.mode = QueryMode::kExclusive;
  request.scan.projection = {0};
  request.collect_rows = true;
  request.limit_rows = 7;
  ASSERT_OK_AND_ASSIGN(QueryResult result, engine.Execute(request));
  EXPECT_EQ(result.rows, kNumTuples);  // the scan still runs to completion
  ASSERT_EQ(result.rows_collected, 7u);
  for (uint64_t i = 0; i < result.rows_collected; ++i) {
    EXPECT_EQ(LoadLE32s(result.collected_tuple(i)),
              static_cast<int32_t>(i));
  }
}

// --- mid-flight attach semantics (gated circulation) ---

TEST_F(ServerTest, MidFlightAttachSeesExactlyOneCirculation) {
  FileBackend disk;
  GateBackend gate(&disk);
  EngineOptions options = SmallIoOptions();
  options.backend = &gate;
  QueryEngine engine(dir_.path(), options);

  // Query A starts the circulation; the gate lets it through the first
  // three I/O units (a few thousand tuples) and then freezes the lap.
  gate.Allow(3);
  QueryRequest request;
  request.table = "t_row";
  request.mode = QueryMode::kShared;
  Result<QueryResult> result_a = Status::Internal("not run");
  std::thread thread_a(
      [&] { result_a = engine.Execute(request); });
  gate.WaitServed(3);

  // Query B arrives while the cursor is parked mid-table: it must
  // attach at a nonzero position and still see every tuple exactly
  // once, in circulation order (table order rotated by the attach
  // position).
  QueryRequest request_b = request;
  request_b.scan.projection = {0};
  request_b.collect_rows = true;
  Result<QueryResult> result_b = Status::Internal("not run");
  std::thread thread_b(
      [&] { result_b = engine.Execute(request_b); });
  // B counts as pending until a boundary admits it; the circulator is
  // still chewing on the already-ticketed unit, so it may attach B
  // before we ever observe it in the pending queue. Either state means
  // B is registered -- and every boundary since the gate opened sits at
  // a nonzero cursor.
  while (true) {
    CirculatingScan::Stats stats = engine.SharedScanStats("t_row");
    if (stats.pending > 0 || stats.attached >= 2) break;
    std::this_thread::yield();
  }
  gate.AllowAll();
  thread_a.join();
  thread_b.join();

  ASSERT_OK(result_a.status());
  ASSERT_OK(result_b.status());
  EXPECT_EQ(result_a->rows, kNumTuples);
  ASSERT_EQ(result_b->rows, kNumTuples);

  const uint64_t attach = result_b->attach_position;
  EXPECT_GT(attach, 0u) << "B enqueued against a frozen mid-lap cursor";
  ASSERT_EQ(result_b->rows_collected, kNumTuples);
  for (uint64_t i = 0; i < kNumTuples; ++i) {
    const int32_t expect =
        static_cast<int32_t>((attach + i) % kNumTuples);
    ASSERT_EQ(LoadLE32s(result_b->collected_tuple(i)), expect)
        << "rotation broken at delivery index " << i;
  }

  // Order-independent digest matches the exclusive run even though the
  // delivery order was rotated.
  QueryRequest exclusive = request_b;
  exclusive.mode = QueryMode::kExclusive;
  exclusive.collect_rows = false;
  ASSERT_OK_AND_ASSIGN(QueryResult ground, engine.Execute(exclusive));
  EXPECT_EQ(result_b->row_digest, ground.row_digest);
}

TEST_F(ServerTest, SharedCancellationDetachesAtBoundary) {
  FileBackend disk;
  GateBackend gate(&disk);
  EngineOptions options = SmallIoOptions();
  options.backend = &gate;
  QueryEngine engine(dir_.path(), options);

  gate.Allow(2);
  QueryRequest doomed;
  doomed.table = "t_row";
  doomed.mode = QueryMode::kShared;
  Result<QueryResult> result = Status::Internal("not run");
  std::thread runner([&] { result = engine.Execute(doomed); });
  gate.WaitServed(2);
  doomed.cancel.Cancel();
  gate.AllowAll();
  runner.join();
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);

  // The circulation survives the departure: a fresh query completes.
  QueryRequest after;
  after.table = "t_row";
  after.mode = QueryMode::kShared;
  ASSERT_OK_AND_ASSIGN(QueryResult ok, engine.Execute(after));
  EXPECT_EQ(ok.rows, kNumTuples);
}

TEST_F(ServerTest, SharedDeadlineExpiresAtBoundary) {
  FileBackend disk;
  GateBackend gate(&disk);
  EngineOptions options = SmallIoOptions();
  options.backend = &gate;
  QueryEngine engine(dir_.path(), options);

  gate.Allow(2);
  QueryRequest request;
  request.table = "t_row";
  request.mode = QueryMode::kShared;
  request.timeout = std::chrono::milliseconds(20);
  Result<QueryResult> result = Status::Internal("not run");
  std::thread runner([&] { result = engine.Execute(request); });
  gate.WaitServed(2);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  gate.AllowAll();
  runner.join();
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(ServerTest, SharedAdmissionShedsOverload) {
  FileBackend disk;
  GateBackend gate(&disk);
  EngineOptions options = SmallIoOptions();
  options.backend = &gate;
  options.shared.max_concurrent = 1;
  options.shared.max_queue = 0;
  QueryEngine engine(dir_.path(), options);

  gate.Allow(1);
  QueryRequest request;
  request.table = "t_row";
  request.mode = QueryMode::kShared;
  Result<QueryResult> first = Status::Internal("not run");
  std::thread runner([&] { first = engine.Execute(request); });
  // Wait until the first query holds the only admission slot.
  while (engine.SharedScanStats("t_row").attached +
             engine.SharedScanStats("t_row").pending ==
         0) {
    std::this_thread::yield();
  }
  EXPECT_EQ(engine.Execute(request).status().code(),
            StatusCode::kResourceExhausted);
  gate.AllowAll();
  runner.join();
  ASSERT_OK(first.status());
  EXPECT_EQ(first->rows, kNumTuples);
}

TEST_F(ServerTest, SharedCollectRowsRespectsMemoryBudget) {
  EngineOptions options = SmallIoOptions();
  options.shared.memory_budget_bytes = 64 * 1024;  // < one reserve chunk
  QueryEngine engine(dir_.path(), options);
  QueryRequest request;
  request.table = "t_row";
  request.mode = QueryMode::kShared;
  request.collect_rows = true;
  EXPECT_EQ(engine.Execute(request).status().code(),
            StatusCode::kResourceExhausted);
  // Without collection the same query fits the budget.
  request.collect_rows = false;
  ASSERT_OK_AND_ASSIGN(QueryResult result, engine.Execute(request));
  EXPECT_EQ(result.rows, kNumTuples);
}

TEST_F(ServerTest, EmptyTableSharedCompletesImmediately) {
  ASSERT_OK_AND_ASSIGN(Schema schema, TestSchema());
  ASSERT_OK(LoadAllLayouts(dir_.path(), "empty", schema, {}));
  QueryEngine engine(dir_.path());
  QueryRequest request;
  request.table = "empty_row";
  request.mode = QueryMode::kShared;
  ASSERT_OK_AND_ASSIGN(QueryResult result, engine.Execute(request));
  EXPECT_TRUE(result.shared);
  EXPECT_EQ(result.rows, 0u);
}

TEST_F(ServerTest, ShutdownFailsInFlightQueries) {
  FileBackend disk;
  GateBackend gate(&disk);
  EngineOptions options = SmallIoOptions();
  options.backend = &gate;
  QueryEngine engine(dir_.path(), options);

  gate.Allow(1);
  QueryRequest request;
  request.table = "t_row";
  request.mode = QueryMode::kShared;
  Result<QueryResult> result = Status::Internal("not run");
  std::thread runner([&] { result = engine.Execute(request); });
  gate.WaitServed(1);
  gate.AllowAll();  // Stop() joins the circulator; it must not deadlock
  engine.Shutdown();
  runner.join();
  // The query either completed its circulation before the shutdown won
  // the race, or was failed with Cancelled -- never hangs, never lies.
  if (!result.ok()) {
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  }
}

// --- Database facade ---

TEST_F(ServerTest, DatabaseExecuteFacade) {
  ASSERT_OK_AND_ASSIGN(Database db, Database::Open(dir_.path()));
  EngineOptions options;
  options.cache_bytes = 8 << 20;
  db.ConfigureEngine(options);
  QueryRequest request;
  request.table = "t_col";
  request.scan.predicates = {Predicate::Int32(1, CompareOp::kLt, 100)};
  ASSERT_OK_AND_ASSIGN(QueryResult result, db.Execute(request));
  EXPECT_GT(result.rows, 0u);
  EXPECT_LT(result.rows, kNumTuples);
  ASSERT_NE(db.engine(), nullptr);
  EXPECT_NE(db.engine()->cache(), nullptr);
}

// --- socket front end ---

TEST_F(ServerTest, SocketEndToEnd) {
  QueryServer server(dir_.path());
  ASSERT_OK(server.Start());
  ASSERT_GT(server.port(), 0);

  QueryClient client;
  ASSERT_OK(client.Connect("127.0.0.1", server.port()));
  ASSERT_OK(client.Ping());

  QueryRequest request;
  request.table = "t_row";
  request.scan.projection = {0, 1};
  request.scan.predicates = {Predicate::Int32(1, CompareOp::kLt, 100)};
  request.collect_rows = true;
  request.limit_rows = 5;
  ASSERT_OK_AND_ASSIGN(QueryResult remote, client.Execute(request));

  // Same query executed locally must agree byte for byte.
  ASSERT_OK_AND_ASSIGN(QueryResult local,
                       server.engine().Execute(request));
  EXPECT_EQ(remote.rows, local.rows);
  EXPECT_EQ(remote.row_digest, local.row_digest);
  EXPECT_EQ(remote.rows_collected, local.rows_collected);
  EXPECT_EQ(remote.row_data, local.row_data);
  EXPECT_EQ(remote.row_layout.tuple_width, local.row_layout.tuple_width);

  // Server-side failures come back as this call's status.
  QueryRequest missing;
  missing.table = "no_such_table";
  EXPECT_FALSE(client.Execute(missing).ok());

  // The connection survives an error frame and serves the next query.
  ASSERT_OK_AND_ASSIGN(QueryResult again, client.Execute(request));
  EXPECT_EQ(again.rows, local.rows);

  client.Close();
  server.Stop();
  EXPECT_EQ(server.active_connections(), 0u);
}

TEST_F(ServerTest, SocketIngestEndToEnd) {
  QueryServer server(dir_.path());
  ASSERT_OK(server.Start());
  QueryClient client;
  ASSERT_OK(client.Connect("127.0.0.1", server.port()));

  ASSERT_OK_AND_ASSIGN(Schema schema, TestSchema());
  std::string schema_text;
  schema.AppendTo(&schema_text);

  const auto batch_bytes = [&](uint64_t first, uint64_t count) {
    std::vector<uint8_t> bytes;
    for (const auto& tuple : TestTuples(first + count)) {
      if (first > 0) {
        --first;
        continue;
      }
      bytes.insert(bytes.end(), tuple.begin(), tuple.end());
    }
    return bytes;
  };

  // First batch carries the schema and attaches the ingest lifecycle.
  IngestRequest batch;
  batch.table = "events";
  batch.schema_text = schema_text;
  batch.layout = Layout::kColumn;
  batch.count = 300;
  batch.data = batch_bytes(0, 300);
  ASSERT_OK_AND_ASSIGN(IngestResult first, client.Ingest(batch));
  EXPECT_EQ(first.appended_total, 300u);
  EXPECT_EQ(first.epoch, 0u);  // nothing frozen yet

  // Second batch: already attached, freeze afterwards (epoch commits).
  batch.schema_text.clear();
  batch.count = 200;
  batch.data = batch_bytes(300, 200);
  batch.freeze = true;
  ASSERT_OK_AND_ASSIGN(IngestResult second, client.Ingest(batch));
  EXPECT_EQ(second.appended_total, 500u);
  EXPECT_GE(second.epoch, 1u);
  EXPECT_GE(second.frozen_segments, 1u);

  // Remote snapshot query sees exactly the append-order prefix.
  QueryRequest query;
  query.table = "events";
  query.scan.predicates = {Predicate::Int32(1, CompareOp::kLt, 100)};
  ASSERT_OK_AND_ASSIGN(QueryResult remote, client.Execute(query));
  EXPECT_EQ(remote.snapshot_tuples, 500u);
  ASSERT_OK_AND_ASSIGN(QueryResult local, server.engine().Execute(query));
  EXPECT_EQ(remote.rows, local.rows);
  EXPECT_EQ(remote.row_digest, local.row_digest);

  // A malformed batch (count/data mismatch) is a clean error frame and
  // the connection survives it.
  IngestRequest bad;
  bad.table = "events";
  bad.count = 7;
  bad.data = {1, 2, 3};
  EXPECT_FALSE(client.Ingest(bad).ok());
  ASSERT_OK_AND_ASSIGN(IngestResult alive,
                       client.Ingest([&] {
                         IngestRequest more;
                         more.table = "events";
                         more.count = 100;
                         more.data = batch_bytes(0, 100);
                         return more;
                       }()));
  EXPECT_EQ(alive.appended_total, 600u);

  client.Close();
  server.Stop();
}

TEST_F(ServerTest, SocketManyConcurrentClients) {
  QueryServer server(dir_.path());
  ASSERT_OK(server.Start());

  constexpr int kClients = 16;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      QueryClient client;
      if (!client.Connect("127.0.0.1", server.port()).ok()) {
        ++failures;
        return;
      }
      QueryRequest request;
      request.table = c % 2 == 0 ? "t_row" : "t_col";
      auto result = client.Execute(request);
      if (!result.ok() || result->rows != kNumTuples) ++failures;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  server.Stop();
}

// --- graceful drain, health, idle culling, shutdown races ---

TEST_F(ServerTest, SocketHealthRoundTrip) {
  QueryServer server(dir_.path());
  ASSERT_OK(server.Start());
  QueryClient client;
  ASSERT_OK(client.Connect("127.0.0.1", server.port()));

  ASSERT_OK_AND_ASSIGN(ServerHealth health, client.Health());
  EXPECT_EQ(health.state, static_cast<uint8_t>(ServerState::kServing));
  EXPECT_GE(health.active_connections, 1u);
  EXPECT_EQ(health.inflight_requests, 0u);

  client.Close();
  // Draining an idle server completes immediately and stops it.
  ASSERT_OK(server.Drain());
  EXPECT_EQ(server.state(), ServerState::kStopped);
  // Idempotent after stop.
  ASSERT_OK(server.Drain());
  server.Stop();
}

TEST_F(ServerTest, DrainFinishesInFlightAndShedsNewWork) {
  FileBackend disk;
  GateBackend gate(&disk);
  ServerOptions options;
  options.engine = SmallIoOptions();
  options.engine.backend = &gate;
  options.drain_timeout_ms = 10'000;
  QueryServer server(dir_.path(), options);
  ASSERT_OK(server.Start());

  // Client A parks a shared scan mid-lap behind the gate.
  QueryClient slow;
  ASSERT_OK(slow.Connect("127.0.0.1", server.port()));
  // Client B connects before the drain closes the listener.
  QueryClient probe;
  ASSERT_OK(probe.Connect("127.0.0.1", server.port()));

  gate.Allow(2);
  QueryRequest request;
  request.table = "t_row";
  request.mode = QueryMode::kShared;
  Result<QueryResult> slow_result = Status::Internal("not run");
  std::thread slow_thread([&] { slow_result = slow.Execute(request); });
  gate.WaitServed(2);
  while (server.inflight_requests() == 0) std::this_thread::yield();

  Status drain_status = Status::Internal("not run");
  std::thread drain_thread([&] { drain_status = server.Drain(); });
  while (server.state() != ServerState::kDraining) std::this_thread::yield();

  // Existing connections still answer health during the drain...
  ASSERT_OK_AND_ASSIGN(ServerHealth health, probe.Health());
  EXPECT_EQ(health.state, static_cast<uint8_t>(ServerState::kDraining));
  EXPECT_GE(health.inflight_requests, 1u);
  // ...but new work is shed with Unavailable, both queries and ingest.
  Result<QueryResult> shed = probe.Execute(request);
  ASSERT_FALSE(shed.ok());
  EXPECT_TRUE(shed.status().IsUnavailable()) << shed.status().ToString();
  IngestRequest batch;
  batch.table = "t_row";
  batch.count = 1;
  batch.data.resize(kTupleWidth);
  Result<IngestResult> shed_ingest = probe.Ingest(batch);
  ASSERT_FALSE(shed_ingest.ok());
  EXPECT_TRUE(shed_ingest.status().IsUnavailable());
  // New connections are refused: the listener is closed.
  QueryClient late;
  EXPECT_FALSE(late.Connect("127.0.0.1", server.port()).ok());

  // Release the gate: the in-flight query finishes normally and the
  // drain completes without shedding it.
  gate.AllowAll();
  slow_thread.join();
  drain_thread.join();
  ASSERT_OK(drain_status);
  EXPECT_EQ(server.state(), ServerState::kStopped);
  ASSERT_OK(slow_result.status());
  EXPECT_EQ(slow_result->rows, kNumTuples);
}

TEST_F(ServerTest, DrainDeadlineShedsStuckQueryAsUnavailable) {
  FileBackend disk;
  GateBackend gate(&disk);
  ServerOptions options;
  options.engine = SmallIoOptions();
  options.engine.backend = &gate;
  options.drain_timeout_ms = 50;  // the stuck query must be shed
  QueryServer server(dir_.path(), options);
  ASSERT_OK(server.Start());

  QueryClient slow;
  ASSERT_OK(slow.Connect("127.0.0.1", server.port()));
  gate.Allow(2);
  QueryRequest request;
  request.table = "t_row";
  request.mode = QueryMode::kShared;
  Result<QueryResult> slow_result = Status::Internal("not run");
  std::thread slow_thread([&] { slow_result = slow.Execute(request); });
  gate.WaitServed(2);
  while (server.inflight_requests() == 0) std::this_thread::yield();

  Status drain_status = Status::Internal("not run");
  std::thread drain_thread([&] { drain_status = server.Drain(); });
  // Give the drain time to burn both budgets and cancel the token,
  // then unblock the I/O so the scan can observe the cancellation at
  // its next window boundary.
  while (server.state() != ServerState::kDraining) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  gate.AllowAll();
  slow_thread.join();
  drain_thread.join();
  ASSERT_OK(drain_status);

  // The client saw a clean error frame, not a hang or a torn
  // connection mid-result: shed work reports Unavailable.
  ASSERT_FALSE(slow_result.ok());
  EXPECT_TRUE(slow_result.status().IsUnavailable() ||
              slow_result.status().IsCancelled() ||
              slow_result.status().IsIoError())
      << slow_result.status().ToString();
}

TEST_F(ServerTest, IdleConnectionsAreCulled) {
  ServerOptions options;
  options.idle_timeout_ms = 100;
  options.read_slice_ms = 20;
  QueryServer server(dir_.path(), options);
  ASSERT_OK(server.Start());

  QueryClient client;
  ASSERT_OK(client.Connect("127.0.0.1", server.port()));
  ASSERT_OK(client.Ping());
  // Sit idle past the timeout: the server closes the connection.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.active_connections() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server.active_connections(), 0u);
  EXPECT_FALSE(client.Ping().ok());
  server.Stop();
}

TEST_F(ServerTest, StopRacingInFlightIngestJoinsCleanly) {
  ASSERT_OK_AND_ASSIGN(Schema schema, TestSchema());
  std::string schema_text;
  schema.AppendTo(&schema_text);

  // Repeat the race a few times: the interesting interleaving is
  // Stop() landing while a kIngest frame is executing, which used to
  // leave the handler thread unjoined (and its reply write could
  // SIGPIPE the process once Stop shut the socket down).
  for (int round = 0; round < 5; ++round) {
    TempDir dir;
    QueryServer server(dir.path());
    ASSERT_OK(server.Start());

    std::thread ingester([&] {
      QueryClient client;
      if (!client.Connect("127.0.0.1", server.port()).ok()) return;
      IngestRequest batch;
      batch.table = "events";
      batch.schema_text = schema_text;
      batch.count = 2000;
      for (const auto& tuple : TestTuples(2000)) {
        batch.data.insert(batch.data.end(), tuple.begin(), tuple.end());
      }
      // Keep streaming until the shutdown fails a batch; every reply
      // must be a clean success or error, never a hang.
      for (int i = 0; i < 1000; ++i) {
        batch.schema_text = i == 0 ? schema_text : "";
        if (!client.Ingest(batch).ok()) break;
      }
    });

    // Let the stream get going, then race two stoppers against it.
    std::this_thread::sleep_for(std::chrono::milliseconds(5 * round));
    std::thread stopper_a([&] { server.Stop(); });
    std::thread stopper_b([&] { server.Stop(); });
    stopper_a.join();
    stopper_b.join();
    EXPECT_EQ(server.state(), ServerState::kStopped);
    ingester.join();
  }
}

// Pins ResultFold's definitions, whatever way it computes them:
// output_checksum is FNV-1a chained over every output byte in delivery
// order (across blocks), row_digest the wrapping sum of each tuple's own
// FNV-1a hash, and the first limit_rows tuples (all when 0) are collected.
TEST(ResultFoldTest, ChecksumDigestAndCollectedRows) {
  struct Collect {
    bool on;
    uint64_t limit;
  };
  for (const int width : {4, 12, 150}) {
    for (const uint32_t count : {1u, 100u, 1024u}) {
      for (const Collect collect :
           {Collect{false, 0}, Collect{true, 0}, Collect{true, 73}}) {
        SCOPED_TRACE("width " + std::to_string(width) + " count " +
                     std::to_string(count) + " collect " +
                     std::to_string(collect.on) + " limit " +
                     std::to_string(collect.limit));
        const size_t w = static_cast<size_t>(width);
        std::vector<uint8_t> tuples(w * count);
        for (size_t i = 0; i < tuples.size(); ++i) {
          tuples[i] = static_cast<uint8_t>(i * 131 + (i >> 7));
        }
        QueryRequest request;
        request.collect_rows = collect.on;
        request.limit_rows = collect.limit;
        QueryContext ctx;
        QueryResult result;
        result.row_layout = BlockLayout::FromWidths({width});
        ResultFold fold(request, &ctx, &result);
        // Two blocks where there are two tuples: the checksum chains
        // across the block boundary.
        const uint32_t first = count / 2;
        if (first > 0) ASSERT_OK(fold.Add(tuples.data(), first));
        ASSERT_OK(fold.Add(tuples.data() + first * w, count - first));

        uint64_t digest = 0;
        for (uint32_t i = 0; i < count; ++i) {
          digest += Fnv1aExtend(kFnv1aSeed, tuples.data() + i * w, w);
        }
        const uint64_t collected =
            !collect.on ? 0
            : collect.limit == 0
                ? count
                : std::min<uint64_t>(count, collect.limit);
        EXPECT_EQ(result.output_checksum,
                  Fnv1aExtend(kFnv1aSeed, tuples.data(), tuples.size()));
        EXPECT_EQ(result.row_digest, digest);
        EXPECT_EQ(result.rows, count);
        EXPECT_EQ(result.blocks, first > 0 ? 2u : 1u);
        EXPECT_EQ(result.rows_collected, collected);
        EXPECT_EQ(result.row_data,
                  std::vector<uint8_t>(tuples.begin(),
                                       tuples.begin() + collected * w));
      }
    }
  }
}

}  // namespace
}  // namespace rodb
