/// Differential harness for the continuous-ingest lifecycle: seeded
/// ingest/freeze/merge schedules run against snapshot queries, and every
/// result must equal a reference-oracle evaluation over the tuples
/// visible at the snapshot's epoch.
///
/// The oracle leans on the prefix property: the store appends in one
/// total order and freeze/merge preserve the multiset, so a snapshot
/// with visible_tuples() == N sees exactly the first N tuples ever
/// appended. The harness keeps that append log and replays predicates
/// and projections over the prefix, comparing by the engine's
/// order-independent row digest.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/bytes.h"
#include "common/file_util.h"
#include "engine/executor.h"
#include "server/query_engine.h"
#include "storage/database.h"
#include "storage/table_files.h"
#include "test_util.h"
#include "wos/ingest_store.h"

namespace rodb {
namespace {

using rodb::testing::TempDir;

Schema PlainSchema() {
  auto schema = Schema::Make(
      {AttributeDesc::Int32("key"), AttributeDesc::Int32("val")});
  EXPECT_TRUE(schema.ok());
  return std::move(schema).value();
}

/// Bit-packed variant: both attributes stay under 2^10, so every page
/// of every frozen segment and generation compresses.
Schema CompressedSchema() {
  auto schema = Schema::Make(
      {AttributeDesc::Int32("key", CodecSpec::BitPack(10)),
       AttributeDesc::Int32("val", CodecSpec::BitPack(10))});
  EXPECT_TRUE(schema.ok());
  return std::move(schema).value();
}

std::vector<uint8_t> Row(int32_t key, int32_t val) {
  std::vector<uint8_t> t(8);
  StoreLE32s(t.data(), key);
  StoreLE32s(t.data() + 4, val);
  return t;
}

/// The append log: tuple i is the i-th tuple ever appended.
using Reference = std::vector<std::vector<uint8_t>>;

/// Replays the query over the first `visible` reference tuples and
/// returns {qualifying rows, order-independent digest of the projected
/// output} -- what a consistent snapshot read must report.
struct OracleAnswer {
  uint64_t rows = 0;
  uint64_t digest = 0;
  Reference projected;  ///< qualifying projected tuples, append order
};

OracleAnswer Oracle(const Reference& ref, uint64_t visible,
                    const Schema& schema, const QueryRequest& request) {
  std::vector<int> projection = request.scan.projection;
  if (projection.empty()) {
    for (size_t a = 0; a < schema.num_attributes(); ++a) {
      projection.push_back(static_cast<int>(a));
    }
  }
  OracleAnswer answer;
  std::vector<uint8_t> out;
  for (uint64_t i = 0; i < visible; ++i) {
    const uint8_t* tuple = ref[i].data();
    bool pass = true;
    for (const Predicate& pred : request.scan.predicates) {
      if (!pred.Eval(tuple + schema.attr_offset(
                                 static_cast<size_t>(pred.attr_index())))) {
        pass = false;
        break;
      }
    }
    if (!pass) continue;
    out.clear();
    for (int attr : projection) {
      const int offset = schema.attr_offset(static_cast<size_t>(attr));
      const int width = schema.attribute(static_cast<size_t>(attr)).width;
      out.insert(out.end(), tuple + offset, tuple + offset + width);
    }
    ++answer.rows;
    answer.digest += Fnv1aExtend(kFnv1aSeed, out.data(), out.size());
    answer.projected.push_back(out);
  }
  return answer;
}

/// One seeded lifecycle schedule: layout x codec x interleaving.
struct SweepParam {
  Layout layout;
  bool compressed;
  uint32_t seed;
};

std::string SweepName(const ::testing::TestParamInfo<SweepParam>& info) {
  return std::string(LayoutName(info.param.layout)) +
         (info.param.compressed ? "_bitpack_s" : "_plain_s") +
         std::to_string(info.param.seed);
}

class SnapshotSweepTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(SnapshotSweepTest, SnapshotReadsMatchOracle) {
  const SweepParam p = GetParam();
  TempDir dir;
  const Schema schema = p.compressed ? CompressedSchema() : PlainSchema();

  ASSERT_OK_AND_ASSIGN(Database db, Database::Open(dir.path()));
  IngestOptions options;
  options.layout = p.layout;
  options.page_size = 1024;  // small pages => many pages per segment
  options.freeze_tuples = 0;  // the schedule drives the lifecycle
  options.merge_segments = 0;
  ASSERT_OK(db.EnsureIngest("events", schema, options));
  std::shared_ptr<IngestStore> store = db.ingest("events");
  ASSERT_NE(store, nullptr);

  std::mt19937 rng(p.seed);
  std::uniform_int_distribution<int32_t> value(0, 999);
  std::uniform_int_distribution<int> batch(1, 60);
  // Seed-derived interleaving: how often freezes and merges land
  // relative to appends, and with what phase.
  const int freeze_every = 2 + static_cast<int>(rng() % 2);
  const int merge_every = 3 + static_cast<int>(rng() % 3);

  Reference ref;
  const auto check_query = [&](bool collect) {
    QueryRequest request;
    request.table = "events";
    switch (rng() % 4) {  // projection variety
      case 0: request.scan.projection = {0}; break;
      case 1: request.scan.projection = {1}; break;
      case 2: request.scan.projection = {1, 0}; break;
      default: break;  // empty = all
    }
    switch (rng() % 3) {  // predicate variety
      case 0:
        request.scan.predicates = {
            Predicate::Int32(0, CompareOp::kLt, value(rng))};
        break;
      case 1:
        request.scan.predicates = {
            Predicate::Int32(0, CompareOp::kGe, value(rng)),
            Predicate::Int32(1, CompareOp::kLt, value(rng))};
        break;
      default:
        break;  // full scan
    }
    request.collect_rows = collect;
    ASSERT_OK_AND_ASSIGN(QueryResult result, db.Execute(request));
    // The driver is single-threaded here, so the snapshot must see the
    // entire append log.
    ASSERT_EQ(result.snapshot_tuples, ref.size());
    const OracleAnswer oracle =
        Oracle(ref, result.snapshot_tuples, schema, request);
    EXPECT_EQ(result.rows, oracle.rows);
    EXPECT_EQ(result.row_digest, oracle.digest);
    if (collect) {
      // Collected bytes must be the oracle's rows up to delivery order
      // (parts stream ROS-first, so compare as sorted multisets).
      ASSERT_EQ(result.rows_collected, oracle.rows);
      const int width = result.row_layout.tuple_width;
      Reference got;
      for (uint64_t i = 0; i < result.rows_collected; ++i) {
        const uint8_t* t = result.collected_tuple(i);
        got.emplace_back(t, t + width);
      }
      Reference want = oracle.projected;
      std::sort(got.begin(), got.end());
      std::sort(want.begin(), want.end());
      EXPECT_EQ(got, want);
    }
  };

  for (int step = 0; step < 12; ++step) {
    const int n = batch(rng);
    for (int i = 0; i < n; ++i) {
      const std::vector<uint8_t> row = Row(value(rng), value(rng));
      ASSERT_OK(store->Append(row.data()));
      ref.push_back(row);
    }
    if (step % freeze_every == 1) ASSERT_OK(store->Freeze());
    if (step % merge_every == merge_every - 1) ASSERT_OK(store->Merge());
    check_query(/*collect=*/step % 4 == 3);
  }
  // Final state: freeze + merge everything, then the ROS alone must
  // still answer identically.
  ASSERT_OK(store->Freeze());
  ASSERT_OK(store->Merge());
  check_query(/*collect=*/true);
  EXPECT_EQ(store->appended(), ref.size());
}

std::vector<SweepParam> SweepGrid() {
  std::vector<SweepParam> grid;
  for (Layout layout : {Layout::kRow, Layout::kColumn, Layout::kPax}) {
    for (bool compressed : {false, true}) {
      for (uint32_t seed = 1; seed <= 7; ++seed) {
        grid.push_back({layout, compressed, seed});
      }
    }
  }
  return grid;  // 3 x 2 x 7 = 42 schedules
}

INSTANTIATE_TEST_SUITE_P(Schedules, SnapshotSweepTest,
                         ::testing::ValuesIn(SweepGrid()), SweepName);

/// Concurrent flavor: a writer ingests a pre-generated sequence (with
/// auto-freeze and background auto-merge live) while the reader
/// queries. Every result must be a consistent prefix: rows == N and
/// digest == precomputed digest of the first N planned tuples.
TEST(SnapshotConsistencyTest, ConcurrentReadsSeeConsistentPrefixes) {
  TempDir dir;
  const Schema schema = PlainSchema();
  ASSERT_OK_AND_ASSIGN(Database db, Database::Open(dir.path()));
  IngestOptions options;
  options.page_size = 1024;
  options.freeze_tuples = 256;  // auto-freeze inline on the writer
  options.merge_segments = 2;   // auto-merge on the shared pool
  ASSERT_OK(db.EnsureIngest("stream", schema, options));
  std::shared_ptr<IngestStore> store = db.ingest("stream");
  ASSERT_NE(store, nullptr);

  constexpr uint64_t kTotal = 4000;
  std::mt19937 rng(2026);
  std::uniform_int_distribution<int32_t> value(0, 9999);
  Reference planned;
  std::vector<uint64_t> prefix_digest(kTotal + 1, 0);
  for (uint64_t i = 0; i < kTotal; ++i) {
    planned.push_back(Row(value(rng), value(rng)));
    prefix_digest[i + 1] =
        prefix_digest[i] +
        Fnv1aExtend(kFnv1aSeed, planned[i].data(), planned[i].size());
  }

  std::atomic<bool> writer_failed{false};
  std::thread writer([&] {
    std::mt19937 wrng(7);
    uint64_t next = 0;
    while (next < kTotal) {
      const uint64_t n = std::min<uint64_t>(1 + wrng() % 64, kTotal - next);
      // Rows are contiguous 8-byte tuples; batch straight from the plan.
      std::vector<uint8_t> batch;
      for (uint64_t i = 0; i < n; ++i) {
        batch.insert(batch.end(), planned[next + i].begin(),
                     planned[next + i].end());
      }
      if (!store->AppendBatch(batch.data(), n).ok()) {
        writer_failed.store(true);
        return;
      }
      next += n;
    }
  });

  QueryRequest request;
  request.table = "stream";
  uint64_t last_seen = 0;
  uint64_t last_epoch = 0;
  while (true) {
    ASSERT_OK_AND_ASSIGN(QueryResult result, db.Execute(request));
    const uint64_t n = result.snapshot_tuples;
    ASSERT_LE(n, kTotal);
    // One reader's snapshots never move backwards in tuples or epochs.
    EXPECT_GE(n, last_seen);
    EXPECT_GE(result.snapshot_epoch, last_epoch);
    last_seen = n;
    last_epoch = result.snapshot_epoch;
    EXPECT_EQ(result.rows, n);
    EXPECT_EQ(result.row_digest, prefix_digest[n]);
    if (n == kTotal || writer_failed.load()) break;
  }
  writer.join();
  ASSERT_FALSE(writer_failed.load());

  store->WaitMergeIdle();
  ASSERT_OK(store->last_merge_status());
  ASSERT_OK_AND_ASSIGN(QueryResult final_result, db.Execute(request));
  EXPECT_EQ(final_result.snapshot_tuples, kTotal);
  EXPECT_EQ(final_result.rows, kTotal);
  EXPECT_EQ(final_result.row_digest, prefix_digest[kTotal]);
}

/// The lifecycle gate the design promises: a merge parked mid-write
/// (fault-injection hook) must not stop appends, snapshots, or even a
/// whole freeze commit from completing.
TEST(SnapshotConsistencyTest, IngestNeverBlocksBehindMerge) {
  TempDir dir;
  const Schema schema = PlainSchema();

  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool merge_entered = false;
  bool merge_released = false;

  IngestOptions options;
  options.freeze_tuples = 0;
  options.merge_segments = 0;
  options.fail_point = [&](std::string_view point) {
    if (point == "merge.write") {
      std::unique_lock<std::mutex> lock(gate_mu);
      merge_entered = true;
      gate_cv.notify_all();
      gate_cv.wait(lock, [&] { return merge_released; });
    }
    return Status::OK();
  };
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<IngestStore> store,
      IngestStore::Open(dir.path(), "gated", schema, options));

  for (int i = 0; i < 200; ++i) ASSERT_OK(store->Append(Row(i, i).data()));
  ASSERT_OK(store->Freeze());
  for (int i = 200; i < 400; ++i) ASSERT_OK(store->Append(Row(i, i).data()));
  ASSERT_OK(store->Freeze());

  ASSERT_TRUE(store->TriggerMerge());
  {
    std::unique_lock<std::mutex> lock(gate_mu);
    gate_cv.wait(lock, [&] { return merge_entered; });
  }

  // Merge is parked between reading its inputs and committing. Appends,
  // a full freeze (including its manifest commit), and snapshots must
  // all complete right now.
  for (int i = 400; i < 900; ++i) ASSERT_OK(store->Append(Row(i, i).data()));
  ASSERT_OK(store->Freeze());
  Snapshot mid = store->Acquire();
  EXPECT_EQ(mid.visible_tuples(), 900u);
  EXPECT_EQ(mid.num_frozen(), 3u);  // the freeze committed mid-merge

  {
    std::lock_guard<std::mutex> lock(gate_mu);
    merge_released = true;
  }
  gate_cv.notify_all();
  store->WaitMergeIdle();
  ASSERT_OK(store->last_merge_status());

  // The merge folded only the two segments it captured; the mid-merge
  // freeze remains frozen, and nothing was lost or duplicated.
  Snapshot after = store->Acquire();
  EXPECT_EQ(after.visible_tuples(), 900u);
  ASSERT_NE(after.ros(), nullptr);
  EXPECT_EQ(after.ros()->meta().num_tuples, 400u);
  EXPECT_EQ(after.num_frozen(), 1u);
}

/// The compressed MergeIdentityTest schema: ForDelta on the sorted key,
/// BitPack, and a dictionary-coded text attribute, so the merge's input
/// scans decode every codec family back to the raw tuple.
Schema CodecSchema() {
  auto schema = Schema::Make(
      {AttributeDesc::Int32("key", CodecSpec::ForDelta(8)),
       AttributeDesc::Int32("val", CodecSpec::BitPack(10)),
       AttributeDesc::Text("tag", 4, CodecSpec::Dict(2))});
  EXPECT_TRUE(schema.ok());
  return std::move(schema).value();
}

/// Merging must be invisible in the bytes: after the lifecycle folds
/// everything into one generation, that table must be byte-identical to
/// a from-scratch bulk load of the same tuples (stable-sorted by the
/// clustering key), zone maps and all.
class MergeIdentityTest
    : public ::testing::TestWithParam<std::tuple<Layout, bool>> {};

TEST_P(MergeIdentityTest, PostMergeRosMatchesBulkLoadByteForByte) {
  const auto [layout, compressed] = GetParam();
  TempDir dir;
  const Schema schema = compressed ? CodecSchema() : PlainSchema();
  static const char* kTags[] = {"AAAA", "BBBB", "CCCC", "DDDD"};
  IngestOptions options;
  options.layout = layout;
  options.page_size = 1024;
  options.freeze_tuples = 0;
  options.merge_segments = 0;
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<IngestStore> store,
      IngestStore::Open(dir.path(), "ident", schema, options));

  std::mt19937 rng(99);
  std::uniform_int_distribution<int32_t> value(0, 499);
  Reference ref;
  for (int round = 0; round < 7; ++round) {
    const int n = 150 + static_cast<int>(rng() % 200);
    for (int i = 0; i < n; ++i) {
      std::vector<uint8_t> row = Row(value(rng), value(rng));
      if (compressed) {
        const char* tag = kTags[rng() % 4];
        row.insert(row.end(), tag, tag + 4);
      }
      ASSERT_OK(store->Append(row.data()));
      ref.push_back(row);
    }
    ASSERT_OK(store->Freeze());
    // Merge twice mid-stream so the final table is itself the product
    // of chained merges, not one shot.
    if (round == 2 || round == 4) ASSERT_OK(store->Merge());
  }
  ASSERT_OK(store->Merge());
  Snapshot snap = store->Acquire();
  ASSERT_NE(snap.ros(), nullptr);
  EXPECT_EQ(snap.num_frozen(), 0u);
  EXPECT_EQ(snap.ros()->meta().num_tuples, ref.size());

  // Reference: bulk-load the append log stable-sorted by key.
  std::stable_sort(ref.begin(), ref.end(),
                   [](const std::vector<uint8_t>& a,
                      const std::vector<uint8_t>& b) {
                     return LoadLE32s(a.data()) < LoadLE32s(b.data());
                   });
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<TableWriter> writer,
      TableWriter::Create(dir.path(), "bulk", schema, options.layout,
                          options.page_size));
  for (const auto& row : ref) ASSERT_OK(writer->Append(row.data()));
  ASSERT_OK(writer->Finish());
  ASSERT_OK_AND_ASSIGN(OpenTable bulk, OpenTable::Open(dir.path(), "bulk"));

  const TableMeta& got = snap.ros()->meta();
  const TableMeta& want = bulk.meta();
  ASSERT_EQ(got.num_tuples, want.num_tuples);
  ASSERT_EQ(got.file_bytes, want.file_bytes);
  ASSERT_EQ(got.file_pages, want.file_pages);
  const size_t files =
      options.layout == Layout::kColumn ? schema.num_attributes() : 1;
  for (size_t f = 0; f < files; ++f) {
    ASSERT_OK_AND_ASSIGN(std::string got_bytes,
                         ReadFileToString(snap.ros()->FilePath(f)));
    ASSERT_OK_AND_ASSIGN(std::string want_bytes,
                         ReadFileToString(bulk.FilePath(f)));
    EXPECT_EQ(got_bytes, want_bytes) << "file " << f << " differs";
  }
}

INSTANTIATE_TEST_SUITE_P(
    LayoutsAndCodecs, MergeIdentityTest,
    ::testing::Combine(::testing::Values(Layout::kRow, Layout::kColumn,
                                         Layout::kPax),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<Layout, bool>>& info) {
      return std::string(LayoutName(std::get<0>(info.param))) +
             (std::get<1>(info.param) ? "_compressed" : "_plain");
    });

/// Restart semantics: committed lifecycle state (manifest + segments +
/// ROS) survives a reopen; the volatile active segment does not.
TEST(SnapshotConsistencyTest, ReopenRecoversCommittedLifecycle) {
  TempDir dir;
  const Schema schema = PlainSchema();
  IngestOptions options;
  options.freeze_tuples = 0;
  options.merge_segments = 0;

  {
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<IngestStore> store,
        IngestStore::Open(dir.path(), "dur", schema, options));
    for (int i = 0; i < 300; ++i) ASSERT_OK(store->Append(Row(i, i).data()));
    ASSERT_OK(store->Freeze());
    ASSERT_OK(store->Merge());
    for (int i = 300; i < 400; ++i) ASSERT_OK(store->Append(Row(i, i).data()));
    ASSERT_OK(store->Freeze());
    // 50 tuples stay active-only: they must vanish across the reopen.
    for (int i = 400; i < 450; ++i) ASSERT_OK(store->Append(Row(i, i).data()));
  }

  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<IngestStore> store,
      IngestStore::Open(dir.path(), "dur", schema, options));
  EXPECT_EQ(store->appended(), 400u);
  Snapshot snap = store->Acquire();
  EXPECT_EQ(snap.visible_tuples(), 400u);
  ASSERT_NE(snap.ros(), nullptr);
  EXPECT_EQ(snap.ros()->meta().num_tuples, 300u);
  EXPECT_EQ(snap.num_frozen(), 1u);
  EXPECT_EQ(snap.active().count(), 0u);
}

}  // namespace
}  // namespace rodb
