// Zone maps & data skipping (DESIGN.md 5g): the pruning-equivalence
// harness. The load-bearing property is soundness -- for every layout,
// codec, predicate operator and selectivity (including 0% and 100%), a
// pruned scan must return exactly the tuples an unpruned scan returns, in
// the same order, while fetching no more (and, when the data clusters,
// strictly fewer) backend bytes. On top of that: adversarial synopsis
// shapes, stale/corrupt sidecars degrading to full scans, kCharPack
// predicate columns declining, morsel-parallel checksum equality, the
// pruned-I/O physics prediction, and the admission working-set estimate.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/file_util.h"
#include "engine/open_scanner.h"
#include "engine/parallel_executor.h"
#include "engine/zone_pruner.h"
#include "obs/scan_physics.h"
#include "scan_test_util.h"
#include "storage/synopsis.h"

namespace rodb {
namespace {

using rodb::testing::CollectTuples;
using rodb::testing::LayoutSuffix;
using rodb::testing::MakeScanner;
using rodb::testing::TempDir;

constexpr int kTuples = 10000;
constexpr size_t kPage = 1024;

/// The sweep table: every attribute clusters with position (the regime
/// zone maps exist for) and each carries a different codec, so one
/// predicate attribute choice sweeps the codec axis.
///   a0 key_plain  int32  none       100000 + i
///   a1 key_for    int32  FOR(16)    500 + i
///   a2 key_fd     int32  FORdelta   -20000 + 3i
///   a3 qty        int32  bitpack(7) (i / 500) % 128
///   a4 word       text8  dict(3)    8 words in 1250-tuple blocks
///   a5 txt        text5  none       'a'+(i/1000) repeated
Schema SweepSchema() {
  auto schema = Schema::Make({
      AttributeDesc::Int32("key_plain"),
      AttributeDesc::Int32("key_for", CodecSpec::For(16)),
      AttributeDesc::Int32("key_fd", CodecSpec::ForDelta(8)),
      AttributeDesc::Int32("qty", CodecSpec::BitPack(7)),
      AttributeDesc::Text("word", 8, CodecSpec::Dict(3)),
      AttributeDesc::Text("txt", 5),
  });
  EXPECT_TRUE(schema.ok()) << schema.status().ToString();
  return std::move(schema).value();
}

std::vector<std::vector<uint8_t>> SweepTuples(const Schema& schema) {
  const char* words[] = {"alpha   ", "beta    ", "gamma   ", "delta   ",
                         "epsilon ", "zeta    ", "eta     ", "theta   "};
  std::vector<std::vector<uint8_t>> tuples;
  for (int i = 0; i < kTuples; ++i) {
    std::vector<uint8_t> t(static_cast<size_t>(schema.raw_tuple_width()));
    StoreLE32s(t.data() + schema.attr_offset(0), 100000 + i);
    StoreLE32s(t.data() + schema.attr_offset(1), 500 + i);
    StoreLE32s(t.data() + schema.attr_offset(2), -20000 + 3 * i);
    StoreLE32s(t.data() + schema.attr_offset(3), (i / 500) % 128);
    std::memcpy(t.data() + schema.attr_offset(4), words[(i / 1250) % 8], 8);
    const std::string txt(5, static_cast<char>('a' + (i / 1000) % 10));
    std::memcpy(t.data() + schema.attr_offset(5), txt.data(), 5);
    tuples.push_back(std::move(t));
  }
  return tuples;
}

struct SweepCase {
  const char* name;
  Predicate pred;
  /// Clustered and selective enough that pruning must skip pages: the
  /// pruned run has to fetch strictly fewer backend bytes.
  bool expect_skipping;
};

std::vector<SweepCase> SweepCases() {
  return {
      // Every operator, every codec, selectivities from 0% to 100%.
      {"plain_eq_1row",
       Predicate::Int32(0, CompareOp::kEq, 100000 + kTuples / 2), true},
      {"plain_lt_1pct",
       Predicate::Int32(0, CompareOp::kLt, 100000 + kTuples / 100), true},
      {"for_le_5pct", Predicate::Int32(1, CompareOp::kLe, 500 + kTuples / 20),
       true},
      {"fordelta_ge_1pct",
       Predicate::Int32(2, CompareOp::kGe, -20000 + 3 * (kTuples - 100)),
       true},
      {"plain_lt_0pct", Predicate::Int32(0, CompareOp::kLt, 100000), true},
      {"plain_ge_100pct", Predicate::Int32(0, CompareOp::kGe, 100000), false},
      {"fordelta_ne_100pct", Predicate::Int32(2, CompareOp::kNe, -20000),
       false},
      {"bitpack_eq_5pct", Predicate::Int32(3, CompareOp::kEq, 5), true},
      {"dict_eq_block", Predicate::Text(4, CompareOp::kEq, "beta    "), true},
      {"text_lt_block", Predicate::Text(5, CompareOp::kLt, "bbbbb"), true},
  };
}

ScanSpec SweepSpec(const Predicate& pred, bool prune) {
  ScanSpec spec;
  spec.projection = {0, 1, 2, 3, 4, 5};
  spec.predicates = {pred};
  spec.read.io_unit_bytes = 4096;
  spec.prune = prune;
  return spec;
}

class ZoneMapSweepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    schema_ = SweepSchema();
    ASSERT_OK(rodb::testing::LoadAllLayouts(dir_.path(), "sweep", schema_,
                                            SweepTuples(schema_), kPage));
  }

  TempDir dir_;
  Schema schema_;
};

TEST_F(ZoneMapSweepTest, PrunedEqualsUnprunedEverywhere) {
  // 3 layouts x 10 predicate cases (plus the early-materialized scanner
  // on the column table) = 40 sweep configurations, each comparing the
  // pruned scan's exact output bytes, tuple count and backend bytes
  // against the unpruned run.
  FileBackend backend;
  for (Layout layout : {Layout::kRow, Layout::kColumn, Layout::kPax}) {
    ASSERT_OK_AND_ASSIGN(
        OpenTable table,
        OpenTable::Open(dir_.path(),
                        std::string("sweep") + LayoutSuffix(layout)));
    ASSERT_NE(table.synopsis(), nullptr);
    EXPECT_FALSE(table.synopsis_corrupt());
    for (const SweepCase& c : SweepCases()) {
      const std::string tag =
          std::string(c.name) + LayoutSuffix(layout);
      ExecStats plain_stats, pruned_stats;
      ASSERT_OK_AND_ASSIGN(
          auto plain_scan,
          MakeScanner(&table, SweepSpec(c.pred, false), &backend,
                      &plain_stats));
      ASSERT_OK_AND_ASSIGN(
          auto pruned_scan,
          MakeScanner(&table, SweepSpec(c.pred, true), &backend,
                      &pruned_stats));
      ASSERT_OK_AND_ASSIGN(auto plain_out, CollectTuples(plain_scan.get()));
      ASSERT_OK_AND_ASSIGN(auto pruned_out, CollectTuples(pruned_scan.get()));
      ASSERT_EQ(pruned_out.size(), plain_out.size()) << tag;
      ASSERT_EQ(pruned_out, plain_out) << tag;
      plain_stats.FoldIo();
      pruned_stats.FoldIo();
      const ExecCounters& p = pruned_stats.counters();
      EXPECT_LE(p.io_bytes_read, plain_stats.counters().io_bytes_read) << tag;
      EXPECT_EQ(p.prune_declined, 0u) << tag;
      EXPECT_EQ(p.synopsis_corrupt, 0u) << tag;
      if (c.expect_skipping) {
        EXPECT_LT(p.io_bytes_read, plain_stats.counters().io_bytes_read)
            << tag;
        EXPECT_EQ(p.prune_plans, 1u) << tag;
        EXPECT_GT(p.pages_pruned, 0u) << tag;
      }

      if (layout == Layout::kColumn) {
        // The early-materialized scanner walks the plan's surviving
        // position runs in lockstep -- same equivalence bar.
        ExecStats em_plain, em_pruned;
        ASSERT_OK_AND_ASSIGN(
            auto em_plain_scan,
            OpenScanner(table, SweepSpec(c.pred, false), &backend, &em_plain,
                        ScannerImpl::kEarlyMat));
        ASSERT_OK_AND_ASSIGN(
            auto em_pruned_scan,
            OpenScanner(table, SweepSpec(c.pred, true), &backend, &em_pruned,
                        ScannerImpl::kEarlyMat));
        ASSERT_OK_AND_ASSIGN(auto em_plain_out,
                             CollectTuples(em_plain_scan.get()));
        ASSERT_OK_AND_ASSIGN(auto em_pruned_out,
                             CollectTuples(em_pruned_scan.get()));
        ASSERT_EQ(em_plain_out, plain_out) << tag << " (early mat)";
        ASSERT_EQ(em_pruned_out, plain_out) << tag << " (early mat pruned)";
        em_plain.FoldIo();
        em_pruned.FoldIo();
        EXPECT_LE(em_pruned.counters().io_bytes_read,
                  em_plain.counters().io_bytes_read)
            << tag << " (early mat)";
      }
    }
  }
}

TEST_F(ZoneMapSweepTest, ColdColumnScanReadsFiveTimesFewerBytes) {
  // The headline acceptance number: at <= 1% selectivity on clustered
  // data, a cold (uncached) column scan fetches at least 5x fewer backend
  // bytes with pruning on.
  FileBackend backend;
  ASSERT_OK_AND_ASSIGN(OpenTable table,
                       OpenTable::Open(dir_.path(), "sweep_col"));
  const Predicate pred =
      Predicate::Int32(0, CompareOp::kLt, 100000 + kTuples / 100);
  ExecStats plain_stats, pruned_stats;
  ASSERT_OK_AND_ASSIGN(
      auto plain_scan,
      MakeScanner(&table, SweepSpec(pred, false), &backend, &plain_stats));
  ASSERT_OK_AND_ASSIGN(
      auto pruned_scan,
      MakeScanner(&table, SweepSpec(pred, true), &backend, &pruned_stats));
  ASSERT_OK_AND_ASSIGN(auto plain_out, CollectTuples(plain_scan.get()));
  ASSERT_OK_AND_ASSIGN(auto pruned_out, CollectTuples(pruned_scan.get()));
  ASSERT_EQ(pruned_out, plain_out);
  ASSERT_EQ(plain_out.size(), static_cast<size_t>(kTuples / 100));
  plain_stats.FoldIo();
  pruned_stats.FoldIo();
  const uint64_t plain_bytes = plain_stats.counters().io_bytes_read;
  const uint64_t pruned_bytes = pruned_stats.counters().io_bytes_read;
  ASSERT_GT(pruned_bytes, 0u);
  EXPECT_GE(plain_bytes, 5 * pruned_bytes)
      << "pruned " << pruned_bytes << " vs unpruned " << plain_bytes;
}

TEST_F(ZoneMapSweepTest, ParallelPrunedChecksumMatchesSerialUnpruned) {
  // Morsel carving skips pruned page ranges; for every layout and degree
  // of parallelism the pruned parallel checksum must equal the serial
  // unpruned one.
  FileBackend backend;
  for (Layout layout : {Layout::kRow, Layout::kColumn, Layout::kPax}) {
    ASSERT_OK_AND_ASSIGN(
        OpenTable table,
        OpenTable::Open(dir_.path(),
                        std::string("sweep") + LayoutSuffix(layout)));
    for (const SweepCase& c : SweepCases()) {
      ExecStats stats;
      ASSERT_OK_AND_ASSIGN(
          auto root,
          OpenScanner(table, SweepSpec(c.pred, false), &backend, &stats));
      ASSERT_OK_AND_ASSIGN(ExecutionResult serial,
                           Execute(root.get(), &stats));
      ParallelScanPlan plan;
      plan.table = &table;
      plan.spec = SweepSpec(c.pred, true);
      plan.backend = &backend;
      for (int k : {1, 2, 4}) {
        ASSERT_OK_AND_ASSIGN(ParallelResult out, ParallelExecute(plan, k));
        EXPECT_EQ(out.result.rows, serial.rows)
            << c.name << LayoutSuffix(layout) << " k=" << k;
        EXPECT_EQ(out.result.output_checksum, serial.output_checksum)
            << c.name << LayoutSuffix(layout) << " k=" << k;
      }
    }
  }
}

TEST_F(ZoneMapSweepTest, PrunedPhysicsPredictionIsExact) {
  // The pruned-I/O mode of PredictScanPhysics: exact for a single-node
  // pipeline (the driving node streams every retained run to its end),
  // and an upper bound for multi-node projections, whose inner nodes pull
  // runs lazily and may skip retained pages no qualifying position ever
  // reaches. tuples_examined is driven by the predicate node's fetched
  // pages, so it stays exact either way.
  FileBackend backend;
  ASSERT_OK_AND_ASSIGN(OpenTable table,
                       OpenTable::Open(dir_.path(), "sweep_col"));
  for (const SweepCase& c : SweepCases()) {
    // Single-node pipeline: project only the predicate column.
    ScanSpec spec = SweepSpec(c.pred, true);
    spec.projection = {c.pred.attr_index()};
    const PrunePlan plan = BuildPrunePlan(table, spec);
    if (!plan.active) continue;
    ASSERT_OK_AND_ASSIGN(
        const obs::ScanPhysics physics,
        obs::PredictScanPhysics(table, spec, ScannerImpl::kAuto,
                                obs::ScanPhysicsHints{}, &plan));
    ExecStats stats;
    ASSERT_OK_AND_ASSIGN(auto scan,
                         MakeScanner(&table, spec, &backend, &stats));
    ASSERT_OK_AND_ASSIGN(auto out, CollectTuples(scan.get()));
    stats.FoldIo();
    const ExecCounters& m = stats.counters();
    EXPECT_EQ(m.io_bytes_read, physics.bytes_read) << c.name;
    EXPECT_EQ(m.io_requests, physics.io_units) << c.name;
    EXPECT_EQ(m.files_read, physics.files_opened) << c.name;
    EXPECT_EQ(m.pages_parsed, physics.pages_parsed) << c.name;
    EXPECT_EQ(m.tuples_examined, physics.tuples_examined) << c.name;

    // Full projection: the prediction bounds the lazier measured run.
    const ScanSpec full = SweepSpec(c.pred, true);
    const PrunePlan full_plan = BuildPrunePlan(table, full);
    ASSERT_TRUE(full_plan.active) << c.name;
    ASSERT_OK_AND_ASSIGN(
        const obs::ScanPhysics full_physics,
        obs::PredictScanPhysics(table, full, ScannerImpl::kAuto,
                                obs::ScanPhysicsHints{}, &full_plan));
    ExecStats full_stats;
    ASSERT_OK_AND_ASSIGN(auto full_scan,
                         MakeScanner(&table, full, &backend, &full_stats));
    ASSERT_OK_AND_ASSIGN(auto full_out, CollectTuples(full_scan.get()));
    full_stats.FoldIo();
    const ExecCounters& fm = full_stats.counters();
    EXPECT_LE(fm.io_bytes_read, full_physics.bytes_read) << c.name;
    EXPECT_LE(fm.io_requests, full_physics.io_units) << c.name;
    EXPECT_LE(fm.pages_parsed, full_physics.pages_parsed) << c.name;
    EXPECT_EQ(fm.tuples_examined, full_physics.tuples_examined) << c.name;
  }
}

TEST_F(ZoneMapSweepTest, WorkingSetEstimateShrinksWithPruning) {
  // Admission composition: the reservation a pruned scan declares is its
  // post-prune byte footprint, strictly below the full-scan footprint for
  // a selective clustered predicate.
  ASSERT_OK_AND_ASSIGN(OpenTable table,
                       OpenTable::Open(dir_.path(), "sweep_col"));
  const Predicate pred =
      Predicate::Int32(0, CompareOp::kLt, 100000 + kTuples / 100);
  const uint64_t full = EstimateScanWorkingSet(table, SweepSpec(pred, false));
  const uint64_t pruned =
      EstimateScanWorkingSet(table, SweepSpec(pred, true));
  EXPECT_GT(full, 0u);
  EXPECT_LT(pruned, full);
  EXPECT_GT(pruned, 0u);
  // And the surviving fraction the estimate follows is well below 1.
  const PrunePlan plan = BuildPrunePlan(table, SweepSpec(pred, true));
  ASSERT_TRUE(plan.active);
  EXPECT_LT(PruneSurvivingFraction(plan, table.meta().num_tuples), 0.5);
}

/// Everything below stresses the synopsis edge cases: degenerate zones,
/// wrap-around codecs, missing/stale/corrupt sidecars, and the kCharPack
/// decline rule.

std::vector<std::vector<uint8_t>> Int32Column(
    const Schema& schema, const std::vector<int32_t>& values) {
  std::vector<std::vector<uint8_t>> tuples;
  for (int32_t v : values) {
    std::vector<uint8_t> t(static_cast<size_t>(schema.raw_tuple_width()));
    StoreLE32s(t.data(), v);
    tuples.push_back(std::move(t));
  }
  return tuples;
}

Result<std::vector<std::vector<uint8_t>>> RunScan(const OpenTable& table,
                                                  const ScanSpec& spec,
                                                  ExecStats* stats) {
  FileBackend backend;
  RODB_ASSIGN_OR_RETURN(auto scan,
                        OpenScanner(table, spec, &backend, stats));
  auto out = CollectTuples(scan.get());
  if (out.ok()) stats->FoldIo();
  return out;
}

/// Pruned output == unpruned output for one predicate on attr 0 of both
/// layouts of `name`; returns the pruned counters of the row layout.
void ExpectPruneEquivalent(const std::string& dir, const std::string& name,
                           const Predicate& pred,
                           ExecCounters* pruned_row_counters = nullptr) {
  for (const char* suffix : {"_row", "_col"}) {
    ASSERT_OK_AND_ASSIGN(OpenTable table, OpenTable::Open(dir, name + suffix));
    ScanSpec spec;
    spec.projection = {0};
    spec.predicates = {pred};
    spec.read.io_unit_bytes = 4096;
    ExecStats plain_stats, pruned_stats;
    spec.prune = false;
    ASSERT_OK_AND_ASSIGN(auto plain, RunScan(table, spec, &plain_stats));
    spec.prune = true;
    ASSERT_OK_AND_ASSIGN(auto pruned, RunScan(table, spec, &pruned_stats));
    ASSERT_EQ(pruned, plain) << name << suffix;
    if (pruned_row_counters != nullptr &&
        std::string(suffix) == "_row") {
      *pruned_row_counters = pruned_stats.counters();
    }
  }
}

TEST(ZoneMapAdversarialTest, SingleValuePagesAndMinEqualsMaxBoundaries) {
  TempDir dir;
  auto schema = Schema::Make({AttributeDesc::Int32("v")});
  ASSERT_OK(schema.status());
  // A constant run (every page min==max), then a step: boundary
  // predicates sit exactly on the zone edges.
  std::vector<int32_t> values(3000, 7);
  values.insert(values.end(), 3000, 9);
  ASSERT_OK(rodb::testing::LoadBothLayouts(dir.path(), "step", *schema,
                                           Int32Column(*schema, values),
                                           kPage));
  for (const Predicate& pred :
       {Predicate::Int32(0, CompareOp::kEq, 7),
        Predicate::Int32(0, CompareOp::kEq, 8),   // between the two zones
        Predicate::Int32(0, CompareOp::kEq, 9),
        Predicate::Int32(0, CompareOp::kNe, 7),   // negated on min==max pages
        Predicate::Int32(0, CompareOp::kLe, 7),
        Predicate::Int32(0, CompareOp::kGe, 9),
        Predicate::Int32(0, CompareOp::kLt, 7),   // empty
        Predicate::Int32(0, CompareOp::kGt, 9)}) {  // empty
    ExpectPruneEquivalent(dir.path(), "step", pred);
  }
  // ne on a constant column prunes everything without losing rows.
  ExecCounters c;
  ExpectPruneEquivalent(dir.path(), "step",
                        Predicate::Int32(0, CompareOp::kNe, 7), &c);
  EXPECT_GT(c.pages_pruned, 0u);
}

TEST(ZoneMapAdversarialTest, SignWrapAroundAndExtremeValues) {
  TempDir dir;
  auto schema = Schema::Make({AttributeDesc::Int32("v")});
  ASSERT_OK(schema.status());
  // INT32_MIN/MAX at the edges: the sign-flip key domain must keep order
  // (a classic zone-map bug is comparing raw two's-complement bits).
  std::vector<int32_t> values;
  for (int i = 0; i < 2000; ++i) values.push_back(INT32_MIN + i);
  for (int i = 0; i < 2000; ++i) values.push_back(-1000 + i);
  for (int i = 0; i < 2000; ++i) values.push_back(INT32_MAX - 1999 + i);
  ASSERT_OK(rodb::testing::LoadBothLayouts(dir.path(), "wrap", *schema,
                                           Int32Column(*schema, values),
                                           kPage));
  for (const Predicate& pred :
       {Predicate::Int32(0, CompareOp::kLt, 0),
        Predicate::Int32(0, CompareOp::kGe, 0),
        Predicate::Int32(0, CompareOp::kEq, INT32_MIN),
        Predicate::Int32(0, CompareOp::kEq, INT32_MAX),
        Predicate::Int32(0, CompareOp::kLe, INT32_MIN),   // first run only
        Predicate::Int32(0, CompareOp::kGt, INT32_MAX),   // empty
        Predicate::Int32(0, CompareOp::kNe, INT32_MIN)}) {
    ExpectPruneEquivalent(dir.path(), "wrap", pred);
  }
}

TEST(ZoneMapAdversarialTest, ForDeltaWrapAroundPagesStayExact) {
  TempDir dir;
  // FOR-delta with jumps near the delta cap: pages may close early and
  // the file records non-uniform page capacities, in which case pruning
  // must decline (not mis-map positions) while results stay identical.
  auto schema = Schema::Make(
      {AttributeDesc::Int32("v", CodecSpec::ForDelta(8))});
  ASSERT_OK(schema.status());
  std::vector<int32_t> values;
  int32_t v = -100000;
  for (int i = 0; i < 6000; ++i) {
    v += (i % 37 == 0) ? 255 : 1;  // deltas at the 8-bit cap
    values.push_back(v);
  }
  ASSERT_OK(rodb::testing::LoadBothLayouts(dir.path(), "fd", *schema,
                                           Int32Column(*schema, values),
                                           kPage));
  for (const Predicate& pred :
       {Predicate::Int32(0, CompareOp::kLt, -95000),
        Predicate::Int32(0, CompareOp::kGe, values.back() - 500),
        Predicate::Int32(0, CompareOp::kEq, values[3000])}) {
    ExpectPruneEquivalent(dir.path(), "fd", pred);
  }
}

TEST(ZoneMapAdversarialTest, EmptyTableDeclinesWithoutRows) {
  TempDir dir;
  auto schema = Schema::Make({AttributeDesc::Int32("v")});
  ASSERT_OK(schema.status());
  ASSERT_OK(rodb::testing::LoadBothLayouts(dir.path(), "empty", *schema, {},
                                           kPage));
  ExecCounters c;
  ExpectPruneEquivalent(dir.path(), "empty",
                        Predicate::Int32(0, CompareOp::kEq, 1), &c);
  EXPECT_EQ(c.prune_plans, 0u);
  EXPECT_EQ(c.prune_declined, 1u);
}

TEST(ZoneMapRegressionTest, CharPackPredicateAlwaysDeclines) {
  TempDir dir;
  auto schema = Schema::Make(
      {AttributeDesc::Text("pack", 8, CodecSpec::CharPack(4, 8)),
       AttributeDesc::Int32("k")});
  ASSERT_OK(schema.status());
  const char* packs[] = {"abc     ", "lmno    ", "ba      ", "omnb    "};
  std::vector<std::vector<uint8_t>> tuples;
  for (int i = 0; i < 4000; ++i) {
    std::vector<uint8_t> t(12);
    std::memcpy(t.data(), packs[(i / 1000) % 4], 8);
    StoreLE32s(t.data() + 8, i);
    tuples.push_back(std::move(t));
  }
  ASSERT_OK(rodb::testing::LoadBothLayouts(dir.path(), "cp", *schema, tuples,
                                           kPage));
  for (const char* suffix : {"_row", "_col"}) {
    ASSERT_OK_AND_ASSIGN(
        OpenTable table,
        OpenTable::Open(dir.path(), std::string("cp") + suffix));
    ScanSpec spec;
    spec.projection = {0, 1};
    spec.predicates = {Predicate::Text(0, CompareOp::kEq, "abc     ")};
    spec.read.io_unit_bytes = 4096;
    ExecStats plain_stats, pruned_stats;
    spec.prune = false;
    ASSERT_OK_AND_ASSIGN(auto plain, RunScan(table, spec, &plain_stats));
    spec.prune = true;
    ASSERT_OK_AND_ASSIGN(auto pruned, RunScan(table, spec, &pruned_stats));
    ASSERT_EQ(pruned, plain) << suffix;
    ASSERT_EQ(plain.size(), 1000u) << suffix;
    // The regression contract: a kCharPack predicate column never prunes
    // (no packed key form), and the decline is visible in the counter.
    EXPECT_EQ(pruned_stats.counters().prune_plans, 0u) << suffix;
    EXPECT_EQ(pruned_stats.counters().prune_declined, 1u) << suffix;
    EXPECT_EQ(pruned_stats.counters().pages_pruned, 0u) << suffix;
  }
}

class ZoneMapSidecarTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto schema = Schema::Make({AttributeDesc::Int32("v")});
    ASSERT_OK(schema.status());
    schema_ = std::move(schema).value();
    std::vector<int32_t> values;
    for (int i = 0; i < 5000; ++i) values.push_back(i);
    ASSERT_OK(rodb::testing::LoadBothLayouts(
        dir_.path(), "t", schema_, Int32Column(schema_, values), kPage));
  }

  TempDir dir_;
  Schema schema_;
};

TEST_F(ZoneMapSidecarTest, MissingSidecarNeverPrunes) {
  // Backward compatibility: tables sealed before synopses existed have no
  // sidecar; spec.prune falls back to a full scan, flagged as declined
  // (not corrupt).
  ASSERT_TRUE(std::filesystem::remove(SynopsisPath(dir_.path(), "t_row")));
  ASSERT_OK_AND_ASSIGN(OpenTable table, OpenTable::Open(dir_.path(), "t_row"));
  EXPECT_EQ(table.synopsis(), nullptr);
  EXPECT_FALSE(table.synopsis_corrupt());
  ScanSpec spec;
  spec.projection = {0};
  spec.predicates = {Predicate::Int32(0, CompareOp::kLt, 50)};
  spec.prune = true;
  ExecStats stats;
  ASSERT_OK_AND_ASSIGN(auto out, RunScan(table, spec, &stats));
  EXPECT_EQ(out.size(), 50u);
  EXPECT_EQ(stats.counters().prune_declined, 1u);
  EXPECT_EQ(stats.counters().synopsis_corrupt, 0u);
}

TEST_F(ZoneMapSidecarTest, CorruptSidecarDegradesToFullScan) {
  // Bit-flip the sidecar body: the CRC must catch it, the table loads
  // with synopsis_corrupt(), and a pruned scan silently degrades to the
  // full scan -- corruption may never cost rows.
  const std::string path = SynopsisPath(dir_.path(), "t_row");
  ASSERT_OK_AND_ASSIGN(std::string blob, ReadFileToString(path));
  ASSERT_GT(blob.size(), 32u);
  blob[blob.size() / 2] = static_cast<char>(blob[blob.size() / 2] ^ 0x5A);
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  }
  ASSERT_OK_AND_ASSIGN(OpenTable table, OpenTable::Open(dir_.path(), "t_row"));
  EXPECT_EQ(table.synopsis(), nullptr);
  EXPECT_TRUE(table.synopsis_corrupt());
  ScanSpec spec;
  spec.projection = {0};
  spec.predicates = {Predicate::Int32(0, CompareOp::kLt, 50)};
  spec.prune = true;
  ExecStats stats;
  ASSERT_OK_AND_ASSIGN(auto out, RunScan(table, spec, &stats));
  EXPECT_EQ(out.size(), 50u);
  EXPECT_EQ(stats.counters().synopsis_corrupt, 1u);
  EXPECT_EQ(stats.counters().prune_plans, 0u);
}

TEST_F(ZoneMapSidecarTest, StaleSidecarFromAnotherLoadIsRejected) {
  // A sidecar whose CRC is fine but whose cardinality/page echoes do not
  // match the catalog entry (e.g. left behind by an older load under the
  // same name) must be treated as corrupt, not trusted.
  std::vector<int32_t> other;
  for (int i = 0; i < 100; ++i) other.push_back(i);
  ASSERT_OK(rodb::testing::LoadBothLayouts(
      dir_.path(), "small", schema_, Int32Column(schema_, other), kPage));
  std::filesystem::copy_file(
      SynopsisPath(dir_.path(), "small_row"),
      SynopsisPath(dir_.path(), "t_row"),
      std::filesystem::copy_options::overwrite_existing);
  ASSERT_OK_AND_ASSIGN(OpenTable table, OpenTable::Open(dir_.path(), "t_row"));
  EXPECT_EQ(table.synopsis(), nullptr);
  EXPECT_TRUE(table.synopsis_corrupt());
  ScanSpec spec;
  spec.projection = {0};
  spec.predicates = {Predicate::Int32(0, CompareOp::kLt, 50)};
  spec.prune = true;
  ExecStats stats;
  ASSERT_OK_AND_ASSIGN(auto out, RunScan(table, spec, &stats));
  EXPECT_EQ(out.size(), 50u);
}

}  // namespace
}  // namespace rodb
