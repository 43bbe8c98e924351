// Model-vs-measured validation suite (DESIGN.md "Observability"): for a
// grid of layout x codec x selectivity configurations, the ScanPhysics
// prediction must match the measured execution counters EXACTLY --
// tuples, pages, backend bytes, I/O units, file opens, and the cache
// hit/miss/byte attribution of cold and warm cached runs. The same runs
// must also report their trace spans in the canonical completion order
// the pipeline shape dictates. Counts in this engine are deterministic
// physics; any drift is a bug in either the predictor or the engine's
// counting, and this suite is what pins the two together.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "engine/executor.h"
#include "engine/open_scanner.h"
#include "io/block_cache.h"
#include "io/file_backend.h"
#include "obs/metrics.h"
#include "obs/scan_physics.h"
#include "obs/span.h"
#include "scan_test_util.h"

namespace rodb {
namespace {

using obs::PredictScanPhysics;
using obs::ScanPhysics;
using obs::ScanPhysicsHints;
using obs::TracePhase;
using rodb::testing::LayoutSuffix;
using rodb::testing::TempDir;

constexpr int kTuples = 3000;
constexpr size_t kPageSize = 1024;

/// The three selectivity points of the grid: every tuple qualifies, the
/// val < 50 half, or nothing.
enum class Sel { kAll, kHalf, kNone };

const char* SelName(Sel sel) {
  switch (sel) {
    case Sel::kAll:  return "all";
    case Sel::kHalf: return "half";
    case Sel::kNone: return "none";
  }
  return "?";
}

/// Snapshot of the global registry's I/O counters, for delta assertions.
struct RegistryIo {
  uint64_t backend_bytes = 0;
  uint64_t requests = 0;
  uint64_t files_opened = 0;
  uint64_t cache_bytes = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;

  static RegistryIo Read() {
    auto& reg = obs::MetricsRegistry::Default();
    RegistryIo io;
    io.backend_bytes = reg.GetCounter("rodb.io.backend_bytes")->Value();
    io.requests = reg.GetCounter("rodb.io.requests")->Value();
    io.files_opened = reg.GetCounter("rodb.io.files_opened")->Value();
    io.cache_bytes = reg.GetCounter("rodb.io.cache_bytes")->Value();
    io.cache_hits = reg.GetCounter("rodb.io.cache_hits")->Value();
    io.cache_misses = reg.GetCounter("rodb.io.cache_misses")->Value();
    return io;
  }
};

class ModelAccuracyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto plain = Schema::Make({AttributeDesc::Int32("key"),
                               AttributeDesc::Int32("val"),
                               AttributeDesc::Text("tag", 8)});
    auto z = Schema::Make(
        {AttributeDesc::Int32("key", CodecSpec::ForDelta(8)),
         AttributeDesc::Int32("val", CodecSpec::BitPack(7)),
         AttributeDesc::Text("tag", 8, CodecSpec::Dict(3))});
    ASSERT_OK(plain.status());
    ASSERT_OK(z.status());
    plain_schema_ = std::move(plain).value();
    z_schema_ = std::move(z).value();

    const char* words[] = {"alpha   ", "beta    ", "gamma   ", "delta   ",
                           "epsilon ", "zeta    ", "eta     ", "theta   "};
    int32_t key = 1000;
    for (int i = 0; i < kTuples; ++i) {
      key += 1 + i % 37;
      const int32_t val = i % 100;
      std::vector<uint8_t> t(16);
      StoreLE32s(t.data(), key);
      StoreLE32s(t.data() + 4, val);
      std::memcpy(t.data() + 8, words[i % 8], 8);
      tuples_.push_back(std::move(t));
      if (val < 50) last_half_ = i;  // reach of the val < 50 predicate
    }
    ASSERT_OK(rodb::testing::LoadAllLayouts(dir_.path(), "plain",
                                            plain_schema_, tuples_,
                                            kPageSize));
    ASSERT_OK(rodb::testing::LoadAllLayouts(dir_.path(), "z", z_schema_,
                                            tuples_, kPageSize));
  }

  /// Runs the spec, asserting the measured counters and the registry
  /// deltas equal `physics` under the given cache projection, and that
  /// span completion order matches the pipeline.
  void RunAndCheck(const OpenTable& table, const ScanSpec& spec,
                   ScannerImpl impl, const obs::IoPhysics& io,
                   const ScanPhysics& physics, const std::string& label) {
    SCOPED_TRACE(label);
    const RegistryIo before = RegistryIo::Read();
    ExecStats stats;
    obs::QueryTrace trace;
    stats.set_trace(&trace);
    ASSERT_OK_AND_ASSIGN(auto root,
                         OpenScanner(table, spec, &backend_, &stats, impl));
    ASSERT_OK_AND_ASSIGN(ExecutionResult result,
                         Execute(root.get(), &stats));
    (void)result;
    const ExecCounters& c = stats.counters();

    // Logical counts: layout physics, independent of caching.
    EXPECT_EQ(c.tuples_examined, physics.tuples_examined);
    EXPECT_EQ(c.pages_parsed, physics.pages_parsed);

    // I/O attribution under the run's cache mode.
    EXPECT_EQ(c.io_bytes_read, io.bytes_read);
    EXPECT_EQ(c.io_requests, io.requests);
    EXPECT_EQ(c.files_read, io.files_opened);
    EXPECT_EQ(c.io_bytes_from_cache, io.bytes_from_cache);
    EXPECT_EQ(c.io_cache_hits, io.cache_hits);
    EXPECT_EQ(c.io_cache_misses, io.cache_misses);

    // The registry must have absorbed exactly the same deltas (Execute
    // folds per-query stats into the process-wide counters).
    const RegistryIo after = RegistryIo::Read();
    EXPECT_EQ(after.backend_bytes - before.backend_bytes, io.bytes_read);
    EXPECT_EQ(after.requests - before.requests, io.requests);
    EXPECT_EQ(after.files_opened - before.files_opened, io.files_opened);
    EXPECT_EQ(after.cache_bytes - before.cache_bytes, io.bytes_from_cache);
    EXPECT_EQ(after.cache_hits - before.cache_hits, io.cache_hits);
    EXPECT_EQ(after.cache_misses - before.cache_misses, io.cache_misses);

    // Span completion order: the pull pipeline finishes inner spans
    // before outer ones, so the predicted ordering is open (executor
    // scope), io (inside the scanner's first page fetch), scan, query.
    const std::vector<TracePhase> seq = trace.ActivationSequence();
    ASSERT_EQ(seq.size(), 4u);
    EXPECT_EQ(seq[0], TracePhase::kOpen);
    EXPECT_EQ(seq[1], TracePhase::kIo);
    EXPECT_EQ(seq[2], TracePhase::kScan);
    EXPECT_EQ(seq[3], TracePhase::kQuery);
  }

  rodb::testing::TempDir dir_;
  Schema plain_schema_;
  Schema z_schema_;
  std::vector<std::vector<uint8_t>> tuples_;
  int64_t last_half_ = -1;
  FileBackend backend_;
};

TEST_F(ModelAccuracyTest, GridOfLayoutCodecSelectivityConfigs) {
  // 2 codecs x 4 scanner variants x 3 selectivities = 24 configurations,
  // each asserted to exact counter equality.
  struct Variant {
    Layout layout;
    ScannerImpl impl;
    const char* name;
  };
  const Variant variants[] = {
      {Layout::kRow, ScannerImpl::kAuto, "row"},
      {Layout::kPax, ScannerImpl::kAuto, "pax"},
      {Layout::kColumn, ScannerImpl::kAuto, "column"},
      {Layout::kColumn, ScannerImpl::kEarlyMat, "earlymat"},
  };
  int configs = 0;
  for (const bool compressed : {false, true}) {
    for (const Variant& v : variants) {
      const std::string name =
          std::string(compressed ? "z" : "plain") + LayoutSuffix(v.layout);
      ASSERT_OK_AND_ASSIGN(OpenTable table,
                           OpenTable::Open(dir_.path(), name));
      for (const Sel sel : {Sel::kAll, Sel::kHalf, Sel::kNone}) {
        ScanSpec spec;
        spec.read.io_unit_bytes = 4096;
        spec.prune = false;  // the physics predicted here are unpruned
        ScanPhysicsHints hints;
        const bool col_default =
            v.layout == Layout::kColumn && v.impl == ScannerImpl::kAuto;
        if (sel == Sel::kAll) {
          spec.projection = {0, 1, 2};
        } else {
          const int32_t bound = sel == Sel::kHalf ? 50 : -1;
          spec.predicates = {Predicate::Int32(1, CompareOp::kLt, bound)};
          if (col_default && compressed) {
            // Compressed column files have non-uniform page value counts
            // (FOR-delta pages can close early), so bounded inner reach
            // is not predictable; a single-node pipeline still is.
            spec.projection = {1};
          } else {
            spec.projection = {0, 1, 2};
            if (col_default) {
              // Pipeline order is [val, key, tag]; both inner nodes are
              // asked positions up to the last qualifying tuple.
              const int64_t last = sel == Sel::kHalf ? last_half_ : -1;
              hints.last_position = {0, last, last};
            }
          }
        }
        ASSERT_OK_AND_ASSIGN(
            ScanPhysics physics,
            PredictScanPhysics(table, spec, v.impl, hints));
        RunAndCheck(table, spec, v.impl, physics.Uncached(), physics,
                    std::string(compressed ? "z-" : "plain-") + v.name +
                        "-" + SelName(sel));
        ++configs;
      }
    }
  }
  EXPECT_EQ(configs, 24);
}

TEST_F(ModelAccuracyTest, ColdAndWarmCacheProjectionsMatch) {
  // The cached axis: a cold pass through a fresh BlockCache must match
  // the Cold() projection (backend traffic identical to uncached, every
  // unit a miss), the immediate re-run the Warm() projection (all bytes
  // from cache, zero backend opens via the known-file-size fast path).
  for (const bool compressed : {false, true}) {
    for (const Layout layout : {Layout::kRow, Layout::kColumn, Layout::kPax}) {
      const std::string name =
          std::string(compressed ? "z" : "plain") + LayoutSuffix(layout);
      ASSERT_OK_AND_ASSIGN(OpenTable table,
                           OpenTable::Open(dir_.path(), name));
      BlockCache cache(64ULL << 20, 4);
      ScanSpec spec;
      spec.projection = {0, 1, 2};
      spec.read.io_unit_bytes = 4096;
      spec.read.cache = &cache;
      ASSERT_OK_AND_ASSIGN(ScanPhysics physics,
                           PredictScanPhysics(table, spec));
      RunAndCheck(table, spec, ScannerImpl::kAuto, physics.Cold(), physics,
                  name + "-cold");
      RunAndCheck(table, spec, ScannerImpl::kAuto, physics.Warm(), physics,
                  name + "-warm");
    }
  }
}

TEST_F(ModelAccuracyTest, PredictorRejectsWhatItCannotModel) {
  ASSERT_OK_AND_ASSIGN(OpenTable table,
                       OpenTable::Open(dir_.path(), "plain_row"));
  ScanSpec spec;
  spec.projection = {0};
  spec.read.io_unit_bytes = 0;
  EXPECT_FALSE(PredictScanPhysics(table, spec).ok());

  ScanSpec ranged;
  ranged.projection = {0};
  ranged.read.io_unit_bytes = 4096;
  ranged.range = ScanRange::Rows(0, 10);
  EXPECT_FALSE(PredictScanPhysics(table, ranged).ok());
}

}  // namespace
}  // namespace rodb
