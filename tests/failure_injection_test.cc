// Failure injection: corrupted files, truncated files, lying catalogs and
// erroring I/O must surface as clean Status errors -- never crashes,
// never silently wrong results.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/bytes.h"
#include "common/file_util.h"
#include "engine/column_scanner.h"
#include "engine/parallel_executor.h"
#include "engine/zone_pruner.h"
#include "io/fault_injection.h"
#include "obs/metrics.h"
#include "scan_test_util.h"
#include "server/query_engine.h"
#include "wos/ingest_store.h"

namespace rodb {
namespace {

using rodb::testing::CollectTuples;
using rodb::testing::LayoutSuffix;
using rodb::testing::LoadAllLayouts;
using rodb::testing::MakeScanner;
using rodb::testing::TempDir;

class FailureInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto schema = Schema::Make(
        {AttributeDesc::Int32("id", CodecSpec::ForDelta(8)),
         AttributeDesc::Int32("val"),
         AttributeDesc::Text("tag", 4, CodecSpec::Dict(2))});
    ASSERT_OK(schema.status());
    schema_ = std::move(schema).value();
    for (int i = 0; i < 3000; ++i) {
      std::vector<uint8_t> t(12);
      StoreLE32s(t.data(), i);
      StoreLE32s(t.data() + 4, i % 100);
      std::memcpy(t.data() + 8, i % 2 ? "AAAA" : "BBBB", 4);
      tuples_.push_back(std::move(t));
    }
    ASSERT_OK(LoadAllLayouts(dir_.path(), "t", schema_, tuples_, 1024));
  }

  /// The four scanners, each over a fresh single-layout copy of the table.
  struct ScannerCase {
    Layout layout;
    ScannerImpl impl;
    const char* name;
  };
  static constexpr ScannerCase kScanners[] = {
      {Layout::kRow, ScannerImpl::kAuto, "row"},
      {Layout::kPax, ScannerImpl::kAuto, "pax"},
      {Layout::kColumn, ScannerImpl::kAuto, "column"},
      {Layout::kColumn, ScannerImpl::kEarlyMat, "earlymat"},
  };

  /// Loads the fixture's tuples as table "t<suffix>" in `dir` and returns
  /// its name.
  Result<std::string> LoadCopy(const std::string& dir, Layout layout) {
    RODB_RETURN_IF_ERROR(rodb::testing::LoadLayouts(dir, "t", schema_,
                                                    tuples_, {layout}, 1024));
    return std::string("t") + LayoutSuffix(layout);
  }

  /// Loads a copy like LoadCopy, then rewrites its .meta to claim
  /// `claimed` tuples instead of the 3000 stored.
  Result<std::string> LoadLyingCopy(const std::string& dir, Layout layout,
                                    uint64_t claimed) {
    RODB_ASSIGN_OR_RETURN(const std::string name, LoadCopy(dir, layout));
    const std::string meta_path = dir + "/" + name + ".meta";
    RODB_ASSIGN_OR_RETURN(std::string meta, ReadFileToString(meta_path));
    const std::string stored = "num_tuples 3000\n";
    const size_t at = meta.find(stored);
    if (at == std::string::npos) {
      return Status::Internal(meta_path + " has no num_tuples 3000 line");
    }
    meta.replace(at, stored.size(),
                 "num_tuples " + std::to_string(claimed) + "\n");
    RODB_RETURN_IF_ERROR(WriteStringToFile(meta_path, meta));
    return name;
  }

  /// Runs `spec` to completion through `impl` and returns the row count.
  Result<uint64_t> RunScan(const OpenTable& table, const ScanSpec& spec,
                           ScannerImpl impl) {
    ExecStats stats;
    RODB_ASSIGN_OR_RETURN(auto scan,
                          OpenScanner(table, spec, &backend_, &stats, impl));
    RODB_ASSIGN_OR_RETURN(ExecutionResult result,
                          Execute(scan.get(), &stats));
    return result.rows;
  }

  /// Overwrites `count` bytes of `path` at `offset`.
  void Clobber(const std::string& path, size_t offset, size_t count,
               uint8_t value) {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    f.seekp(static_cast<std::streamoff>(offset));
    for (size_t i = 0; i < count; ++i) {
      f.put(static_cast<char>(value));
    }
  }

  /// Flips one bit of the byte at `offset` -- guaranteed to change the
  /// file, unlike an absolute overwrite.
  void FlipBit(const std::string& path, size_t offset) {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    f.seekg(static_cast<std::streamoff>(offset));
    char byte = 0;
    f.get(byte);
    f.seekp(static_cast<std::streamoff>(offset));
    f.put(static_cast<char>(byte ^ 0x10));
  }

  void Truncate(const std::string& path, size_t new_size) {
    std::error_code ec;
    std::filesystem::resize_file(path, new_size, ec);
    ASSERT_FALSE(ec);
  }

  Result<uint64_t> ScanRows(const std::string& table_name, IoBackend* backend,
                            bool verify_checksums = false) {
    auto table = OpenTable::Open(dir_.path(), table_name);
    RODB_RETURN_IF_ERROR(table.status());
    ScanSpec spec;
    spec.projection = {0, 1, 2};
    spec.read.io_unit_bytes = 4096;
    spec.read.verify_checksums = verify_checksums;
    ExecStats stats;
    auto scan = MakeScanner(&*table, spec, backend, &stats);
    RODB_RETURN_IF_ERROR(scan.status());
    auto result = Execute(scan->get(), &stats);
    RODB_RETURN_IF_ERROR(result.status());
    return result->rows;
  }

  TempDir dir_;
  Schema schema_;
  std::vector<std::vector<uint8_t>> tuples_;
  FileBackend backend_;
};

TEST_F(FailureInjectionTest, CorruptPageMagicRejectedByEveryLayout) {
  for (const char* name : {"t_row", "t_col", "t_pax"}) {
    SCOPED_TRACE(name);
    ASSERT_OK_AND_ASSIGN(OpenTable table, OpenTable::Open(dir_.path(), name));
    // Smash the second page's trailer magic (first file).
    Clobber(table.FilePath(0), 2 * 1024 - 20, 4, 0xEE);
    auto rows = ScanRows(name, &backend_);
    EXPECT_FALSE(rows.ok());
    EXPECT_TRUE(rows.status().IsCorruption()) << rows.status().ToString();
  }
}

TEST_F(FailureInjectionTest, OversizedPageCountRejected) {
  ASSERT_OK_AND_ASSIGN(OpenTable table, OpenTable::Open(dir_.path(), "t_col"));
  // Set the first page's tuple count to an absurd value.
  std::vector<uint8_t> big(4);
  StoreLE32(big.data(), 1 << 30);
  std::fstream f(table.FilePath(0),
                 std::ios::binary | std::ios::in | std::ios::out);
  f.write(reinterpret_cast<char*>(big.data()), 4);
  f.close();
  auto rows = ScanRows("t_col", &backend_);
  EXPECT_TRUE(rows.status().IsCorruption());
}

TEST_F(FailureInjectionTest, CompressedRowPageCountOverflowIsCorruption) {
  // One page of the compressed row table claims 0xFFFFFFFF tuples, and
  // checksums are off (the default). Pruned and ranged scans never reach
  // PageSource's end-of-file count check, so the page reader itself must
  // refuse the count, or the scanner decodes ~4.29 billion tuples from
  // past the payload. A whole-table scan and a key-range pruned scan
  // over that page both fail with Corruption long before the deadline.
  ASSERT_OK_AND_ASSIGN(OpenTable table, OpenTable::Open(dir_.path(), "t_row"));
  ASSERT_TRUE(table.schema().is_compressed());
  const uint64_t last_page = table.meta().file_pages[0] - 1;
  Clobber(table.FilePath(0), last_page * table.meta().page_size, 4, 0xFF);
  for (const bool pruned : {false, true}) {
    SCOPED_TRACE(pruned ? "pruned" : "whole table");
    ScanSpec spec;
    spec.projection = {0, 1, 2};
    spec.read.io_unit_bytes = 4096;
    if (pruned) {
      spec.predicates = {Predicate::Int32(0, CompareOp::kGe, 2500)};
      ASSERT_TRUE(BuildPrunePlan(table, spec).active);
    }
    const QueryContext ctx =
        QueryContext::WithTimeout(std::chrono::seconds(10));
    ExecStats stats;
    stats.set_context(&ctx);
    ASSERT_OK_AND_ASSIGN(auto scan,
                         OpenScanner(table, spec, &backend_, &stats));
    auto result = Execute(scan.get(), &stats);
    EXPECT_TRUE(result.status().IsCorruption()) << result.status().ToString();
  }
}

TEST_F(FailureInjectionTest, TruncatedFileFailsEveryScanner) {
  // Cut one page or half a page off each file of the table underneath a
  // whole-table scan, a range scan reaching the tail (early-mat scans
  // whole tables only) and a pruned `id >= 2500` scan whose retained runs
  // reach the tail: every scanner must fail with Corruption or IoError,
  // never return a short OK result.
  enum class Kind { kWhole, kRange, kPruned };
  int cases = 0;
  for (const ScannerCase& sc : kScanners) {
    for (const Kind kind : {Kind::kWhole, Kind::kRange, Kind::kPruned}) {
      if (kind == Kind::kRange && sc.impl == ScannerImpl::kEarlyMat) continue;
      const size_t files = sc.layout == Layout::kColumn ? 3 : 1;
      for (size_t file = 0; file < files; ++file) {
        for (const uint64_t cut : {1024, 512}) {
          const std::string label =
              std::string(sc.name) + " kind " +
              std::to_string(static_cast<int>(kind)) + " file " +
              std::to_string(file) + " cut " + std::to_string(cut);
          SCOPED_TRACE(label);
          TempDir dir;
          ASSERT_OK_AND_ASSIGN(const std::string name,
                               LoadCopy(dir.path(), sc.layout));
          ASSERT_OK_AND_ASSIGN(OpenTable table,
                               OpenTable::Open(dir.path(), name));
          ScanSpec spec;
          spec.projection = {0, 1, 2};
          spec.read.io_unit_bytes = 4096;
          if (kind == Kind::kRange) {
            spec.range = sc.layout == Layout::kColumn
                             ? ScanRange::Rows(500, 2500)
                             : ScanRange::Pages(
                                   1, table.meta().file_pages[0] - 1);
          } else if (kind == Kind::kPruned) {
            spec.predicates = {Predicate::Int32(0, CompareOp::kGe, 2500)};
            spec.prune = true;
            ASSERT_TRUE(BuildPrunePlan(table, spec).active);
          }
          Truncate(table.FilePath(file), table.FileBytes(file) - cut);
          auto rows = RunScan(table, spec, sc.impl);
          EXPECT_TRUE(rows.status().IsCorruption() ||
                      rows.status().IsIoError())
              << rows.status().ToString();
          ++cases;
        }
      }
    }
  }
  EXPECT_EQ(cases, 42);
}

TEST_F(FailureInjectionTest, MissingColumnFileFailsAtOpen) {
  ASSERT_OK_AND_ASSIGN(OpenTable table, OpenTable::Open(dir_.path(), "t_col"));
  std::filesystem::remove(table.FilePath(2));
  auto rows = ScanRows("t_col", &backend_);
  EXPECT_TRUE(rows.status().IsIoError());
}

TEST_F(FailureInjectionTest, MissingDictionarySidecarFailsAtOpen) {
  std::filesystem::remove(TablePaths::DictFile(dir_.path(), "t_row"));
  EXPECT_TRUE(OpenTable::Open(dir_.path(), "t_row").status().IsIoError());
}

TEST_F(FailureInjectionTest, TruncatedDictionarySidecarIsCorruption) {
  const std::string path = TablePaths::DictFile(dir_.path(), "t_pax");
  ASSERT_OK_AND_ASSIGN(std::string blob, ReadFileToString(path));
  ASSERT_OK(WriteStringToFile(path, blob.substr(0, blob.size() / 2)));
  EXPECT_TRUE(OpenTable::Open(dir_.path(), "t_pax").status().IsCorruption());
}

TEST_F(FailureInjectionTest, InjectedIoErrorPropagatesFromEveryScanner) {
  for (const char* name : {"t_row", "t_col", "t_pax"}) {
    SCOPED_TRACE(name);
    FaultInjectingBackend flaky(&backend_, FaultSpec::FailAfter(1));
    auto rows = ScanRows(name, &flaky);
    ASSERT_FALSE(rows.ok());
    EXPECT_TRUE(rows.status().IsIoError());
    EXPECT_NE(rows.status().message().find("injected"), std::string::npos);
    EXPECT_GE(flaky.injected_errors(), 1u);
  }
}

TEST_F(FailureInjectionTest, SealedPageBitFlipIsCorruptionInEveryLayout) {
  // End to end: one flipped bit in a sealed page on disk, scanned through
  // the real stack with checksum verification on, must come back as
  // Corruption -- for every physical layout.
  for (const char* name : {"t_row", "t_col", "t_pax"}) {
    SCOPED_TRACE(name);
    ASSERT_OK_AND_ASSIGN(OpenTable table, OpenTable::Open(dir_.path(), name));
    // Mid-payload of the first page: geometry stays valid, only the CRC
    // can tell.
    FlipBit(table.FilePath(0), 100);
    auto rows = ScanRows(name, &backend_, /*verify_checksums=*/true);
    EXPECT_FALSE(rows.ok());
    EXPECT_TRUE(rows.status().IsCorruption()) << rows.status().ToString();
  }
}

TEST_F(FailureInjectionTest, RandomBitFlipsNeverGoUnnoticedWhenVerifying) {
  // Decorator-injected in-flight corruption: with checksums on, every
  // outcome is either a clean Corruption/IoError or (if the flip missed
  // the pages we read) the full, correct row count. Never silently short.
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    FaultSpec spec;
    spec.seed = seed;
    spec.bit_flip_probability = 0.5;
    FaultInjectingBackend noisy(&backend_, spec);
    auto rows = ScanRows("t_pax", &noisy, /*verify_checksums=*/true);
    if (rows.ok()) {
      EXPECT_EQ(*rows, 3000u);
    } else {
      EXPECT_TRUE(rows.status().IsCorruption() || rows.status().IsIoError())
          << rows.status().ToString();
    }
    EXPECT_GT(noisy.injected_bit_flips(), 0u);
  }
}

TEST_F(FailureInjectionTest, TracingBackendCountsPerFileReads) {
  TracingBackend tracing(&backend_);
  // A column scan projecting all three attributes opens exactly the three
  // column files, once each, and actually pulls bytes through them.
  ASSERT_OK_AND_ASSIGN(uint64_t rows, ScanRows("t_col", &tracing));
  EXPECT_EQ(rows, 3000u);
  EXPECT_EQ(tracing.total_opens(), 3u);
  EXPECT_EQ(tracing.Paths().size(), 3u);
  ASSERT_OK_AND_ASSIGN(OpenTable col, OpenTable::Open(dir_.path(), "t_col"));
  for (int file = 0; file < 3; ++file) {
    const TracingBackend::PathTrace trace = tracing.Trace(col.FilePath(file));
    EXPECT_EQ(trace.opens, 1u);
    EXPECT_GT(trace.units, 0u);
    EXPECT_GT(trace.bytes, 0u);
  }

  tracing.Reset();
  EXPECT_EQ(tracing.total_opens(), 0u);

  // A row scan reads the single row file, whatever the projection.
  ASSERT_OK_AND_ASSIGN(rows, ScanRows("t_row", &tracing));
  EXPECT_EQ(rows, 3000u);
  ASSERT_OK_AND_ASSIGN(OpenTable row, OpenTable::Open(dir_.path(), "t_row"));
  EXPECT_EQ(tracing.total_opens(), 1u);
  EXPECT_EQ(tracing.Trace(row.FilePath(0)).opens, 1u);
}

TEST_F(FailureInjectionTest, ChecksumCatchesSilentPayloadCorruption) {
  // A payload bit flip keeps the geometry valid -- the hot path cannot
  // see it -- but verification (rodbctl verify's code path) must.
  ASSERT_OK_AND_ASSIGN(OpenTable table, OpenTable::Open(dir_.path(), "t_row"));
  const std::string path = table.FilePath(0);
  Clobber(path, 100, 1, 0x5A);
  ASSERT_OK_AND_ASSIGN(std::string blob, ReadFileToString(path));
  auto unverified = PageView::Parse(
      reinterpret_cast<const uint8_t*>(blob.data()), 1024, false);
  EXPECT_OK(unverified.status());
  auto verified = PageView::Parse(
      reinterpret_cast<const uint8_t*>(blob.data()), 1024, true);
  EXPECT_TRUE(verified.status().IsCorruption());
}

TEST_F(FailureInjectionTest, IngestMergeRejectsCorruptRosGeneration) {
  IngestOptions options;
  options.freeze_tuples = 0;
  options.merge_segments = 0;
  ASSERT_OK_AND_ASSIGN(auto store, IngestStore::Open(dir_.path(), "events",
                                                     schema_, options));
  uint8_t tuple[12] = {0};
  std::memcpy(tuple + 8, "AAAA", 4);
  for (int32_t i = 0; i < 500; ++i) {
    StoreLE32s(tuple, i);
    ASSERT_OK(store->Append(tuple));
  }
  ASSERT_OK(store->Freeze());
  ASSERT_OK(store->Merge());
  ASSERT_OK(store->Append(tuple));
  ASSERT_OK(store->Freeze());
  const Snapshot before = store->Acquire();
  ASSERT_NE(before.ros(), nullptr);
  Truncate(before.ros()->FilePath(0), 1024);

  const auto gen_files = [this] {
    std::vector<std::string> names;
    for (const auto& entry : std::filesystem::directory_iterator(dir_.path())) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("events__gen", 0) == 0) names.push_back(name);
    }
    std::sort(names.begin(), names.end());
    return names;
  };
  const std::vector<std::string> gens_before = gen_files();
  obs::Counter* failures =
      obs::MetricsRegistry::Default().GetCounter("rodb.ingest.merge_failures");
  const uint64_t failures_before = failures->Value();
  const Status merged = store->Merge();
  EXPECT_TRUE(merged.IsCorruption()) << merged.ToString();
  EXPECT_EQ(failures->Value(), failures_before + 1);
  EXPECT_EQ(store->epoch(), before.epoch());
  EXPECT_EQ(gen_files(), gens_before);
}

TEST_F(FailureInjectionTest, CatalogCardinalityLieIsCorruptionInEveryScanner) {
  // The .meta file claims fewer (2000) or more (4000) tuples than the 3000
  // stored. A whole-table scan must fail either way: a file shorter than
  // the catalog is truncated, and values past num_tuples are data the
  // catalog does not account for.
  for (const uint64_t claimed : {2000, 4000}) {
    for (const ScannerCase& sc : kScanners) {
      SCOPED_TRACE(std::string(sc.name) + " claims " +
                   std::to_string(claimed));
      TempDir dir;
      ASSERT_OK_AND_ASSIGN(const std::string name,
                           LoadLyingCopy(dir.path(), sc.layout, claimed));
      ASSERT_OK_AND_ASSIGN(OpenTable table, OpenTable::Open(dir.path(), name));
      ASSERT_EQ(table.meta().num_tuples, claimed);
      ScanSpec spec;
      spec.projection = {0, 1, 2};
      spec.read.io_unit_bytes = 4096;
      auto rows = RunScan(table, spec, sc.impl);
      EXPECT_TRUE(rows.status().IsCorruption())
          << (rows.ok() ? std::to_string(*rows) + " rows"
                        : rows.status().ToString());
    }
  }
}

TEST_F(FailureInjectionTest, DataFileLongerThanCatalogIsCorruptionInEveryScanner) {
  // Bytes appended past what the catalog records: a tail shorter than a
  // page, a whole valid page (a copy of page 0) or a zero page. A scan
  // can miss each without a size check: an I/O unit of several pages
  // silently drops a sub-page tail, and the pipelined column scanner's
  // inner nodes stop at the driving node's end. Every scanner, at 1- and
  // 32-page units, and the engine at parallelism 1 and 2 must fail.
  const std::string kTails[] = {"fragment", "valid page", "zero page"};
  for (const std::string& tail : kTails) {
    for (const ScannerCase& sc : kScanners) {
      const size_t files = sc.layout == Layout::kColumn ? 3 : 1;
      for (size_t file = 0; file < files; ++file) {
        SCOPED_TRACE(std::string(sc.name) + " file " + std::to_string(file) +
                     " + " + tail);
        TempDir dir;
        ASSERT_OK_AND_ASSIGN(const std::string name,
                             LoadCopy(dir.path(), sc.layout));
        ASSERT_OK_AND_ASSIGN(OpenTable table,
                             OpenTable::Open(dir.path(), name));
        const std::string path = table.FilePath(file);
        ASSERT_OK_AND_ASSIGN(std::string bytes, ReadFileToString(path));
        const size_t page_size = table.meta().page_size;
        if (tail == "fragment") {
          bytes.append(100, '\x5a');
        } else if (tail == "valid page") {
          bytes.append(bytes.substr(0, page_size));
        } else {
          bytes.append(page_size, '\0');
        }
        ASSERT_OK(WriteStringToFile(path, bytes));

        for (const size_t unit_pages : {1, 32}) {
          ScanSpec spec;
          spec.projection = {0, 1, 2};
          spec.read.io_unit_bytes = unit_pages * page_size;
          auto rows = RunScan(table, spec, sc.impl);
          EXPECT_TRUE(rows.status().IsCorruption())
              << unit_pages << "-page units: "
              << (rows.ok() ? std::to_string(*rows) + " rows"
                            : rows.status().ToString());
        }
        if (sc.impl != ScannerImpl::kAuto) continue;
        QueryEngine engine(dir.path());
        for (const int parallelism : {1, 2}) {
          QueryRequest request;
          request.table = name;
          request.scan.read.io_unit_bytes = 32 * page_size;
          request.parallelism = parallelism;
          auto result = engine.Execute(request);
          EXPECT_TRUE(result.status().IsCorruption())
              << "parallelism " << parallelism << ": "
              << (result.ok() ? std::to_string(result->rows) + " rows"
                              : result.status().ToString());
        }
      }
    }
  }
}

TEST_F(FailureInjectionTest, CatalogCardinalityLieIsCorruptionInParallelScans) {
  // The same lie under morsel parallelism: every morsel checks only its
  // own range, but the last one ends at the table's end and so is
  // checked like a whole-table scan -- its file must end at position
  // num_tuples. Directly and through the engine, every run fails.
  for (const uint64_t claimed : {2000, 4000}) {
    for (const Layout layout : {Layout::kRow, Layout::kPax, Layout::kColumn}) {
      SCOPED_TRACE(std::string(LayoutName(layout)) + " claims " +
                   std::to_string(claimed));
      TempDir dir;
      ASSERT_OK_AND_ASSIGN(const std::string name,
                           LoadLyingCopy(dir.path(), layout, claimed));
      ASSERT_OK_AND_ASSIGN(OpenTable table, OpenTable::Open(dir.path(), name));
      ScanSpec spec;
      spec.projection = {0, 1, 2};
      spec.read.io_unit_bytes = 4096;
      ParallelScanPlan plan;
      plan.table = &table;
      plan.spec = spec;
      plan.backend = &backend_;
      for (const int k : {2, 4}) {
        // The scan really splits: no serial fallback answers for it.
        ASSERT_GT(PlanMorsels(table, spec, k).size(), 1u) << "k=" << k;
        auto out = ParallelExecute(plan, k);
        EXPECT_TRUE(out.status().IsCorruption())
            << "k=" << k << ": "
            << (out.ok() ? std::to_string(out->result.rows) + " rows"
                         : out.status().ToString());
      }
      QueryEngine engine(dir.path());
      QueryRequest request;
      request.table = name;
      request.scan = spec;
      request.parallelism = 2;
      auto result = engine.Execute(request);
      EXPECT_TRUE(result.status().IsCorruption())
          << (result.ok() ? std::to_string(result->rows) + " rows"
                          : result.status().ToString());
    }
  }
}

TEST_F(FailureInjectionTest, CatalogCardinalityLieDetectedByColumnScan) {
  // Claim more tuples than stored: the column scanner's position stream
  // runs off the end of the shorter columns.
  ASSERT_OK_AND_ASSIGN(TableMeta meta,
                       Catalog::LoadTableMeta(dir_.path(), "t_col"));
  ASSERT_OK_AND_ASSIGN(OpenTable table, OpenTable::Open(dir_.path(), "t_col"));
  // Truncate one column file by a page while the others stay intact.
  Truncate(table.FilePath(0), meta.file_bytes[0] - 1024);
  ScanSpec spec;
  spec.projection = {1, 0};
  spec.predicates = {Predicate::Int32(1, CompareOp::kGe, 0)};
  spec.read.io_unit_bytes = 4096;
  ExecStats stats;
  ASSERT_OK_AND_ASSIGN(auto scan,
                       ColumnScanner::Make(&table, spec, &backend_, &stats));
  auto result = Execute(scan.get(), &stats);
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace rodb
