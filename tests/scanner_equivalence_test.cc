// The central correctness property of the whole study: the row and column
// scanners are interchangeable -- for any schema, codec assignment,
// projection and predicate set, both produce exactly the same tuples in
// the same order (Section 2.2.2: "both scanners produce their output in
// exactly the same format and therefore they are interchangeable").

#include <gtest/gtest.h>

#include <cstring>

#include "common/bytes.h"
#include "common/random.h"
#include "engine/open_scanner.h"
#include "engine/parallel_executor.h"
#include "io/block_cache.h"
#include "scan_test_util.h"

namespace rodb {
namespace {

using rodb::testing::CollectTuples;
using rodb::testing::LoadBothLayouts;
using rodb::testing::MakeScanner;
using rodb::testing::TempDir;

struct RandomDataset {
  Schema schema;
  std::vector<std::vector<uint8_t>> tuples;
};

/// Builds a random schema (2-6 attributes, random codecs) plus data that
/// satisfies every codec's constraints.
RandomDataset MakeRandomDataset(Random* rng, int num_tuples) {
  RandomDataset ds;
  const int n_attrs = static_cast<int>(rng->UniformRange(2, 6));
  std::vector<AttributeDesc> attrs;
  // Per-attribute generation strategy.
  enum class Gen { kSortedKey, kSmallInt, kFreeInt, kDictText, kPlainText };
  std::vector<Gen> gens;
  for (int a = 0; a < n_attrs; ++a) {
    switch (rng->Uniform(6)) {
      case 0:
        attrs.push_back(AttributeDesc::Int32(
            "k" + std::to_string(a),
            rng->Bernoulli(0.5) ? CodecSpec::ForDelta(8)
                                : CodecSpec::For(16)));
        gens.push_back(Gen::kSortedKey);
        break;
      case 1:
        attrs.push_back(AttributeDesc::Int32("p" + std::to_string(a),
                                             CodecSpec::BitPack(7)));
        gens.push_back(Gen::kSmallInt);
        break;
      case 2:
        attrs.push_back(AttributeDesc::Int32("i" + std::to_string(a)));
        gens.push_back(Gen::kFreeInt);
        break;
      case 3:
        attrs.push_back(AttributeDesc::Text("d" + std::to_string(a), 8,
                                            CodecSpec::Dict(3)));
        gens.push_back(Gen::kDictText);
        break;
      case 4:
        attrs.push_back(AttributeDesc::Text("t" + std::to_string(a), 5));
        gens.push_back(Gen::kPlainText);
        break;
      default:
        attrs.push_back(AttributeDesc::Int32("u" + std::to_string(a),
                                             CodecSpec::BitPack(12)));
        gens.push_back(Gen::kSmallInt);
        break;
    }
  }
  auto schema = Schema::Make(std::move(attrs));
  EXPECT_TRUE(schema.ok()) << schema.status().ToString();
  ds.schema = std::move(schema).value();

  const char* dict_words[] = {"alpha   ", "beta    ", "gamma   ",
                              "delta   ", "epsilon ", "zeta    ",
                              "eta     ", "theta   "};
  std::vector<int32_t> sorted_state(static_cast<size_t>(n_attrs), 1000);
  for (int i = 0; i < num_tuples; ++i) {
    std::vector<uint8_t> t(static_cast<size_t>(ds.schema.raw_tuple_width()));
    for (int a = 0; a < n_attrs; ++a) {
      uint8_t* field = t.data() + ds.schema.attr_offset(a);
      switch (gens[a]) {
        case Gen::kSortedKey:
          sorted_state[a] += static_cast<int32_t>(rng->Uniform(60));
          StoreLE32s(field, sorted_state[a]);
          break;
        case Gen::kSmallInt:
          StoreLE32s(field, static_cast<int32_t>(rng->Uniform(128)));
          break;
        case Gen::kFreeInt:
          StoreLE32s(field,
                     static_cast<int32_t>(rng->UniformRange(-50000, 50000)));
          break;
        case Gen::kDictText:
          std::memcpy(field, dict_words[rng->Uniform(8)], 8);
          break;
        case Gen::kPlainText: {
          const std::string s = rng->String(5, "xyzw ");
          std::memcpy(field, s.data(), 5);
          break;
        }
      }
    }
    ds.tuples.push_back(std::move(t));
  }
  return ds;
}

/// Builds a random scan spec against the dataset's schema.
ScanSpec MakeRandomSpec(Random* rng, const Schema& schema) {
  ScanSpec spec;
  const size_t n = schema.num_attributes();
  // Random non-empty projection, random order, no duplicates.
  std::vector<int> attrs;
  for (size_t a = 0; a < n; ++a) attrs.push_back(static_cast<int>(a));
  for (size_t a = attrs.size(); a > 1; --a) {
    std::swap(attrs[a - 1], attrs[rng->Uniform(a)]);
  }
  const size_t keep = 1 + rng->Uniform(n);
  spec.projection.assign(attrs.begin(), attrs.begin() + keep);
  // 0-2 predicates on random attributes.
  const int n_preds = static_cast<int>(rng->Uniform(3));
  for (int p = 0; p < n_preds; ++p) {
    const size_t attr = rng->Uniform(n);
    const AttributeDesc& desc = schema.attribute(attr);
    const CompareOp op = static_cast<CompareOp>(rng->Uniform(6));
    if (desc.type == AttrType::kInt32) {
      spec.predicates.push_back(Predicate::Int32(
          static_cast<int>(attr), op,
          static_cast<int32_t>(rng->UniformRange(-1000, 60000))));
    } else {
      spec.predicates.push_back(Predicate::Text(
          static_cast<int>(attr), op, rng->String(1, "abgdxyz")));
    }
  }
  spec.read.io_unit_bytes = 4096;
  spec.read.prefetch_depth = static_cast<int>(rng->UniformRange(1, 8));
  spec.prune = false;  // the unpruned baseline; the prune axis turns it on
  return spec;
}

class ScannerEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ScannerEquivalenceTest, AllScannersAgree) {
  // Four independent implementations of the same scan semantics: the row
  // scanner, the pipelined column scanner, the PAX scanner, and the
  // early-materialization column scanner. For random schemas, codecs,
  // projections and predicates they must produce identical tuple streams.
  Random rng(GetParam());
  TempDir dir;
  RandomDataset ds = MakeRandomDataset(&rng, 2000);
  ASSERT_OK(rodb::testing::LoadAllLayouts(dir.path(), "rand", ds.schema,
                                          ds.tuples, 1024));
  ASSERT_OK_AND_ASSIGN(OpenTable row_table,
                       OpenTable::Open(dir.path(), "rand_row"));
  ASSERT_OK_AND_ASSIGN(OpenTable col_table,
                       OpenTable::Open(dir.path(), "rand_col"));
  ASSERT_OK_AND_ASSIGN(OpenTable pax_table,
                       OpenTable::Open(dir.path(), "rand_pax"));
  FileBackend backend;
  for (int q = 0; q < 5; ++q) {
    const ScanSpec spec = MakeRandomSpec(&rng, ds.schema);
    ExecStats row_stats, col_stats, pax_stats, early_stats;
    ASSERT_OK_AND_ASSIGN(auto row_scan,
                         MakeScanner(&row_table, spec, &backend, &row_stats));
    ASSERT_OK_AND_ASSIGN(auto col_scan,
                         MakeScanner(&col_table, spec, &backend, &col_stats));
    ASSERT_OK_AND_ASSIGN(auto pax_scan,
                         MakeScanner(&pax_table, spec, &backend, &pax_stats));
    ASSERT_OK_AND_ASSIGN(
        auto early_scan,
        OpenScanner(col_table, spec, &backend, &early_stats,
                    ScannerImpl::kEarlyMat));
    ASSERT_OK_AND_ASSIGN(auto row_tuples, CollectTuples(row_scan.get()));
    ASSERT_OK_AND_ASSIGN(auto col_tuples, CollectTuples(col_scan.get()));
    ASSERT_OK_AND_ASSIGN(auto pax_tuples, CollectTuples(pax_scan.get()));
    ASSERT_OK_AND_ASSIGN(auto early_tuples, CollectTuples(early_scan.get()));
    ASSERT_EQ(row_tuples.size(), col_tuples.size()) << "query " << q;
    for (size_t i = 0; i < row_tuples.size(); ++i) {
      ASSERT_EQ(row_tuples[i], col_tuples[i]) << "query " << q << " row " << i;
    }
    ASSERT_EQ(pax_tuples, row_tuples) << "query " << q << " (pax)";
    ASSERT_EQ(early_tuples, row_tuples) << "query " << q << " (early mat)";

    // Prune axis: the same four scanners with zone-map skipping enabled
    // must still produce the identical tuple stream -- pruning is an I/O
    // strategy, never a semantic change. (Random codecs exercise every
    // decline path too: kCharPack predicates, non-uniform pages, ...)
    ScanSpec pruned_spec = spec;
    pruned_spec.prune = true;
    {
      size_t ti = 0;
      for (const OpenTable* table : {&row_table, &col_table, &pax_table}) {
        ExecStats stats;
        ASSERT_OK_AND_ASSIGN(
            auto scan, MakeScanner(table, pruned_spec, &backend, &stats));
        ASSERT_OK_AND_ASSIGN(auto tuples, CollectTuples(scan.get()));
        ASSERT_EQ(tuples, row_tuples)
            << "query " << q << " pruned variant " << ti;
        ++ti;
      }
      ExecStats early_pruned_stats;
      ASSERT_OK_AND_ASSIGN(
          auto early_pruned,
          OpenScanner(col_table, pruned_spec, &backend, &early_pruned_stats,
                      ScannerImpl::kEarlyMat));
      ASSERT_OK_AND_ASSIGN(auto early_pruned_tuples,
                           CollectTuples(early_pruned.get()));
      ASSERT_EQ(early_pruned_tuples, row_tuples)
          << "query " << q << " (early mat pruned)";
    }

    // Cached-backend axis: every layout must produce identical results
    // when the scan populates a cold BlockCache (pass 0) and again when
    // it is served warm from that cache (pass 1). Stats invariance: the
    // cache may move bytes from the backend column to the cache column,
    // but the logical work (tuples examined, pages parsed) and the byte
    // total must equal the uncached run's, and a warm pass must leave
    // the backend untouched.
    row_stats.FoldIo();
    col_stats.FoldIo();
    pax_stats.FoldIo();
    const ExecCounters* uncached[] = {&row_stats.counters(),
                                      &col_stats.counters(),
                                      &pax_stats.counters()};
    BlockCache cache(64ULL << 20, 4);
    ScanSpec cached_spec = spec;
    cached_spec.read.cache = &cache;
    for (int pass = 0; pass < 2; ++pass) {
      size_t ti = 0;
      for (const OpenTable* table :
           {&row_table, &col_table, &pax_table}) {
        ExecStats stats;
        ASSERT_OK_AND_ASSIGN(
            auto scan, MakeScanner(table, cached_spec, &backend, &stats));
        ASSERT_OK_AND_ASSIGN(auto tuples, CollectTuples(scan.get()));
        ASSERT_EQ(tuples, row_tuples)
            << "query " << q << " cached pass " << pass;
        stats.FoldIo();
        const ExecCounters& c = stats.counters();
        const ExecCounters& u = *uncached[ti++];
        EXPECT_EQ(c.tuples_examined, u.tuples_examined)
            << "query " << q << " cached pass " << pass;
        EXPECT_EQ(c.pages_parsed, u.pages_parsed)
            << "query " << q << " cached pass " << pass;
        EXPECT_EQ(c.io_bytes_read + c.io_bytes_from_cache, u.io_bytes_read)
            << "query " << q << " cached pass " << pass;
        if (pass == 1) {
          EXPECT_EQ(c.io_bytes_read, 0u)
              << "query " << q << " warm pass hit the backend";
        }
      }
    }
    EXPECT_GT(cache.stats().hits, 0u) << "query " << q;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScannerEquivalenceTest,
                         ::testing::Range<uint64_t>(1, 13));

TEST(ScannerEquivalenceCompressedTest, CompressedAndPlainAgree) {
  // Compression must never change query results, only their cost.
  Random rng(99);
  TempDir dir;
  auto plain_schema = Schema::Make(
      {AttributeDesc::Int32("key"), AttributeDesc::Int32("qty"),
       AttributeDesc::Text("flag", 4)});
  auto z_schema = Schema::Make(
      {AttributeDesc::Int32("key", CodecSpec::ForDelta(8)),
       AttributeDesc::Int32("qty", CodecSpec::BitPack(6)),
       AttributeDesc::Text("flag", 4, CodecSpec::Dict(2))});
  ASSERT_OK(plain_schema.status());
  ASSERT_OK(z_schema.status());
  const char* flags[] = {"AAAA", "BBBB", "CCCC"};
  std::vector<std::vector<uint8_t>> tuples;
  int32_t key = 5000;
  for (int i = 0; i < 4000; ++i) {
    key += static_cast<int32_t>(rng.Uniform(2));
    std::vector<uint8_t> t(12);
    StoreLE32s(t.data(), key);
    StoreLE32s(t.data() + 4, static_cast<int32_t>(rng.Uniform(50)));
    std::memcpy(t.data() + 8, flags[rng.Uniform(3)], 4);
    tuples.push_back(std::move(t));
  }
  ASSERT_OK(LoadBothLayouts(dir.path(), "plain", *plain_schema, tuples));
  ASSERT_OK(LoadBothLayouts(dir.path(), "z", *z_schema, tuples));

  ScanSpec spec;
  spec.projection = {0, 1, 2};
  spec.predicates = {Predicate::Int32(1, CompareOp::kLt, 25)};
  FileBackend backend;
  std::vector<std::vector<std::vector<uint8_t>>> results;
  for (const char* name : {"plain_row", "plain_col", "z_row", "z_col"}) {
    ASSERT_OK_AND_ASSIGN(OpenTable table, OpenTable::Open(dir.path(), name));
    ExecStats stats;
    ASSERT_OK_AND_ASSIGN(auto scan,
                         MakeScanner(&table, spec, &backend, &stats));
    ASSERT_OK_AND_ASSIGN(auto out, CollectTuples(scan.get()));
    results.push_back(std::move(out));
  }
  for (size_t i = 1; i < results.size(); ++i) {
    ASSERT_EQ(results[i].size(), results[0].size());
    EXPECT_EQ(results[i], results[0]) << "variant " << i;
  }
}

TEST(ParallelEquivalenceTest, EveryLayoutAndCodecMatchesSerialChecksum) {
  // Morsel-parallel execution is a pure execution strategy: for every
  // layout x codec combination and any degree of parallelism the output
  // checksum must equal the serial Execute() checksum. Codecs whose
  // pages can close early (FOR, FOR-delta) may be recorded as
  // non-uniform, in which case PlanMorsels falls back to one morsel --
  // the answer still has to match.
  Random rng(7);
  TempDir dir;
  auto schema = Schema::Make({
      AttributeDesc::Int32("key", CodecSpec::ForDelta(8)),
      AttributeDesc::Int32("qty", CodecSpec::BitPack(6)),
      AttributeDesc::Int32("base", CodecSpec::For(16)),
      AttributeDesc::Int32("free"),
      AttributeDesc::Text("word", 8, CodecSpec::Dict(3)),
      AttributeDesc::Text("pack", 8, CodecSpec::CharPack(4, 8)),
  });
  ASSERT_OK(schema.status());
  const char* words[] = {"alpha   ", "beta    ", "gamma   ", "delta   ",
                         "epsilon ", "zeta    ", "eta     ", "theta   "};
  const char* packs[] = {"abc     ", "lmno    ", "ba      ", "omnb    "};
  std::vector<std::vector<uint8_t>> tuples;
  int32_t key = 100;
  int32_t base = 70000;
  for (int i = 0; i < 5000; ++i) {
    key += static_cast<int32_t>(rng.Uniform(40));
    base += static_cast<int32_t>(rng.Uniform(12));
    std::vector<uint8_t> t(32);
    StoreLE32s(t.data(), key);
    StoreLE32s(t.data() + 4, static_cast<int32_t>(rng.Uniform(60)));
    StoreLE32s(t.data() + 8, base);
    StoreLE32s(t.data() + 12,
               static_cast<int32_t>(rng.UniformRange(-90000, 90000)));
    std::memcpy(t.data() + 16, words[rng.Uniform(8)], 8);
    std::memcpy(t.data() + 24, packs[rng.Uniform(4)], 8);
    tuples.push_back(std::move(t));
  }
  ASSERT_OK(rodb::testing::LoadAllLayouts(dir.path(), "zz", *schema, tuples,
                                          1024));

  ScanSpec plain;
  plain.projection = {0, 1, 2, 3, 4, 5};
  plain.read.io_unit_bytes = 4096;
  ScanSpec filtered;
  filtered.projection = {5, 4, 0};
  filtered.predicates = {Predicate::Int32(1, CompareOp::kLt, 30),
                         Predicate::Text(4, CompareOp::kNe, "beta    ")};
  filtered.read.io_unit_bytes = 4096;

  FileBackend backend;
  for (Layout layout : {Layout::kRow, Layout::kColumn, Layout::kPax}) {
    ASSERT_OK_AND_ASSIGN(
        OpenTable table,
        OpenTable::Open(dir.path(), std::string("zz") +
                                        rodb::testing::LayoutSuffix(layout)));
    for (const ScanSpec& spec : {plain, filtered}) {
      ExecStats stats;
      ASSERT_OK_AND_ASSIGN(auto root,
                           OpenScanner(table, spec, &backend, &stats));
      ASSERT_OK_AND_ASSIGN(ExecutionResult serial,
                           Execute(root.get(), &stats));
      ParallelScanPlan plan;
      plan.table = &table;
      plan.spec = spec;
      plan.backend = &backend;
      for (int k : {1, 2, 4}) {
        ASSERT_OK_AND_ASSIGN(ParallelResult out, ParallelExecute(plan, k));
        EXPECT_EQ(out.result.rows, serial.rows)
            << rodb::testing::LayoutSuffix(layout) << " k=" << k;
        EXPECT_EQ(out.result.output_checksum, serial.output_checksum)
            << rodb::testing::LayoutSuffix(layout) << " k=" << k;
        // Stats invariance: parallelism is an execution strategy, not a
        // different query, so the logical row count is always identical
        // and single-file layouts partition bytes and pages exactly. A
        // column morsel boundary is row-aligned, but each column file
        // has its own page capacity and I/O-unit phase, so every one of
        // the k-1 interior splits may re-parse at most one page and
        // re-read at most one boundary unit per pipeline file.
        EXPECT_EQ(out.counters.tuples_examined,
                  stats.counters().tuples_examined)
            << rodb::testing::LayoutSuffix(layout) << " k=" << k;
        const uint64_t serial_pages = stats.counters().pages_parsed;
        const uint64_t serial_bytes = stats.counters().io_bytes_read;
        if (layout == Layout::kColumn && k > 1) {
          const uint64_t splits = static_cast<uint64_t>(k - 1);
          const uint64_t files = ScanPipelineAttrs(spec).size();
          EXPECT_GE(out.counters.pages_parsed, serial_pages)
              << rodb::testing::LayoutSuffix(layout) << " k=" << k;
          EXPECT_LE(out.counters.pages_parsed, serial_pages + splits * files)
              << rodb::testing::LayoutSuffix(layout) << " k=" << k;
          EXPECT_GE(out.counters.io_bytes_read, serial_bytes)
              << rodb::testing::LayoutSuffix(layout) << " k=" << k;
          EXPECT_LE(out.counters.io_bytes_read,
                    serial_bytes + splits * files * spec.read.io_unit_bytes)
              << rodb::testing::LayoutSuffix(layout) << " k=" << k;
        } else {
          EXPECT_EQ(out.counters.pages_parsed, serial_pages)
              << rodb::testing::LayoutSuffix(layout) << " k=" << k;
          EXPECT_EQ(out.counters.io_bytes_read, serial_bytes)
              << rodb::testing::LayoutSuffix(layout) << " k=" << k;
        }
      }
    }
  }
}

}  // namespace
}  // namespace rodb
