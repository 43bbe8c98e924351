#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/file_util.h"
#include "io/durable_file.h"
#include "storage/catalog.h"
#include "storage/table_files.h"
#include "test_util.h"

namespace rodb {
namespace {

Schema SmallSchema(bool compressed) {
  std::vector<AttributeDesc> attrs = {
      AttributeDesc::Int32("id", compressed ? CodecSpec::ForDelta(8)
                                            : CodecSpec::None()),
      AttributeDesc::Text("flag", 1,
                          compressed ? CodecSpec::Dict(2) : CodecSpec::None()),
      AttributeDesc::Int32("val"),
  };
  auto schema = Schema::Make(std::move(attrs));
  EXPECT_TRUE(schema.ok());
  return std::move(schema).value();
}

std::vector<uint8_t> SmallTuple(int32_t id, char flag, int32_t val) {
  std::vector<uint8_t> t(9);
  StoreLE32s(t.data(), id);
  t[4] = static_cast<uint8_t>(flag);
  StoreLE32s(t.data() + 5, val);
  return t;
}

class TableFilesTest : public ::testing::TestWithParam<
                           std::pair<Layout, bool>> {};

TEST_P(TableFilesTest, WriteLoadRoundTrip) {
  const auto [layout, compressed] = GetParam();
  testing::TempDir dir;
  Schema schema = SmallSchema(compressed);
  ASSERT_OK_AND_ASSIGN(
      auto writer,
      TableWriter::Create(dir.path(), "t", schema, layout, 1024));
  const int kTuples = 5000;
  for (int i = 0; i < kTuples; ++i) {
    auto t = SmallTuple(1000 + i, "ABC"[i % 3], i * 3);
    ASSERT_OK(writer->Append(t.data()));
  }
  EXPECT_EQ(writer->num_tuples(), static_cast<uint64_t>(kTuples));
  ASSERT_OK(writer->Finish());

  ASSERT_OK_AND_ASSIGN(OpenTable table, OpenTable::Open(dir.path(), "t"));
  EXPECT_EQ(table.meta().num_tuples, static_cast<uint64_t>(kTuples));
  EXPECT_EQ(table.meta().layout, layout);
  EXPECT_EQ(table.meta().page_size, 1024u);
  const size_t expected_files =
      layout == Layout::kRow ? 1 : schema.num_attributes();
  EXPECT_EQ(table.meta().file_pages.size(), expected_files);
  for (size_t i = 0; i < expected_files; ++i) {
    EXPECT_GT(table.meta().file_pages[i], 0u);
    EXPECT_EQ(table.meta().file_bytes[i], table.meta().file_pages[i] * 1024);
    EXPECT_TRUE(FileExists(table.FilePath(i)));
  }
  if (compressed) {
    EXPECT_NE(table.dict(1), nullptr);
    EXPECT_EQ(table.dict(1)->size(), 3u);
  } else {
    EXPECT_EQ(table.dict(1), nullptr);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, TableFilesTest,
    ::testing::Values(std::pair{Layout::kRow, false},
                      std::pair{Layout::kRow, true},
                      std::pair{Layout::kColumn, false},
                      std::pair{Layout::kColumn, true}));

TEST(TableWriterTest, CompressedColumnSmallerThanUncompressed) {
  testing::TempDir dir;
  for (bool compressed : {false, true}) {
    Schema schema = SmallSchema(compressed);
    const std::string name = compressed ? "z" : "plain";
    ASSERT_OK_AND_ASSIGN(auto writer,
                         TableWriter::Create(dir.path(), name, schema,
                                             Layout::kColumn, 4096));
    for (int i = 0; i < 20000; ++i) {
      auto t = SmallTuple(i, "AB"[i % 2], i);
      ASSERT_OK(writer->Append(t.data()));
    }
    ASSERT_OK(writer->Finish());
  }
  ASSERT_OK_AND_ASSIGN(OpenTable plain, OpenTable::Open(dir.path(), "plain"));
  ASSERT_OK_AND_ASSIGN(OpenTable z, OpenTable::Open(dir.path(), "z"));
  // id: 32 bits -> 8 bits, flag: 8 bits -> 2 bits.
  EXPECT_LT(z.FileBytes(0), plain.FileBytes(0) / 3);
  EXPECT_LT(z.FileBytes(1), plain.FileBytes(1) / 2);
  // Uncompressed column untouched.
  EXPECT_EQ(z.FileBytes(2), plain.FileBytes(2));
}

TEST(TableWriterTest, RejectsUnencodableTuple) {
  testing::TempDir dir;
  auto schema_result =
      Schema::Make({AttributeDesc::Int32("q", CodecSpec::BitPack(4))});
  ASSERT_OK(schema_result.status());
  ASSERT_OK_AND_ASSIGN(auto writer,
                       TableWriter::Create(dir.path(), "bad",
                                           *schema_result, Layout::kRow));
  uint8_t tuple[4];
  StoreLE32s(tuple, 16);
  EXPECT_TRUE(writer->Append(tuple).IsInvalidArgument());
}

TEST(TableWriterTest, DoubleFinishRejected) {
  testing::TempDir dir;
  Schema schema = SmallSchema(false);
  ASSERT_OK_AND_ASSIGN(
      auto writer,
      TableWriter::Create(dir.path(), "t", schema, Layout::kRow));
  ASSERT_OK(writer->Finish());
  EXPECT_FALSE(writer->Finish().ok());
  EXPECT_FALSE(writer->Append(nullptr).ok());
}

TEST(CatalogTest, LoadMissingTableFails) {
  testing::TempDir dir;
  EXPECT_FALSE(Catalog::LoadTableMeta(dir.path(), "ghost").ok());
  EXPECT_FALSE(OpenTable::Open(dir.path(), "ghost").ok());
}

TEST(CatalogTest, RejectsTamperedMeta) {
  testing::TempDir dir;
  Schema schema = SmallSchema(false);
  ASSERT_OK_AND_ASSIGN(
      auto writer,
      TableWriter::Create(dir.path(), "t", schema, Layout::kRow));
  ASSERT_OK(writer->Finish());
  ASSERT_OK(WriteStringToFile(TablePaths::MetaFile(dir.path(), "t"),
                              "name t\nlayout diagonal\n"));
  EXPECT_TRUE(Catalog::LoadTableMeta(dir.path(), "t").status().IsCorruption());
}

TEST(CatalogTest, MetaSurvivesRoundTripExactly) {
  testing::TempDir dir;
  Schema schema = SmallSchema(true);
  TableMeta meta;
  meta.name = "roundtrip";
  meta.layout = Layout::kColumn;
  meta.page_size = 8192;
  meta.num_tuples = 123456789;
  meta.schema = schema;
  meta.file_pages = {10, 20, 30};
  meta.file_bytes = {81920, 163840, 245760};
  ASSERT_OK(Catalog::SaveTableMeta(dir.path(), meta));
  ASSERT_OK_AND_ASSIGN(TableMeta loaded,
                       Catalog::LoadTableMeta(dir.path(), "roundtrip"));
  EXPECT_EQ(loaded.layout, Layout::kColumn);
  EXPECT_EQ(loaded.page_size, 8192u);
  EXPECT_EQ(loaded.num_tuples, 123456789u);
  EXPECT_EQ(loaded.file_pages, meta.file_pages);
  EXPECT_EQ(loaded.file_bytes, meta.file_bytes);
  EXPECT_EQ(loaded.TotalBytes(), 81920u + 163840 + 245760);
  EXPECT_EQ(loaded.schema.num_attributes(), schema.num_attributes());
}

// --- PartitionFile (morsel partitioner) ---

uint64_t CoveredBytes(const std::vector<FilePartition>& parts) {
  uint64_t total = 0;
  for (const FilePartition& p : parts) total += p.length;
  return total;
}

/// Passes the first `budget` removals to the real filesystem and drops
/// the rest, like a process killed between two unlinks.
class DyingEnv : public DurableEnv {
 public:
  explicit DyingEnv(int budget) : budget_(budget) {}
  Result<std::unique_ptr<DurableFile>> Create(const std::string& path) override {
    return DurableEnv::Posix()->Create(path);
  }
  Status Rename(const std::string& from, const std::string& to) override {
    return DurableEnv::Posix()->Rename(from, to);
  }
  Status SyncDir(const std::string& dir) override {
    return DurableEnv::Posix()->SyncDir(dir);
  }
  Status Remove(const std::string& path) override {
    if (budget_-- <= 0) return Status::IoError("killed");
    return DurableEnv::Posix()->Remove(path);
  }

 private:
  int budget_;
};

TEST(RemoveTableFilesTest, RemovalCutShortIsFinishedByTheNextCall) {
  // A crash may stop RemoveTableFiles after any unlink (segment
  // retirement and the orphan sweep both run it); the recovery sweep's
  // call must then remove whatever survived, column files included.
  const Schema schema = SmallSchema(/*compressed=*/true);
  for (int budget = 0; budget <= 12; ++budget) {
    SCOPED_TRACE("removals before the crash: " + std::to_string(budget));
    testing::TempDir dir;
    ASSERT_OK_AND_ASSIGN(auto writer,
                         TableWriter::Create(dir.path(), "t", schema,
                                             Layout::kColumn, 512));
    for (int i = 0; i < 300; ++i) {
      ASSERT_OK(writer->Append(SmallTuple(i, i % 2 ? 'A' : 'B', i).data()));
    }
    ASSERT_OK(writer->Finish());
    DyingEnv dying(budget);
    RemoveTableFiles(dir.path(), "t", &dying);
    RemoveTableFiles(dir.path(), "t");
    for (const auto& entry :
         std::filesystem::directory_iterator(dir.path())) {
      ADD_FAILURE() << "survived: " << entry.path().filename().string();
    }
  }
}

TEST(PartitionFileTest, EvenSplitCoversFileContiguously) {
  const size_t kPage = 1024;
  const auto parts = PartitionFile(12 * kPage, kPage, 4);
  ASSERT_EQ(parts.size(), 4u);
  uint64_t next_page = 0;
  for (const FilePartition& p : parts) {
    EXPECT_EQ(p.first_page, next_page);
    EXPECT_EQ(p.num_pages, 3u);
    EXPECT_EQ(p.start_offset, p.first_page * kPage);
    EXPECT_EQ(p.length, p.num_pages * kPage);
    next_page += p.num_pages;
  }
  EXPECT_EQ(next_page, 12u);
  EXPECT_EQ(CoveredBytes(parts), 12 * kPage);
}

TEST(PartitionFileTest, NonMultipleSizesDifferByAtMostOnePage) {
  const size_t kPage = 512;
  const auto parts = PartitionFile(10 * kPage, kPage, 4);  // 10 = 3+3+2+2
  ASSERT_EQ(parts.size(), 4u);
  uint64_t min_pages = UINT64_MAX, max_pages = 0, pages = 0;
  for (const FilePartition& p : parts) {
    min_pages = std::min(min_pages, p.num_pages);
    max_pages = std::max(max_pages, p.num_pages);
    pages += p.num_pages;
  }
  EXPECT_EQ(pages, 10u);
  EXPECT_LE(max_pages - min_pages, 1u);
  EXPECT_EQ(CoveredBytes(parts), 10 * kPage);
}

TEST(PartitionFileTest, MorePartitionsThanPagesClampsToPages) {
  const auto parts = PartitionFile(3 * 1024, 1024, 8);
  ASSERT_EQ(parts.size(), 3u);
  for (const FilePartition& p : parts) EXPECT_EQ(p.num_pages, 1u);
}

TEST(PartitionFileTest, TinyFileYieldsOneSubPagePartition) {
  const auto parts = PartitionFile(100, 1024, 4);
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0].start_offset, 0u);
  EXPECT_EQ(parts[0].length, 100u);
}

TEST(PartitionFileTest, EmptyFileYieldsNoPartitions) {
  EXPECT_TRUE(PartitionFile(0, 1024, 4).empty());
}

TEST(PartitionFileTest, NonPositiveKBehavesAsOne) {
  const auto parts = PartitionFile(5 * 1024, 1024, 0);
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0].num_pages, 5u);
  EXPECT_EQ(CoveredBytes(parts), 5 * 1024u);
}

TEST(PartitionFileTest, LastPartitionAbsorbsTrailingFragment) {
  const auto parts = PartitionFile(4 * 1024 + 100, 1024, 2);
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0].length, 2 * 1024u);
  EXPECT_EQ(parts[1].length, 2 * 1024u + 100);
  EXPECT_EQ(CoveredBytes(parts), 4 * 1024u + 100);
}

// --- uniform page value counts in the catalog ---

TEST(PageValuesTest, BulkLoadRecordsUniformCounts) {
  // Uncompressed tables pack a fixed number of values per page, so every
  // file must come back with a non-zero per-page count that explains the
  // total tuple count.
  testing::TempDir dir;
  Schema schema = SmallSchema(false);
  for (Layout layout : {Layout::kRow, Layout::kColumn, Layout::kPax}) {
    const std::string name =
        std::string("u_") + std::string(LayoutName(layout));
    ASSERT_OK_AND_ASSIGN(
        auto writer,
        TableWriter::Create(dir.path(), name, schema, layout, 1024));
    for (int i = 0; i < 5000; ++i) {
      auto t = SmallTuple(1000 + i, "ABC"[i % 3], i * 3);
      ASSERT_OK(writer->Append(t.data()));
    }
    ASSERT_OK(writer->Finish());
    ASSERT_OK_AND_ASSIGN(OpenTable table, OpenTable::Open(dir.path(), name));
    const TableMeta& meta = table.meta();
    ASSERT_EQ(meta.file_page_values.size(), meta.file_pages.size());
    for (size_t f = 0; f < meta.file_pages.size(); ++f) {
      const uint32_t vpp = meta.PageValues(f);
      ASSERT_GT(vpp, 0u) << name << " file " << f;
      // All pages except the last are full.
      EXPECT_EQ((meta.num_tuples + vpp - 1) / vpp, meta.file_pages[f])
          << name << " file " << f;
    }
  }
}

TEST(PageValuesTest, EarlySealedForPagesReportNonUniform) {
  // A frame-of-reference rebase seals a page short of the page-size
  // capacity, so a later page (including the final one) can hold MORE
  // values than the first. Position -> page division is unsound for such
  // a file; the catalog must report 0 ("non-uniform") so morsel carving
  // falls back to serial and the zone pruner declines. Regression: the
  // writer used to excuse any count mismatch on the final flush, leaving
  // a stride of 10 for a 10+50 file and sending ranged scans past EOF.
  testing::TempDir dir;
  std::vector<AttributeDesc> attrs = {
      AttributeDesc::Int32("v", CodecSpec::For(8)),
  };
  ASSERT_OK_AND_ASSIGN(Schema schema, Schema::Make(std::move(attrs)));
  ASSERT_OK_AND_ASSIGN(
      auto writer,
      TableWriter::Create(dir.path(), "t", schema, Layout::kColumn, 4096));
  std::vector<uint8_t> t(4);
  // Page 0: base 100000, 10 values in frame.
  for (int i = 0; i < 10; ++i) {
    StoreLE32s(t.data(), 100000 + i);
    ASSERT_OK(writer->Append(t.data()));
  }
  // 50000 falls below the base: the codec rebases onto a fresh page,
  // which then absorbs 50 values -- five times the first page's count.
  for (int i = 0; i < 50; ++i) {
    StoreLE32s(t.data(), 50000 + i);
    ASSERT_OK(writer->Append(t.data()));
  }
  ASSERT_OK(writer->Finish());
  ASSERT_OK_AND_ASSIGN(OpenTable table, OpenTable::Open(dir.path(), "t"));
  ASSERT_EQ(table.meta().file_pages[0], 2u);
  EXPECT_EQ(table.meta().PageValues(0), 0u);
}

TEST(PageValuesTest, MetaWithoutPagevalsSectionReportsUnknown) {
  // Metas written before the pagevals section existed load fine and
  // report 0 ("unknown") so partitioned scans fall back to serial.
  testing::TempDir dir;
  Schema schema = SmallSchema(false);
  ASSERT_OK_AND_ASSIGN(
      auto writer,
      TableWriter::Create(dir.path(), "old", schema, Layout::kRow, 1024));
  auto t = SmallTuple(1, 'A', 2);
  ASSERT_OK(writer->Append(t.data()));
  ASSERT_OK(writer->Finish());
  ASSERT_OK_AND_ASSIGN(std::string text, ReadFileToString(
                           TablePaths::MetaFile(dir.path(), "old")));
  const size_t cut = text.find("pagevals");
  ASSERT_NE(cut, std::string::npos);
  ASSERT_OK(WriteStringToFile(TablePaths::MetaFile(dir.path(), "old"),
                              text.substr(0, cut)));
  ASSERT_OK_AND_ASSIGN(TableMeta meta,
                       Catalog::LoadTableMeta(dir.path(), "old"));
  EXPECT_EQ(meta.PageValues(0), 0u);
  EXPECT_EQ(meta.PageValues(99), 0u);  // out of range is also "unknown"
}

}  // namespace
}  // namespace rodb
