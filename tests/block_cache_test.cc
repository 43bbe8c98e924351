// BlockCache unit behaviour (capacity, eviction order, sharding,
// pinning, concurrency) and CachingBackend end-to-end behaviour: warm
// scans re-issue almost no backend I/O, results are identical cold and
// warm, and faults below the cache surface as Status errors -- never as
// stale cached garbage.

#include "io/block_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "engine/executor.h"
#include "engine/open_scanner.h"
#include "io/fault_injection.h"
#include "io/file_backend.h"
#include "io/mem_backend.h"
#include "scan_test_util.h"

namespace rodb {
namespace {

using rodb::testing::CollectTuples;
using rodb::testing::MakeScanner;
using rodb::testing::TempDir;

BlockCache::BlockHandle MakeBlock(size_t size, uint8_t fill) {
  UnitBuffer buffer = AcquireUnitBuffer(size);
  std::memset(buffer.get(), fill, size);
  return std::make_shared<const CachedBlock>(std::move(buffer), size);
}

TEST(BlockCacheTest, LookupMissThenHit) {
  BlockCache cache(1 << 20, 1);
  EXPECT_EQ(cache.Lookup(1, 0, 10), nullptr);
  cache.Insert(1, 0, MakeBlock(100, 0xab));
  auto hit = cache.Lookup(1, 0, 100);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->size(), 100u);
  EXPECT_EQ(hit->data()[0], 0xab);
  // Same offset, different file: independent key.
  EXPECT_EQ(cache.Lookup(2, 0, 1), nullptr);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes_in_use, 100u);
  EXPECT_EQ(stats.inserted_bytes, 100u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 1.0 / 3.0);
}

TEST(BlockCacheTest, MinSizeGatesHits) {
  BlockCache cache(1 << 20, 1);
  cache.Insert(1, 0, MakeBlock(64, 1));
  // A larger cached block serves a smaller request (prefix read)...
  EXPECT_NE(cache.Lookup(1, 0, 32), nullptr);
  // ...but a short block cannot serve a longer request.
  EXPECT_EQ(cache.Lookup(1, 0, 65), nullptr);
}

TEST(BlockCacheTest, EvictsLeastRecentlyUsed) {
  // Single shard, room for exactly three 100-byte blocks.
  BlockCache cache(300, 1);
  cache.Insert(1, 0, MakeBlock(100, 0));
  cache.Insert(1, 100, MakeBlock(100, 1));
  cache.Insert(1, 200, MakeBlock(100, 2));
  EXPECT_EQ(cache.stats().entries, 3u);
  // Touch the oldest so it becomes most-recently-used.
  EXPECT_NE(cache.Lookup(1, 0, 100), nullptr);
  // A fourth block must evict the now-least-recent (offset 100).
  cache.Insert(1, 300, MakeBlock(100, 3));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_NE(cache.Lookup(1, 0, 100), nullptr);
  EXPECT_EQ(cache.Lookup(1, 100, 100), nullptr);
  EXPECT_NE(cache.Lookup(1, 200, 100), nullptr);
  EXPECT_NE(cache.Lookup(1, 300, 100), nullptr);
  EXPECT_LE(cache.stats().bytes_in_use, 300u);
}

TEST(BlockCacheTest, ReplacementKeepsByteAccounting) {
  BlockCache cache(1 << 20, 1);
  cache.Insert(7, 42, MakeBlock(100, 0));
  cache.Insert(7, 42, MakeBlock(250, 1));  // replace, not duplicate
  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes_in_use, 250u);
  EXPECT_EQ(stats.inserted_bytes, 350u);
  auto hit = cache.Lookup(7, 42, 250);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->data()[0], 1);
}

TEST(BlockCacheTest, OversizedBlockRefused) {
  // 4 shards x 256 bytes each: a 300-byte block can never fit one shard.
  BlockCache cache(1024, 4);
  cache.Insert(1, 0, MakeBlock(300, 0));
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.Lookup(1, 0, 1), nullptr);
}

TEST(BlockCacheTest, EvictionCannotFreePinnedBlock) {
  BlockCache cache(100, 1);
  cache.Insert(1, 0, MakeBlock(100, 0xcd));
  auto pinned = cache.Lookup(1, 0, 100);
  ASSERT_NE(pinned, nullptr);
  // Evict it by inserting a different full-shard block.
  cache.Insert(1, 100, MakeBlock(100, 0));
  EXPECT_EQ(cache.Lookup(1, 0, 100), nullptr);
  // The handle still owns the bytes.
  EXPECT_EQ(pinned->size(), 100u);
  EXPECT_EQ(pinned->data()[99], 0xcd);
}

TEST(BlockCacheTest, ShardingSpreadsKeysAndClearResets) {
  BlockCache cache(16 << 20, 8);
  for (uint64_t off = 0; off < 128; ++off) {
    cache.Insert(3, off * 4096, MakeBlock(4096, static_cast<uint8_t>(off)));
  }
  EXPECT_EQ(cache.stats().entries, 128u);
  EXPECT_EQ(cache.stats().evictions, 0u);  // spread keys, nothing spilled
  cache.RecordFileSize(3, 128 * 4096);
  ASSERT_TRUE(cache.KnownFileSize(3).has_value());
  cache.Clear();
  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes_in_use, 0u);
  EXPECT_EQ(stats.hits + stats.misses, 0u);
  EXPECT_FALSE(cache.KnownFileSize(3).has_value());
}

TEST(BlockCacheTest, ConcurrentReadersAndWriters) {
  // Hammer one cache from many threads mixing lookups and inserts over a
  // shared key range. Run under TSan to check the shard locking; the
  // in-process asserts check nothing structurally tears.
  BlockCache cache(1 << 20, 4);
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 2000;
  std::atomic<uint64_t> observed_hits{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &observed_hits, t] {
      uint64_t hits = 0;
      for (int i = 0; i < kOpsPerThread; ++i) {
        const uint64_t file = static_cast<uint64_t>(1 + (i + t) % 3);
        const uint64_t offset = static_cast<uint64_t>((i * 37 + t) % 64)
                                << 12;
        auto handle = cache.Lookup(file, offset, 256);
        if (handle != nullptr) {
          hits += handle->data()[0];  // touch the pinned bytes
        } else {
          cache.Insert(file, offset, MakeBlock(256, 1));
        }
        if (i % 64 == 0) cache.RecordFileSize(file, 64 << 12);
      }
      observed_hits.fetch_add(hits);
    });
  }
  for (auto& thread : threads) thread.join();
  const auto stats = cache.stats();
  EXPECT_GT(observed_hits.load(), 0u);
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_LE(stats.bytes_in_use, cache.capacity_bytes());
}

// ---------------------------------------------------------------------------
// CachingStream read-ahead

/// Passes streams through, logging the range of every OpenStream.
class RecordingBackend : public IoBackend {
 public:
  explicit RecordingBackend(IoBackend* inner) : inner_(inner) {}

  Result<std::unique_ptr<SequentialStream>> OpenStream(
      const std::string& path, const IoOptions& options) override {
    ranges.emplace_back(options.start_offset, options.length);
    return inner_->OpenStream(path, options);
  }

  std::vector<std::pair<uint64_t, uint64_t>> ranges;  ///< (start, length)

 private:
  IoBackend* inner_;
};

TEST(CachingStreamTest, MissesReadAheadOnlyWhatTheCacheLacks) {
  // A miss opens the inner stream over the run of units the cache lacks,
  // at most prefetch_depth long, never over the rest of the range: with
  // every other unit cached, the backend is asked for exactly the missed
  // units. With none cached (size known, so no eager whole-range open),
  // the bounded inner streams follow one another to the end.
  constexpr size_t kUnit = 4096;
  constexpr uint64_t kUnits = 10;
  constexpr uint64_t kFileId = 77;
  std::vector<uint8_t> data(kUnits * kUnit);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 131 + (i >> 12));
  }
  MemBackend mem;
  mem.PutFile("f", data);
  for (const bool half_warm : {true, false}) {
    SCOPED_TRACE(half_warm ? "every other unit cached" : "none cached");
    BlockCache cache(1 << 20, 4);
    cache.RecordFileSize(kFileId, data.size());
    for (uint64_t u = 0; half_warm && u < kUnits; u += 2) {
      UnitBuffer buffer = AcquireUnitBuffer(kUnit);
      std::memcpy(buffer.get(), data.data() + u * kUnit, kUnit);
      cache.Insert(kFileId, u * kUnit,
                   std::make_shared<const CachedBlock>(std::move(buffer),
                                                       kUnit));
    }
    RecordingBackend recording(&mem);
    CachingBackend caching(&recording, &cache);
    IoStats stats;
    IoOptions options;
    options.read.io_unit_bytes = kUnit;
    options.read.prefetch_depth = 4;
    options.read.stats = &stats;
    options.file_id = kFileId;
    ASSERT_OK_AND_ASSIGN(auto stream, caching.OpenStream("f", options));
    std::vector<uint8_t> bytes;
    while (true) {
      ASSERT_OK_AND_ASSIGN(IoView view, stream->Next());
      if (view.size == 0) break;
      EXPECT_EQ(view.file_offset, bytes.size());
      bytes.insert(bytes.end(), view.data, view.data + view.size);
    }
    EXPECT_EQ(bytes, data);
    EXPECT_EQ(stats.cache_hits + stats.cache_misses, kUnits);
    EXPECT_EQ(stats.cache_hits, half_warm ? kUnits / 2 : 0u);
    EXPECT_EQ(stats.files_opened, 1u);
    uint64_t inner_bytes = 0;
    for (const auto& [start, length] : recording.ranges) {
      EXPECT_EQ(start % kUnit, 0u);
      inner_bytes += length;
    }
    EXPECT_EQ(inner_bytes, stats.cache_misses * kUnit);
    EXPECT_EQ(stats.bytes_read, stats.cache_misses * kUnit);
  }
}

// ---------------------------------------------------------------------------
// CachingBackend end-to-end

class CachingBackendTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto schema = Schema::Make({AttributeDesc::Int32("key"),
                                AttributeDesc::Int32("qty"),
                                AttributeDesc::Text("tag", 4)});
    ASSERT_OK(schema.status());
    schema_ = std::move(schema).value();
    for (int i = 0; i < 2500; ++i) {
      std::vector<uint8_t> t(12);
      StoreLE32s(t.data(), i);
      StoreLE32s(t.data() + 4, i % 97);
      std::memcpy(t.data() + 8, i % 2 == 0 ? "even" : "odd ", 4);
      tuples_.push_back(std::move(t));
    }
    ASSERT_OK(rodb::testing::LoadAllLayouts(dir_.path(), "t", schema_,
                                            tuples_, 1024));
  }

  ScanSpec BaseSpec() const {
    ScanSpec spec;
    spec.projection = {0, 1, 2};
    spec.read.io_unit_bytes = 4096;
    return spec;
  }

  static uint64_t TotalBackendBytes(const TracingBackend& tracing) {
    uint64_t bytes = 0;
    for (const std::string& path : tracing.Paths()) {
      bytes += tracing.Trace(path).bytes;
    }
    return bytes;
  }

  TempDir dir_;
  Schema schema_;
  std::vector<std::vector<uint8_t>> tuples_;
};

TEST_F(CachingBackendTest, WarmScanIssuesAlmostNoBackendIo) {
  // The headline property: with a cache sized to the table, a repeated
  // full scan issues at least 10x fewer backend bytes than the cold
  // scan -- here, in fact, zero (the file-size registry even spares the
  // open). Checked for every layout through the tracing backend.
  for (const char* name : {"t_row", "t_col", "t_pax"}) {
    ASSERT_OK_AND_ASSIGN(OpenTable table, OpenTable::Open(dir_.path(), name));
    FileBackend file_backend;
    TracingBackend tracing(&file_backend);
    BlockCache cache(64ULL << 20, 4);
    ScanSpec spec = BaseSpec();
    spec.read.cache = &cache;

    ExecStats cold_stats;
    ASSERT_OK_AND_ASSIGN(auto cold_scan,
                         MakeScanner(&table, spec, &tracing, &cold_stats));
    ASSERT_OK_AND_ASSIGN(auto cold_tuples, CollectTuples(cold_scan.get()));
    const uint64_t cold_bytes = TotalBackendBytes(tracing);
    const uint64_t cold_opens = tracing.total_opens();
    ASSERT_GT(cold_bytes, 0u) << name;
    EXPECT_EQ(cold_stats.counters().io_bytes_from_cache, 0u) << name;
    EXPECT_GT(cold_stats.counters().io_cache_misses, 0u) << name;

    ExecStats warm_stats;
    ASSERT_OK_AND_ASSIGN(auto warm_scan,
                         MakeScanner(&table, spec, &tracing, &warm_stats));
    ASSERT_OK_AND_ASSIGN(auto warm_tuples, CollectTuples(warm_scan.get()));
    const uint64_t warm_bytes = TotalBackendBytes(tracing) - cold_bytes;

    EXPECT_EQ(warm_tuples, cold_tuples) << name;
    EXPECT_EQ(tuples_.size(), cold_tuples.size()) << name;
    EXPECT_GE(cold_bytes, 10 * std::max<uint64_t>(warm_bytes, 1)) << name;
    EXPECT_EQ(warm_bytes, 0u) << name;
    EXPECT_EQ(tracing.total_opens(), cold_opens)
        << name << ": warm scan reopened the backend";
    EXPECT_EQ(warm_stats.counters().io_bytes_read, 0u) << name;
    EXPECT_GT(warm_stats.counters().io_bytes_from_cache, 0u) << name;
    EXPECT_EQ(warm_stats.counters().io_cache_misses, 0u) << name;
    EXPECT_GT(cache.stats().hit_rate(), 0.0) << name;
  }
}

TEST_F(CachingBackendTest, CacheBytesFeedTheTimingModel) {
  // Warm runs must model as CPU-bound: CacheAdjustedStreams drops the
  // stream set to the backend fraction, which is zero when fully warm.
  ASSERT_OK_AND_ASSIGN(OpenTable table, OpenTable::Open(dir_.path(), "t_row"));
  FileBackend backend;
  BlockCache cache(64ULL << 20, 4);
  ScanSpec spec = BaseSpec();
  spec.read.cache = &cache;
  for (int pass = 0; pass < 2; ++pass) {
    ExecStats stats;
    ASSERT_OK_AND_ASSIGN(auto scan,
                         MakeScanner(&table, spec, &backend, &stats));
    ASSERT_OK_AND_ASSIGN(auto tuples, CollectTuples(scan.get()));
    ASSERT_EQ(tuples.size(), tuples_.size());
    const auto streams =
        CacheAdjustedStreams(ScanStreams(table, spec), stats.counters());
    if (pass == 0) {
      EXPECT_FALSE(streams.empty());
    } else {
      EXPECT_TRUE(streams.empty());  // zero backend bytes -> no disk streams
    }
  }
}

TEST_F(CachingBackendTest, RangedAndFullScansShareTheCache) {
  // A page-range scan over a warm cache must read its slice of the same
  // blocks and return exactly the full scan's middle pages.
  ASSERT_OK_AND_ASSIGN(OpenTable table, OpenTable::Open(dir_.path(), "t_row"));
  FileBackend backend;
  BlockCache cache(64ULL << 20, 4);
  ScanSpec spec = BaseSpec();
  spec.read.cache = &cache;
  ExecStats full_stats;
  ASSERT_OK_AND_ASSIGN(auto full_scan,
                       MakeScanner(&table, spec, &backend, &full_stats));
  ASSERT_OK_AND_ASSIGN(auto full_tuples, CollectTuples(full_scan.get()));

  ScanSpec ranged = spec;
  ranged.range = ScanRange::Pages(4, 8);
  ExecStats ranged_stats;
  ASSERT_OK_AND_ASSIGN(auto ranged_scan,
                       MakeScanner(&table, ranged, &backend, &ranged_stats));
  ASSERT_OK_AND_ASSIGN(auto ranged_tuples, CollectTuples(ranged_scan.get()));
  const uint32_t per_page = table.meta().PageValues(0);
  ASSERT_GT(per_page, 0u);
  ASSERT_EQ(ranged_tuples.size(), 8u * per_page);
  for (size_t i = 0; i < ranged_tuples.size(); ++i) {
    EXPECT_EQ(ranged_tuples[i], full_tuples[4u * per_page + i]) << i;
  }
  // Page 4 starts at offset 4096 with a 1024-byte page: unit-aligned, so
  // the warm range scan is served fully from cache.
  EXPECT_EQ(ranged_stats.counters().io_bytes_read, 0u);
  EXPECT_GT(ranged_stats.counters().io_bytes_from_cache, 0u);
}

TEST_F(CachingBackendTest, PartiallyWarmScanCountsOneFileOpen) {
  // Regression: a scan over a partially warm cache alternates hits and
  // misses, and every hit run advances the stream past the inner
  // backend's cursor, forcing a reopen of the SAME logical file at the
  // next miss. Each reopen used to count files_opened again, so one
  // one-file scan reported several opens. It must report exactly one.
  ASSERT_OK_AND_ASSIGN(OpenTable table, OpenTable::Open(dir_.path(), "t_row"));
  FileBackend backend;
  BlockCache cache(64ULL << 20, 4);
  ScanSpec spec = BaseSpec();
  spec.read.cache = &cache;

  // Warm two disjoint unit-aligned stretches in the middle of the file
  // (pages are 1024 bytes, the I/O unit 4096, so 8 pages = 2 units).
  for (const uint64_t first_page : {4, 16}) {
    ScanSpec ranged = spec;
    ranged.range = ScanRange::Pages(first_page, 8);
    ExecStats warm_stats;
    ASSERT_OK_AND_ASSIGN(auto warm_scan,
                         MakeScanner(&table, ranged, &backend, &warm_stats));
    ASSERT_OK(CollectTuples(warm_scan.get()).status());
  }

  ExecStats stats;
  ASSERT_OK_AND_ASSIGN(auto scan, MakeScanner(&table, spec, &backend, &stats));
  ASSERT_OK_AND_ASSIGN(auto tuples, CollectTuples(scan.get()));
  EXPECT_EQ(tuples.size(), tuples_.size());
  stats.FoldIo();
  const ExecCounters& c = stats.counters();
  // The scan is genuinely mixed: both the backend and the cache served
  // bytes, so the stream really did reopen around the warm stretches.
  EXPECT_GT(c.io_bytes_read, 0u);
  EXPECT_GT(c.io_bytes_from_cache, 0u);
  EXPECT_GT(c.io_cache_hits, 0u);
  EXPECT_GT(c.io_cache_misses, 0u);
  EXPECT_EQ(c.files_read, 1u);
}

TEST_F(CachingBackendTest, FaultsBelowTheCacheSurfaceAsStatus) {
  // Hard backend errors below the cache must propagate as Status and
  // must not poison the cache: a later healthy scan over the same cache
  // returns the right answer.
  ASSERT_OK_AND_ASSIGN(OpenTable table, OpenTable::Open(dir_.path(), "t_row"));
  FileBackend file_backend;
  FaultSpec fault_spec;
  fault_spec.seed = 7;
  fault_spec.error_probability = 1.0;  // every read fails
  FaultInjectingBackend faulty(&file_backend, fault_spec);
  BlockCache cache(64ULL << 20, 4);
  ScanSpec spec = BaseSpec();
  spec.read.cache = &cache;

  ExecStats fault_stats;
  ASSERT_OK_AND_ASSIGN(auto fault_scan,
                       MakeScanner(&table, spec, &faulty, &fault_stats));
  EXPECT_FALSE(CollectTuples(fault_scan.get()).ok());
  EXPECT_EQ(cache.stats().entries, 0u);  // nothing was cached

  ExecStats clean_stats;
  ASSERT_OK_AND_ASSIGN(auto clean_scan,
                       MakeScanner(&table, spec, &file_backend, &clean_stats));
  ASSERT_OK_AND_ASSIGN(auto tuples, CollectTuples(clean_scan.get()));
  EXPECT_EQ(tuples.size(), tuples_.size());
}

TEST_F(CachingBackendTest, TruncationBelowTheCacheIsNeverCached) {
  // Truncate every stream to a prefix: the scanner reports Corruption
  // (cardinality check) and the short tail unit must not be cached, so a
  // healthy rerun re-reads the real bytes and succeeds.
  ASSERT_OK_AND_ASSIGN(OpenTable table, OpenTable::Open(dir_.path(), "t_row"));
  FileBackend file_backend;
  FaultSpec fault_spec;
  fault_spec.seed = 11;
  fault_spec.truncate_probability = 1.0;
  FaultInjectingBackend faulty(&file_backend, fault_spec);
  BlockCache cache(64ULL << 20, 4);
  ScanSpec spec = BaseSpec();
  spec.read.cache = &cache;

  ExecStats fault_stats;
  ASSERT_OK_AND_ASSIGN(auto fault_scan,
                       MakeScanner(&table, spec, &faulty, &fault_stats));
  EXPECT_FALSE(CollectTuples(fault_scan.get()).ok());

  // The cache may hold fully assembled leading units (they are genuine
  // bytes), but the healthy rerun must produce the complete table.
  ExecStats clean_stats;
  ASSERT_OK_AND_ASSIGN(auto clean_scan,
                       MakeScanner(&table, spec, &file_backend, &clean_stats));
  ASSERT_OK_AND_ASSIGN(auto tuples, CollectTuples(clean_scan.get()));
  EXPECT_EQ(tuples.size(), tuples_.size());
}

TEST_F(CachingBackendTest, ConcurrentScansShareOneCache) {
  // Several threads scan the same table through one cache concurrently
  // (cold: they race to populate; then warm). Run under TSan.
  ASSERT_OK_AND_ASSIGN(OpenTable table, OpenTable::Open(dir_.path(), "t_pax"));
  FileBackend backend;
  BlockCache cache(64ULL << 20, 8);
  ScanSpec spec = BaseSpec();
  spec.read.cache = &cache;
  constexpr int kThreads = 6;
  std::atomic<int> failures{0};
  std::atomic<uint64_t> rows{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      // One scanner (and one ExecStats) per thread: the single-writer
      // stats contract holds, only the cache itself is shared.
      ExecStats stats;
      auto scan = MakeScanner(&table, spec, &backend, &stats);
      if (!scan.ok()) {
        failures.fetch_add(1);
        return;
      }
      auto tuples = CollectTuples(scan->get());
      if (!tuples.ok() || tuples->size() == 0) {
        failures.fetch_add(1);
        return;
      }
      rows.fetch_add(tuples->size());
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(rows.load(), static_cast<uint64_t>(kThreads) * tuples_.size());
  EXPECT_LE(cache.stats().bytes_in_use, cache.capacity_bytes());
}

TEST_F(CachingBackendTest, ExplicitDecoratorComposesWithPlainSpecs) {
  // CachingBackend constructed with its own cache pointer serves specs
  // that carry no cache handle at all (e.g. legacy callers).
  ASSERT_OK_AND_ASSIGN(OpenTable table, OpenTable::Open(dir_.path(), "t_row"));
  FileBackend file_backend;
  TracingBackend tracing(&file_backend);
  BlockCache cache(64ULL << 20, 4);
  CachingBackend caching(&tracing, &cache);
  const ScanSpec spec = BaseSpec();  // read.cache stays nullptr
  std::vector<std::vector<std::vector<uint8_t>>> runs;
  for (int pass = 0; pass < 2; ++pass) {
    ExecStats stats;
    ASSERT_OK_AND_ASSIGN(auto scan,
                         MakeScanner(&table, spec, &caching, &stats));
    ASSERT_OK_AND_ASSIGN(auto tuples, CollectTuples(scan.get()));
    runs.push_back(std::move(tuples));
  }
  EXPECT_EQ(runs[0], runs[1]);
  EXPECT_GT(cache.stats().hits, 0u);
}

}  // namespace
}  // namespace rodb
