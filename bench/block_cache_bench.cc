// Cold, warm and half-warm scans through the sharded block cache
// (DESIGN.md "Block cache").
//
// Scans LINEITEM (row and column layouts) through BlockCaches over the
// real file backend and reports each pass as a JSON line, one object per
// (layout, pass) point. The cold pass populates a cache from disk; the
// warm pass must serve (almost) every I/O unit from memory, so its
// backend byte count collapses and the timing model
// (CacheAdjustedStreams) sees a CPU-bound query. The half-warm pass runs
// over a fresh cache holding every other I/O unit of the files the scan
// reads -- about half the table -- so hits and misses interleave and
// each miss reads ahead only the units the cache lacks. Checked and
// reported per point (hits and misses are the pass's own):
//   - every pass's output_checksum equals the cold checksum (the cache
//     never changes answers);
//   - warm bytes_read from the backend is 0 while bytes_from_cache > 0;
//   - half-warm has both hits and misses, and its backend bytes_read
//     plus bytes_from_cache equals the cold pass's bytes_read.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/macros.h"
#include "engine/scan_spec.h"
#include "io/block_cache.h"
#include "io/file_backend.h"
#include "storage/catalog.h"

using namespace rodb;         // NOLINT
using namespace rodb::bench;  // NOLINT
using namespace rodb::tpch;   // NOLINT

namespace {

constexpr int kAttrs = 3;  // L_PARTKEY, L_ORDERKEY, L_SUPPKEY: all int32
constexpr uint64_t kCacheBytes = 256ULL << 20;

/// Caches every other I/O unit of the files `spec` reads, counted
/// across the files in order (so a column file of one unit alternates
/// with the next), under the (file_id, offset) keys the scan looks up.
void WarmEveryOtherUnit(const OpenTable& table, const ScanSpec& spec,
                        BlockCache* cache, IoBackend* disk) {
  CachingBackend caching(disk, cache);
  const size_t unit = spec.read.io_unit_bytes;
  const std::vector<size_t> files = table.meta().layout == Layout::kColumn
                                        ? ScanPipelineAttrs(spec)
                                        : std::vector<size_t>{0};
  uint64_t units = 0;
  for (size_t file : files) {
    for (uint64_t offset = 0; offset < table.FileBytes(file);
         offset += unit) {
      if (units++ % 2 != 0) continue;
      IoOptions options;
      options.read.io_unit_bytes = unit;
      options.start_offset = offset;
      options.length = unit;
      options.file_id = table.FileId(file);
      auto stream = caching.OpenStream(table.FilePath(file), options);
      RODB_CHECK(stream.ok());
      auto view = (*stream)->Next();
      RODB_CHECK(view.ok() && view->size > 0);
    }
  }
}

}  // namespace

int main() {
  Env env = Env::FromEnv();
  std::fprintf(stderr, "block_cache_bench: %llu tuples\n",
               static_cast<unsigned long long>(env.tuples));

  FileBackend disk;
  for (Layout layout : {Layout::kRow, Layout::kColumn}) {
    auto meta = EnsureLineitem(env.Spec(layout, false));
    RODB_CHECK(meta.ok());

    auto table = OpenTable::Open(env.data_dir, meta->name);
    RODB_CHECK(table.ok());
    ScanSpec spec;
    spec.projection = FirstAttrs(kAttrs);

    BlockCache cache(kCacheBytes);
    BlockCache half_cache(kCacheBytes);
    uint64_t cold_checksum = 0;
    uint64_t cold_bytes = 0;
    double cold_wall = 0.0;
    for (const std::string pass : {"cold", "warm", "half-warm"}) {
      const bool cold = pass == "cold";
      const bool half = pass == "half-warm";
      spec.read.cache = half ? &half_cache : &cache;
      if (half) WarmEveryOtherUnit(*table, spec, &half_cache, &disk);
      obs::QueryTrace trace;
      auto run = RunScan(env.data_dir, meta->name, spec, env.PaperScale(),
                         &disk, &trace);
      RODB_CHECK(run.ok());
      const ExecCounters& c = run->counters;
      if (cold) {
        cold_checksum = run->result.output_checksum;
        cold_bytes = c.io_bytes_read;
        cold_wall = run->result.wall_seconds;
      }
      const uint64_t units = c.io_cache_hits + c.io_cache_misses;
      std::printf(
          "{\"bench\":\"block_cache\",\"layout\":\"%s\","
          "\"tuples\":%llu,\"pass\":\"%s\",\"rows\":%llu,"
          "\"wall_seconds\":%.6f,\"speedup_vs_cold\":%.3f,"
          "\"backend_bytes\":%llu,\"cache_bytes\":%llu,"
          "\"cache_hits\":%llu,\"cache_misses\":%llu,"
          "\"cache_hit_rate\":%.3f,\"cache_bytes_in_use\":%llu,"
          "\"output_checksum\":%llu,\"checksum_matches_cold\":%s,"
          "\"model\":%s}\n",
          layout == Layout::kRow ? "row" : "column",
          static_cast<unsigned long long>(env.tuples), pass.c_str(),
          static_cast<unsigned long long>(run->rows),
          run->result.wall_seconds,
          cold ? 1.0 : cold_wall / run->result.wall_seconds,
          static_cast<unsigned long long>(c.io_bytes_read),
          static_cast<unsigned long long>(c.io_bytes_from_cache),
          static_cast<unsigned long long>(c.io_cache_hits),
          static_cast<unsigned long long>(c.io_cache_misses),
          units == 0 ? 0.0 : static_cast<double>(c.io_cache_hits) / units,
          static_cast<unsigned long long>(
              spec.read.cache->stats().bytes_in_use),
          static_cast<unsigned long long>(run->result.output_checksum),
          run->result.output_checksum == cold_checksum ? "true" : "false",
          run->model_json.empty() ? "null" : run->model_json.c_str());
      RODB_CHECK(run->result.output_checksum == cold_checksum);
      if (pass == "warm") {
        // The whole point of the warm pass: zero backend traffic.
        RODB_CHECK(c.io_bytes_read == 0);
        RODB_CHECK(c.io_bytes_from_cache > 0);
      }
      if (half) {
        // Interleaved, and every byte read once: from the backend only
        // where the cache lacked the unit.
        RODB_CHECK(c.io_cache_hits > 0 && c.io_cache_misses > 0);
        RODB_CHECK(c.io_bytes_read + c.io_bytes_from_cache == cold_bytes);
      }
    }
  }
  return 0;
}
