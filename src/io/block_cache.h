#ifndef RODB_IO_BLOCK_CACHE_H_
#define RODB_IO_BLOCK_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "io/io.h"
#include "io/unit_buffers.h"

namespace rodb {

/// One cached I/O unit: a unit free-list buffer and the bytes it holds.
/// Destroying the block returns its buffer to the free list.
class CachedBlock {
 public:
  CachedBlock(UnitBuffer buffer, size_t size)
      : buffer_(std::move(buffer)), size_(size) {}

  const uint8_t* data() const { return buffer_.get(); }
  size_t size() const { return size_; }

 private:
  UnitBuffer buffer_;
  size_t size_;
};

/// Sharded, capacity-bounded LRU cache of I/O units, keyed by
/// (file_id, file_offset). The storage-manager-level cache the ROADMAP's
/// repeated-query regime calls for: the paper's I/O layer streams every
/// scan cold from the disk array (Section 2.2.3), but a server answering
/// the same queries over the same hot tables re-reads identical blocks,
/// and those re-reads should be memory traffic, not disk traffic.
///
/// Blocks are immutable CachedBlocks held by shared_ptr, so a lookup
/// pins the block for as long as the caller holds the handle: eviction
/// only drops the cache's own reference and can never free memory out
/// from under an in-flight reader. The last reference returns the
/// block's buffer to the unit free list. Keys are exact offsets -- the cache
/// does not try to stitch overlapping ranges -- but a lookup may be
/// served by a cached block *larger* than the requested size (the caller
/// reads a prefix), which is what happens when scans with different
/// range ends share a table.
///
/// Thread-safe: the key space is sharded by hash, each shard has its own
/// mutex and LRU list, and counters are atomics, so concurrent morsel
/// workers hit different shards most of the time instead of one global
/// lock.
class BlockCache {
 public:
  using BlockHandle = std::shared_ptr<const CachedBlock>;

  /// Counter snapshot (all totals since construction or Clear()).
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t inserted_bytes = 0;
    uint64_t bytes_in_use = 0;
    uint64_t entries = 0;
    uint64_t capacity_bytes = 0;

    double hit_rate() const {
      const uint64_t total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) / total;
    }
  };

  /// `num_shards` is rounded up to a power of two; capacity is split
  /// evenly across shards, so one shard caps at capacity/shards.
  explicit BlockCache(uint64_t capacity_bytes, int num_shards = 16);

  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;

  /// Returns the block at (file_id, offset) if one is cached with at
  /// least `min_size` bytes, moving it to the front of its shard's LRU
  /// list; nullptr otherwise. Counts exactly one hit or miss.
  BlockHandle Lookup(uint64_t file_id, uint64_t offset, size_t min_size);

  /// Whether Lookup(file_id, offset, min_size) would hit right now.
  /// Counts nothing and leaves the LRU order alone: CachingStream asks
  /// it to size a read-ahead to the units the cache lacks.
  bool Contains(uint64_t file_id, uint64_t offset, size_t min_size);

  /// Caches `block` under (file_id, offset), replacing any existing
  /// entry, then evicts least-recently-used blocks until the shard fits
  /// its capacity share. A block larger than a whole shard is refused
  /// (it would evict everything and still not fit).
  void Insert(uint64_t file_id, uint64_t offset, BlockHandle block);

  /// File-size registry, so a fully warm scan never has to open the
  /// backing file at all just to learn its size. Populated by
  /// CachingBackend on first (cold) open.
  void RecordFileSize(uint64_t file_id, uint64_t size);
  std::optional<uint64_t> KnownFileSize(uint64_t file_id) const;

  /// Drops every cached block and the file-size registry, returning the
  /// cache to cold. Counters reset too. In-flight handles stay valid.
  void Clear();

  Stats stats() const;
  uint64_t capacity_bytes() const { return capacity_bytes_; }

  /// Number of cached blocks currently pinned outside the cache, i.e.
  /// entries whose handle use_count exceeds the cache's own reference.
  /// Zero once every reader has released its handles — the leak-audit
  /// invariant the resilience tests assert after forced mid-scan
  /// failures (a leaked pin means an error path kept a stream or view
  /// alive past Close()). O(entries); diagnostics only.
  uint64_t ExternalPins() const;

 private:
  struct Key {
    uint64_t file_id;
    uint64_t offset;
    bool operator==(const Key& o) const {
      return file_id == o.file_id && offset == o.offset;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      // splitmix64-style mix of the two words; shard selection uses the
      // high bits, bucket selection the low, so they stay independent.
      uint64_t h = k.file_id ^ (k.offset * 0x9e3779b97f4a7c15ULL);
      h ^= h >> 30;
      h *= 0xbf58476d1ce4e5b9ULL;
      h ^= h >> 27;
      h *= 0x94d049bb133111ebULL;
      h ^= h >> 31;
      return static_cast<size_t>(h);
    }
  };
  struct Entry {
    Key key;
    BlockHandle block;
  };
  struct Shard {
    std::mutex mu;
    std::list<Entry> lru;  ///< front = most recently used
    std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index;
    uint64_t bytes = 0;
  };

  Shard& ShardFor(uint64_t file_id, uint64_t offset);

  const uint64_t capacity_bytes_;
  uint64_t shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
  size_t shard_mask_;

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> inserted_bytes_{0};
  std::atomic<uint64_t> bytes_in_use_{0};
  std::atomic<uint64_t> entries_{0};

  mutable std::mutex file_size_mu_;
  std::unordered_map<uint64_t, uint64_t> file_sizes_;
};

/// IoBackend decorator that serves SequentialStream::Next() from a
/// BlockCache on hit and populates it on miss, composing with any inner
/// backend (FileBackend, MemBackend, FaultInjectingBackend,
/// TracingBackend). Typical stack for a fault-tolerance test:
///
///   FileBackend -> FaultInjectingBackend -> CachingBackend -> scanner
///
/// Correctness rules the implementation keeps:
///  - Only fully assembled I/O units are cached. A unit cut short by
///    truncation below the cache is served to the caller (the scanner's
///    cardinality check turns it into Corruption) but never cached, so
///    a later healthy run cannot be served the stale short block.
///  - Errors from the inner stream propagate as Status and cache
///    nothing.
///  - The inner stream is opened lazily and only for misses: a fully
///    warm scan of a known file performs zero backend opens and zero
///    backend reads. A miss opens it over the run of units the cache
///    lacks from there on (at most prefetch_depth units), so read-ahead
///    never fetches a unit the next hit would serve. The one exception
///    is the eager open that learns a file's size on a cold registry:
///    it covers the whole range, so a cold scan stays one prefetching
///    stream.
///
/// Stats: cache-served units count IoStats::{bytes_from_cache,
/// cache_hits}; backend-served units are counted by the inner stream
/// itself (bytes_read/requests), so the two columns split total traffic
/// exactly. The cache handle comes from IoOptions::read.cache; when the
/// decorator was constructed with its own cache pointer that one wins.
class CachingBackend : public IoBackend {
 public:
  /// Both pointers are borrowed and must outlive this backend. `cache`
  /// may be nullptr, in which case each stream uses the cache from its
  /// IoOptions::read.cache (and a stream with neither is pass-through).
  CachingBackend(IoBackend* inner, BlockCache* cache)
      : inner_(inner), cache_(cache) {}

  Result<std::unique_ptr<SequentialStream>> OpenStream(
      const std::string& path, const IoOptions& options) override;

 private:
  class CachingStream;

  IoBackend* inner_;
  BlockCache* cache_;
};

}  // namespace rodb

#endif  // RODB_IO_BLOCK_CACHE_H_
