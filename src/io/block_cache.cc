#include "io/block_cache.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/file_id.h"
#include "common/macros.h"
#include "obs/metrics.h"

namespace rodb {

namespace {

size_t RoundUpPow2(int n) {
  size_t p = 1;
  while (p < static_cast<size_t>(n < 1 ? 1 : n)) p <<= 1;
  return p;
}

/// Process-wide cache metrics, aggregated across every BlockCache
/// instance (per-instance numbers stay available via BlockCache::stats).
struct CacheMetrics {
  obs::Counter* hits;
  obs::Counter* misses;
  obs::Counter* evictions;
  obs::Counter* inserted_bytes;
  static const CacheMetrics& Get() {
    static const CacheMetrics m = [] {
      auto& reg = obs::MetricsRegistry::Default();
      return CacheMetrics{reg.GetCounter("rodb.cache.hits"),
                          reg.GetCounter("rodb.cache.misses"),
                          reg.GetCounter("rodb.cache.evictions"),
                          reg.GetCounter("rodb.cache.inserted_bytes")};
    }();
    return m;
  }
};

}  // namespace

BlockCache::BlockCache(uint64_t capacity_bytes, int num_shards)
    : capacity_bytes_(capacity_bytes) {
  const size_t shards = RoundUpPow2(num_shards);
  shard_mask_ = shards - 1;
  shard_capacity_ = capacity_bytes_ / shards;
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

BlockCache::Shard& BlockCache::ShardFor(uint64_t file_id, uint64_t offset) {
  // The bucket hash uses the low bits; take the high bits for the shard
  // so the two partitions are independent.
  const size_t h = KeyHash{}(Key{file_id, offset});
  return *shards_[(h >> 48) & shard_mask_];
}

BlockCache::BlockHandle BlockCache::Lookup(uint64_t file_id, uint64_t offset,
                                           size_t min_size) {
  Shard& shard = ShardFor(file_id, offset);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(Key{file_id, offset});
    if (it != shard.index.end() && it->second->block->size() >= min_size) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      hits_.fetch_add(1, std::memory_order_relaxed);
      CacheMetrics::Get().hits->Increment();
      return it->second->block;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  CacheMetrics::Get().misses->Increment();
  return nullptr;
}

bool BlockCache::Contains(uint64_t file_id, uint64_t offset,
                          size_t min_size) {
  Shard& shard = ShardFor(file_id, offset);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(Key{file_id, offset});
  return it != shard.index.end() && it->second->block->size() >= min_size;
}

void BlockCache::Insert(uint64_t file_id, uint64_t offset, BlockHandle block) {
  if (block == nullptr) return;
  const uint64_t size = block->size();
  if (size > shard_capacity_) return;  // would evict everything and not fit
  Shard& shard = ShardFor(file_id, offset);
  const Key key{file_id, offset};
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    shard.bytes -= it->second->block->size();
    bytes_in_use_.fetch_sub(it->second->block->size(),
                            std::memory_order_relaxed);
    it->second->block = std::move(block);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  } else {
    shard.lru.push_front(Entry{key, std::move(block)});
    shard.index[key] = shard.lru.begin();
    entries_.fetch_add(1, std::memory_order_relaxed);
  }
  shard.bytes += size;
  bytes_in_use_.fetch_add(size, std::memory_order_relaxed);
  inserted_bytes_.fetch_add(size, std::memory_order_relaxed);
  CacheMetrics::Get().inserted_bytes->Add(size);
  while (shard.bytes > shard_capacity_ && shard.lru.size() > 1) {
    const Entry& victim = shard.lru.back();
    const uint64_t victim_size = victim.block->size();
    shard.index.erase(victim.key);
    shard.lru.pop_back();
    shard.bytes -= victim_size;
    bytes_in_use_.fetch_sub(victim_size, std::memory_order_relaxed);
    entries_.fetch_sub(1, std::memory_order_relaxed);
    evictions_.fetch_add(1, std::memory_order_relaxed);
    CacheMetrics::Get().evictions->Increment();
  }
}

void BlockCache::RecordFileSize(uint64_t file_id, uint64_t size) {
  std::lock_guard<std::mutex> lock(file_size_mu_);
  file_sizes_[file_id] = size;
}

std::optional<uint64_t> BlockCache::KnownFileSize(uint64_t file_id) const {
  std::lock_guard<std::mutex> lock(file_size_mu_);
  auto it = file_sizes_.find(file_id);
  if (it == file_sizes_.end()) return std::nullopt;
  return it->second;
}

void BlockCache::Clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->index.clear();
    shard->lru.clear();
    shard->bytes = 0;
  }
  {
    std::lock_guard<std::mutex> lock(file_size_mu_);
    file_sizes_.clear();
  }
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  evictions_.store(0, std::memory_order_relaxed);
  inserted_bytes_.store(0, std::memory_order_relaxed);
  bytes_in_use_.store(0, std::memory_order_relaxed);
  entries_.store(0, std::memory_order_relaxed);
}

BlockCache::Stats BlockCache::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.inserted_bytes = inserted_bytes_.load(std::memory_order_relaxed);
  s.bytes_in_use = bytes_in_use_.load(std::memory_order_relaxed);
  s.entries = entries_.load(std::memory_order_relaxed);
  s.capacity_bytes = capacity_bytes_;
  return s;
}

uint64_t BlockCache::ExternalPins() const {
  uint64_t pinned = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (const Entry& entry : shard->lru) {
      // use_count == 1 is the cache's own reference; anything above it
      // is a handle still held by a reader. Racy in principle (readers
      // may pin/unpin concurrently) but exact once they have quiesced,
      // which is when the leak audit runs.
      if (entry.block.use_count() > 1) ++pinned;
    }
  }
  return pinned;
}

/// The stream side of the decorator. Serves one logical I/O unit per
/// Next(): a cache hit pins the cached block and hands out a view into
/// it; a miss assembles exactly one unit from the inner stream into a
/// unit free-list buffer, caches the fully assembled unit, and serves
/// it. The inner stream covers the run of units the cache lacked when it
/// was opened, so after it ends, or after hits moved pos_ past it, the
/// next miss reopens it over the next such run. Short assemblies
/// (truncation below us) are served but never cached.
class CachingBackend::CachingStream final : public SequentialStream {
 public:
  CachingStream(IoBackend* inner_backend, BlockCache* cache,
                std::string path, const IoOptions& options,
                uint64_t file_size,
                std::unique_ptr<SequentialStream> inner_stream)
      : inner_backend_(inner_backend), cache_(cache), path_(std::move(path)),
        options_(options), file_size_(file_size),
        pos_(std::min(options.start_offset, file_size)),
        end_(options.length > file_size - pos_ ? file_size
                                               : pos_ + options.length),
        unit_(options.read.io_unit_bytes), stats_(options.read.stats),
        inner_(std::move(inner_stream)), inner_next_offset_(pos_),
        inner_end_(end_), counted_open_(inner_ != nullptr) {}

  Result<IoView> Next() override {
    if (pos_ >= end_) return IoView{nullptr, 0, end_};
    const size_t want = UnitAt(pos_);
    handle_ = cache_->Lookup(options_.file_id, pos_, want);
    if (handle_ != nullptr) {
      if (stats_ != nullptr) {
        stats_->bytes_from_cache += want;
        stats_->cache_hits += 1;
      }
      IoView view{handle_->data(), want, pos_};
      pos_ += want;
      return view;
    }
    if (stats_ != nullptr) stats_->cache_misses += 1;
    // Miss: assemble the unit from the inner stream, which counts its
    // own bytes_read/requests into the same stats sink.
    if (inner_ == nullptr || inner_next_offset_ != pos_ ||
        pos_ >= inner_end_) {
      RODB_RETURN_IF_ERROR(ReopenInnerAt(pos_));
    }
    UnitBuffer buffer = AcquireUnitBuffer(want);
    size_t got = 0;
    while (got < want) {
      auto view_or = inner_->Next();
      if (!view_or.ok()) {
        inner_.reset();  // position unknown after an error
        return view_or.status();
      }
      const IoView& v = view_or.value();
      if (v.size == 0) break;  // EOF below us (truncated file)
      if (v.size > want - got) {
        inner_.reset();
        return Status::Internal("inner stream overran its I/O unit");
      }
      std::memcpy(buffer.get() + got, v.data, v.size);
      got += v.size;
    }
    inner_next_offset_ = pos_ + got;
    if (got == 0) return IoView{nullptr, 0, pos_};
    auto block = std::make_shared<const CachedBlock>(std::move(buffer), got);
    if (got == want) cache_->Insert(options_.file_id, pos_, block);
    handle_ = std::move(block);
    IoView view{handle_->data(), got, pos_};
    pos_ += got;
    return view;
  }

  uint64_t file_size() const override { return file_size_; }

 private:
  /// Bytes of the logical unit at `offset` (the last one may be short).
  size_t UnitAt(uint64_t offset) const {
    return static_cast<size_t>(std::min<uint64_t>(unit_, end_ - offset));
  }

  /// Opens the inner stream at `offset` (a unit that just missed) over
  /// the run of units the cache lacks from there, at most prefetch_depth
  /// units long.
  Status ReopenInnerAt(uint64_t offset) {
    const int depth = std::max(1, options_.read.prefetch_depth);
    uint64_t run_end = offset + UnitAt(offset);
    for (int units = 1; units < depth && run_end < end_; ++units) {
      const size_t size = UnitAt(run_end);
      if (cache_->Contains(options_.file_id, run_end, size)) break;
      run_end += size;
    }
    IoOptions inner_options = options_;
    inner_options.start_offset = offset;
    inner_options.length = run_end - offset;
    inner_options.read.cache = nullptr;  // we are the caching layer
    inner_.reset();  // release the old ring before opening the next
    RODB_ASSIGN_OR_RETURN(inner_,
                          inner_backend_->OpenStream(path_, inner_options));
    // The inner backend counts files_opened on every OpenStream, but a
    // reopen (hits advanced pos_ past the inner cursor, or the previous
    // miss run ended) is still the same logical file: compensate so one
    // CachingStream contributes at most one open.
    if (counted_open_) {
      if (stats_ != nullptr && stats_->files_opened > 0) {
        stats_->files_opened -= 1;
      }
    } else {
      counted_open_ = true;
    }
    inner_next_offset_ = offset;
    inner_end_ = run_end;
    return Status::OK();
  }

  IoBackend* const inner_backend_;
  BlockCache* const cache_;
  const std::string path_;
  const IoOptions options_;
  const uint64_t file_size_;
  uint64_t pos_;
  const uint64_t end_;
  const size_t unit_;
  IoStats* const stats_;

  std::unique_ptr<SequentialStream> inner_;
  uint64_t inner_next_offset_;
  uint64_t inner_end_;  ///< end of the inner stream's range
  /// Whether this stream already contributed one files_opened to the
  /// stats sink (reopens of the same logical file must not count again).
  bool counted_open_;
  BlockCache::BlockHandle handle_;  ///< pins the block behind the view
};

Result<std::unique_ptr<SequentialStream>> CachingBackend::OpenStream(
    const std::string& path, const IoOptions& options) {
  if (options.read.io_unit_bytes == 0) {
    return Status::InvalidArgument("io_unit_bytes must be positive");
  }
  BlockCache* cache =
      cache_ != nullptr ? cache_ : options.read.cache;
  if (cache == nullptr) return inner_->OpenStream(path, options);

  IoOptions resolved = options;
  if (resolved.file_id == 0) resolved.file_id = FileIdForPath(path);

  // Learn the file size: from the cache's registry when warm (zero
  // backend opens), from an eager inner open when cold. The eager open
  // is not wasted -- the first Next() is overwhelmingly likely to miss
  // on a cold cache and would open it anyway.
  std::unique_ptr<SequentialStream> inner;
  uint64_t file_size = 0;
  if (auto known = cache->KnownFileSize(resolved.file_id)) {
    file_size = *known;
  } else {
    IoOptions inner_options = resolved;
    inner_options.read.cache = nullptr;
    RODB_ASSIGN_OR_RETURN(inner, inner_->OpenStream(path, inner_options));
    file_size = inner->file_size();
    cache->RecordFileSize(resolved.file_id, file_size);
  }
  return std::unique_ptr<SequentialStream>(new CachingStream(
      inner_, cache, path, resolved, file_size, std::move(inner)));
}

}  // namespace rodb
