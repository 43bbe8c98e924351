#include "io/file_backend.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "io/unit_buffers.h"
#include "obs/metrics.h"

namespace rodb {

namespace {

/// Counts one rodb.io.prefetch_ready (the request found its unit, or the
/// end, already there) or one rodb.io.prefetch_stalls (it waited on the
/// disk).
void RecordPrefetchUtilization(bool ready) {
  auto& reg = obs::MetricsRegistry::Default();
  static obs::Counter* hits = reg.GetCounter("rodb.io.prefetch_ready");
  static obs::Counter* stalls = reg.GetCounter("rodb.io.prefetch_stalls");
  (ready ? hits : stalls)->Increment();
}

/// Preads up to `want` bytes at `offset` into `buf`, resuming short
/// reads. Returns the bytes read -- fewer than `want` only when the file
/// ended first -- or -1 on a read error.
ssize_t PreadFully(int fd, uint8_t* buf, size_t want, uint64_t offset) {
  size_t got = 0;
  while (got < want) {
    const ssize_t n = ::pread(fd, buf + got, want - got,
                              static_cast<off_t>(offset + got));
    if (n < 0) return -1;
    if (n == 0) break;  // truncated file
    got += static_cast<size_t>(n);
  }
  return static_cast<ssize_t>(got);
}

/// Prefetching stream over a POSIX fd. A producer thread preads
/// sequentially into a bounded ring; Next() hands units to the consumer in
/// file order. The ring has `credit` + 1 slots: `credit` in flight plus
/// the one the consumer is currently holding, where `credit` is the
/// prefetch depth capped by the units the range holds. Each slot the
/// range reaches holds a one-unit buffer from the unit free list; a range
/// of at most `credit` units never wraps, so its last slot stays unused
/// and gets no buffer.
class AsyncFileStream final : public SequentialStream {
 public:
  AsyncFileStream(int fd, uint64_t file_size, uint64_t range_start,
                  uint64_t range_end, size_t unit, size_t credit,
                  IoStats* stats)
      : fd_(fd), file_size_(file_size), range_start_(range_start),
        range_end_(range_end), unit_(unit), slots_(credit + 1),
        stats_(stats), free_slots_(credit) {
    const uint64_t units = (range_end_ - range_start_ + unit_ - 1) / unit_;
    const size_t buffers =
        static_cast<size_t>(std::min<uint64_t>(slots_, units));
    ring_.reserve(buffers);
    for (size_t i = 0; i < buffers; ++i) {
      ring_.push_back(AcquireUnitBuffer(unit_));
    }
    producer_ = std::thread([this] { ProducerLoop(); });
  }

  AsyncFileStream(const AsyncFileStream&) = delete;
  AsyncFileStream& operator=(const AsyncFileStream&) = delete;

  ~AsyncFileStream() override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_producer_.notify_all();
    cv_consumer_.notify_all();
    producer_.join();
    ::close(fd_);
  }

  Result<IoView> Next() override {
    std::unique_lock<std::mutex> lock(mu_);
    // Release the buffer the consumer was holding.
    if (holding_) {
      holding_ = false;
      ++free_slots_;
      cv_producer_.notify_one();
    }
    // Prefetch-depth utilization: a unit already sitting in the ring
    // means the prefetcher kept ahead of the consumer; an empty ring
    // means the consumer stalls on the disk.
    RecordPrefetchUtilization(!filled_.empty() || produced_all_ ||
                              !error_.ok());
    cv_consumer_.wait(lock, [this] {
      return !filled_.empty() || produced_all_ || !error_.ok();
    });
    if (!error_.ok()) return error_;
    if (filled_.empty()) return IoView{nullptr, 0, file_size_};  // EOF
    Filled f = filled_.front();
    filled_.pop_front();
    holding_ = true;
    if (stats_ != nullptr) {
      stats_->bytes_read += f.size;
      stats_->requests += 1;
    }
    return IoView{Slot(f.slot), f.size, f.offset};
  }

  uint64_t file_size() const override { return file_size_; }

 private:
  struct Filled {
    size_t slot;
    size_t size;
    uint64_t offset;
  };

  uint8_t* Slot(size_t slot) const { return ring_[slot].get(); }

  void ProducerLoop() {
    uint64_t offset = range_start_;
    size_t slot = 0;
    while (true) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_producer_.wait(lock, [this] { return free_slots_ > 0 || stop_; });
        if (stop_) return;
        --free_slots_;
      }
      if (offset >= range_end_) break;
      const size_t want = static_cast<size_t>(
          std::min<uint64_t>(unit_, range_end_ - offset));
      const ssize_t n = PreadFully(fd_, Slot(slot), want, offset);
      if (n < 0) {
        std::lock_guard<std::mutex> lock(mu_);
        error_ = Status::IoError("pread failed");
        cv_consumer_.notify_all();
        return;
      }
      const size_t got = static_cast<size_t>(n);
      {
        std::lock_guard<std::mutex> lock(mu_);
        filled_.push_back({slot, got, offset});
        cv_consumer_.notify_one();
        if (got < want) {
          error_ = Status::IoError("file shrank while reading");
          cv_consumer_.notify_all();
          return;
        }
      }
      offset += got;
      slot = (slot + 1) % slots_;
    }
    std::lock_guard<std::mutex> lock(mu_);
    produced_all_ = true;
    cv_consumer_.notify_all();
  }

  const int fd_;
  const uint64_t file_size_;
  const uint64_t range_start_;
  const uint64_t range_end_;
  const size_t unit_;
  const size_t slots_;
  IoStats* const stats_;
  std::vector<UnitBuffer> ring_;  ///< filled before the producer starts

  std::mutex mu_;
  std::condition_variable cv_producer_;
  std::condition_variable cv_consumer_;
  std::deque<Filled> filled_;
  size_t free_slots_;
  bool holding_ = false;
  bool produced_all_ = false;
  bool stop_ = false;
  Status error_;
  std::thread producer_;
};

/// A range of at most one I/O unit has nothing to prefetch ahead of its
/// first request, so its stream runs no thread and holds no ring: the
/// first Next() preads the whole range into a one-unit buffer from the
/// unit free list (the consumer waits on that read, which counts as one
/// prefetch stall) and every later call returns the end view, or the
/// read's error again. A whole unit, not the range's size, so short runs
/// share the ring buffers' free list instead of each size keeping its
/// own.
class OneUnitFileStream final : public SequentialStream {
 public:
  OneUnitFileStream(int fd, uint64_t file_size, uint64_t range_start,
                    uint64_t range_end, size_t unit, IoStats* stats)
      : fd_(fd), file_size_(file_size), range_start_(range_start),
        range_end_(range_end), unit_(unit), stats_(stats) {}

  OneUnitFileStream(const OneUnitFileStream&) = delete;
  OneUnitFileStream& operator=(const OneUnitFileStream&) = delete;

  ~OneUnitFileStream() override { ::close(fd_); }

  Result<IoView> Next() override {
    const bool read_now = !read_ && range_start_ < range_end_;
    read_ = true;
    RecordPrefetchUtilization(!read_now);
    if (!read_now) {
      if (!error_.ok()) return error_;
      return IoView{nullptr, 0, file_size_};  // EOF
    }
    const size_t want = static_cast<size_t>(range_end_ - range_start_);
    buffer_ = AcquireUnitBuffer(unit_);
    const ssize_t got = PreadFully(fd_, buffer_.get(), want, range_start_);
    if (got < 0) {
      error_ = Status::IoError("pread failed");
      return error_;
    }
    if (static_cast<size_t>(got) < want) {
      error_ = Status::IoError("file shrank while reading");
      return error_;
    }
    if (stats_ != nullptr) {
      stats_->bytes_read += want;
      stats_->requests += 1;
    }
    return IoView{buffer_.get(), want, range_start_};
  }

  uint64_t file_size() const override { return file_size_; }

 private:
  const int fd_;
  const uint64_t file_size_;
  const uint64_t range_start_;
  const uint64_t range_end_;
  const size_t unit_;
  IoStats* const stats_;
  UnitBuffer buffer_;
  bool read_ = false;
  Status error_;
};

}  // namespace

Result<std::unique_ptr<SequentialStream>> FileBackend::OpenStream(
    const std::string& path, const IoOptions& options) {
  const size_t unit = options.read.io_unit_bytes;
  if (unit == 0) {
    return Status::InvalidArgument("io_unit_bytes must be positive");
  }
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IoError("cannot open " + path);
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IoError("fstat failed for " + path);
  }
  IoStats* const stats = options.read.stats;
  if (stats != nullptr) stats->files_opened += 1;
  const uint64_t file_size = static_cast<uint64_t>(st.st_size);
  const uint64_t start = std::min(options.start_offset, file_size);
  const uint64_t end = options.length > file_size - start
                           ? file_size
                           : start + options.length;
  const uint64_t units = (end - start + unit - 1) / unit;
  if (units <= 1) {
    return std::unique_ptr<SequentialStream>(
        new OneUnitFileStream(fd, file_size, start, end, unit, stats));
  }
  // Sec. 2.2.3: at most prefetch_depth units in flight ahead of the
  // consumer -- and a range never needs more than it holds.
  const uint64_t depth =
      static_cast<uint64_t>(std::max(1, options.read.prefetch_depth));
  const size_t credit = static_cast<size_t>(std::min(depth, units));
  return std::unique_ptr<SequentialStream>(
      new AsyncFileStream(fd, file_size, start, end, unit, credit, stats));
}

}  // namespace rodb
