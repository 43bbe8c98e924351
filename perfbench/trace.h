#ifndef RODB_PERFBENCH_TRACE_H_
#define RODB_PERFBENCH_TRACE_H_

// The benchmark's own spans. They are recorded from outside the program,
// around calls into each layer's public functions, and only in the
// traced run: an untraced run installs no recorder and no decorator.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "io/io.h"

namespace perfbench {

/// One recorded span. `parent` is the span that was open on the same
/// thread when this one began (0 = none), `request` the request id that
/// span carried. `value` is a payload some spans carry (bytes for
/// io.next).
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  const char* name = "";
  int64_t start = 0;
  int64_t end = 0;
  uint64_t value = 0;
};

/// In-memory span store; written out once at exit. Each recording thread
/// appends to its own buffer, so recording takes no shared lock after a
/// thread's first span. While disabled, new spans are not recorded (a
/// traced run can alternate traced and untraced time slices to measure
/// its own overhead).
class SpanRecorder {
 public:
  SpanRecorder();
  uint64_t NextId() { return next_id_.fetch_add(1) + 1; }
  void Add(const Span& span);
  /// Every span recorded so far. Call only once no thread records.
  std::vector<Span> Take();
  void set_enabled(bool enabled) { enabled_.store(enabled); }
  bool enabled() const { return enabled_.load(); }

 private:
  std::vector<Span>* ThreadBuffer();

  const uint64_t serial_;
  std::atomic<uint64_t> next_id_{0};
  std::atomic<bool> enabled_{true};
  std::mutex mu_;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_;
};

/// Tab-separated dump: id, parent, request, name, start, end, value.
bool WriteSpansTsv(const std::string& path, const std::vector<Span>& spans);

/// RAII span. A null or disabled recorder makes it a no-op. A nonzero
/// `request` starts a new request scope on this thread; zero inherits
/// the enclosing one.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, uint64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return span_.id; }
  void set_value(uint64_t value) { span_.value = value; }

 private:
  SpanRecorder* recorder_;
  Span span_;
  uint64_t saved_current_ = 0;
  uint64_t saved_request_ = 0;
};

/// Duration of [start, end) minus the part of it covered by the union of
/// `children` (clipped to the span; they may overlap and may run on other
/// threads).
int64_t SelfNanos(int64_t start, int64_t end,
                  std::vector<std::pair<int64_t, int64_t>> children);

/// IoBackend decorator that times every OpenStream, every Next and every
/// stream teardown as spans. It forwards each call and its IoOptions
/// unchanged, so what the engine counts is what it would count without
/// it.
class TimingBackend : public rodb::IoBackend {
 public:
  TimingBackend(rodb::IoBackend* inner, SpanRecorder* recorder)
      : inner_(inner), recorder_(recorder) {}

  rodb::Result<std::unique_ptr<rodb::SequentialStream>> OpenStream(
      const std::string& path, const rodb::IoOptions& options) override;

 private:
  rodb::IoBackend* inner_;
  SpanRecorder* recorder_;
};

}  // namespace perfbench

#endif  // RODB_PERFBENCH_TRACE_H_
