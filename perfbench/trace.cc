#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace perfbench {

namespace {

std::atomic<uint64_t> recorder_serial{0};
thread_local uint64_t tls_current_span = 0;
thread_local uint64_t tls_current_request = 0;
/// The calling thread's buffer in the recorder numbered tls_serial.
thread_local uint64_t tls_serial = 0;
thread_local std::vector<Span>* tls_buffer = nullptr;

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class TimedStream : public rodb::SequentialStream {
 public:
  TimedStream(std::unique_ptr<rodb::SequentialStream> inner,
              SpanRecorder* recorder)
      : inner_(std::move(inner)), recorder_(recorder) {}

  ~TimedStream() override {
    ScopedSpan span(recorder_, "io.close");
    inner_.reset();
  }

  rodb::Result<rodb::IoView> Next() override {
    ScopedSpan span(recorder_, "io.next");
    rodb::Result<rodb::IoView> view = inner_->Next();
    if (view.ok()) span.set_value(view->size);
    return view;
  }

  uint64_t file_size() const override { return inner_->file_size(); }

 private:
  std::unique_ptr<rodb::SequentialStream> inner_;
  SpanRecorder* recorder_;
};

}  // namespace

SpanRecorder::SpanRecorder() : serial_(recorder_serial.fetch_add(1) + 1) {}

std::vector<Span>* SpanRecorder::ThreadBuffer() {
  if (tls_serial != serial_) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<std::vector<Span>>());
    tls_buffer = buffers_.back().get();
    tls_serial = serial_;
  }
  return tls_buffer;
}

void SpanRecorder::Add(const Span& span) { ThreadBuffer()->push_back(span); }

std::vector<Span> SpanRecorder::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> all;
  for (auto& buffer : buffers_) {
    all.insert(all.end(), buffer->begin(), buffer->end());
    buffer->clear();
  }
  return all;
}

bool WriteSpansTsv(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id\tparent\trequest\tname\tstart_ns\tend_ns\tvalue\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%llu\t%llu\t%llu\t%s\t%lld\t%lld\t%llu\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.name,
                 static_cast<long long>(s.start),
                 static_cast<long long>(s.end),
                 static_cast<unsigned long long>(s.value));
  }
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(SpanRecorder* recorder, const char* name,
                       uint64_t request)
    : recorder_(recorder != nullptr && recorder->enabled() ? recorder
                                                            : nullptr) {
  if (recorder_ == nullptr) return;
  span_.id = recorder_->NextId();
  span_.parent = tls_current_span;
  span_.request = request != 0 ? request : tls_current_request;
  span_.name = name;
  saved_current_ = tls_current_span;
  saved_request_ = tls_current_request;
  tls_current_span = span_.id;
  tls_current_request = span_.request;
  span_.start = NowNanos();
}

ScopedSpan::~ScopedSpan() {
  if (recorder_ == nullptr) return;
  span_.end = NowNanos();
  tls_current_span = saved_current_;
  tls_current_request = saved_request_;
  recorder_->Add(span_);
}

int64_t SelfNanos(int64_t start, int64_t end,
                  std::vector<std::pair<int64_t, int64_t>> children) {
  for (auto& [s, e] : children) {
    s = std::max(s, start);
    e = std::min(e, end);
  }
  std::sort(children.begin(), children.end());
  int64_t covered = 0;
  int64_t reach = start;
  for (const auto& [s, e] : children) {
    if (e <= s) continue;
    const int64_t from = std::max(s, reach);
    if (e > from) {
      covered += e - from;
      reach = e;
    }
  }
  return (end - start) - covered;
}

rodb::Result<std::unique_ptr<rodb::SequentialStream>>
TimingBackend::OpenStream(const std::string& path,
                          const rodb::IoOptions& options) {
  ScopedSpan span(recorder_, "io.open");
  rodb::Result<std::unique_ptr<rodb::SequentialStream>> stream =
      inner_->OpenStream(path, options);
  if (!stream.ok()) return stream.status();
  return std::unique_ptr<rodb::SequentialStream>(
      std::make_unique<TimedStream>(std::move(stream).value(), recorder_));
}

}  // namespace perfbench
