#ifndef RODB_ENGINE_EXEC_STATS_H_
#define RODB_ENGINE_EXEC_STATS_H_

#include "engine/query_context.h"
#include "hwmodel/cpu_model.h"
#include "io/io.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace rodb {

/// Execution-statistics sink shared by all operators of one query plan.
/// Collects the semantic event counters (the PAPI substitute, see
/// hwmodel/cpu_model.h) plus raw I/O statistics per stream, and carries
/// the optional per-query trace the operators' SpanTimers record into.
class ExecStats {
 public:
  ExecCounters& counters() { return counters_; }
  const ExecCounters& counters() const { return counters_; }

  /// I/O stats sink handed to streams; folded into the counters by
  /// FoldIo() when the query finishes.
  IoStats* io_stats() { return &io_; }

  /// Optional span tree for this query (obs/span.h). Null (the default)
  /// disables span timing entirely; operators must tolerate both.
  obs::QueryTrace* trace() { return trace_; }
  void set_trace(obs::QueryTrace* trace) { trace_ = trace; }

  /// Optional query lifecycle context (engine/query_context.h), not
  /// owned. Scanners and operators call CheckAlive() at page/morsel
  /// boundaries; null (the default) means "runs forever, never
  /// cancelled" so existing call sites keep working unchanged.
  const QueryContext* context() const { return context_; }
  void set_context(const QueryContext* context) { context_ = context; }

  /// OK when no context is attached or the context says to keep going.
  Status CheckAlive() const {
    return context_ == nullptr ? Status::OK() : context_->CheckAlive();
  }

  /// Adds the accumulated I/O statistics into the counters (idempotent:
  /// uses and clears the pending I/O record) and mirrors the counters'
  /// growth into the process-wide metrics registry.
  void FoldIo() {
    counters_.io_bytes_read += io_.bytes_read;
    counters_.io_requests += io_.requests;
    counters_.files_read += io_.files_opened;
    counters_.io_bytes_from_cache += io_.bytes_from_cache;
    counters_.io_cache_hits += io_.cache_hits;
    counters_.io_cache_misses += io_.cache_misses;
    io_ = IoStats{};
    MirrorToRegistry();
  }

  /// Memory-pattern helpers (see DESIGN.md substitution #2). A scanner
  /// that streams a page sequentially reports the bytes once; sparse
  /// accesses are reported as random line touches.
  void AddSequentialBytes(uint64_t bytes) {
    counters_.seq_bytes_touched += bytes;
    counters_.l1_lines_touched += bytes / 64;
  }
  void AddRandomTouches(uint64_t touches) {
    counters_.random_line_accesses += touches;
    counters_.l1_lines_touched += touches;
  }

 private:
  /// Operators accumulate straight into counters_, so mirroring keeps a
  /// high-water copy and publishes only the growth since the last call:
  /// FoldIo stays idempotent when called at both EOF and Close.
  void MirrorToRegistry() {
#define RODB_EXEC_COUNTER(field, phase, span, metric, scaling)             \
  {                                                                         \
    static obs::Counter* const mirror = RegistryCounter(metric);            \
    if (mirror != nullptr) mirror->Add(counters_.field - mirrored_.field);  \
  }
#include "hwmodel/exec_counters.def"
    mirrored_ = counters_;
  }

  static obs::Counter* RegistryCounter(const char* metric) {
    return metric == nullptr
               ? nullptr
               : obs::MetricsRegistry::Default().GetCounter(metric);
  }

  ExecCounters counters_;
  /// counters_ as of the last MirrorToRegistry().
  ExecCounters mirrored_;
  IoStats io_;
  obs::QueryTrace* trace_ = nullptr;
  const QueryContext* context_ = nullptr;
};

}  // namespace rodb

#endif  // RODB_ENGINE_EXEC_STATS_H_
