#ifndef RODB_OBS_SPAN_H_
#define RODB_OBS_SPAN_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "hwmodel/cpu_model.h"

namespace rodb::obs {

/// Per-query trace spans (DESIGN.md "Observability").
///
/// A query trace is a fixed-shape span tree over the read path's phases:
/// the engine does not allocate span objects per block or per I/O unit;
/// each phase owns one inclusive-nanoseconds accumulator that scoped
/// SpanTimer instances add into. The canonical tree (parent/child
/// nesting) is a property of the pipeline shape and is assembled once at
/// export time, so the hot path stays at two clock reads and one relaxed
/// fetch_add per timed section.

/// The span taxonomy. Order here is the canonical outer-to-inner pipeline
/// order used for nesting and for the model-vs-measured phase-ordering
/// check (open -> scan -> decode -> filter -> project -> aggregate ->
/// merge).
enum class TracePhase : uint8_t {
  kQuery = 0,    ///< whole Execute()/ParallelExecute() call
  kOpen,         ///< operator/stream Open()
  kScan,         ///< scanner Next() (page parse + qualify + emit)
  kIo,           ///< blocking SequentialStream::Next() calls
  kDecode,       ///< per-codec value decode (counter-only, no wall time)
  kFilter,       ///< FilterOperator::Next
  kProject,      ///< ProjectOperator::Next
  kAggregate,    ///< hash/sort aggregate Next
  kSort,         ///< sort / top-n Next
  kMerge,        ///< parallel executor's merge of worker outputs
  kMorsel,       ///< summed per-worker wall time (parallel runs)
  kIoRetry,      ///< backoff + re-issue of transient I/O failures
};
inline constexpr size_t kNumTracePhases =
    static_cast<size_t>(TracePhase::kIoRetry) + 1;

/// Stable lowercase name ("scan", "io", ...).
const char* PhaseName(TracePhase phase);

/// One exported span: phase, nesting depth, timings and counters. The
/// vector returned by QueryTrace::Spans() lists parents before children.
struct SpanNode {
  TracePhase phase = TracePhase::kQuery;
  int depth = 0;
  uint64_t inclusive_nanos = 0;
  uint64_t self_nanos = 0;   ///< inclusive minus timed children
  uint64_t calls = 0;        ///< SpanTimer activations
  uint32_t first_activation = 0;  ///< 1-based order; 0 = counters only
  std::vector<std::pair<std::string, uint64_t>> counters;
};

/// Accumulates one query's span tree. Writes (AddPhaseNanos via
/// SpanTimer) are wait-free and safe from any thread; reads
/// (Finalize/Spans/export) must happen after the query quiesced.
class QueryTrace {
 public:
  QueryTrace() = default;
  QueryTrace(const QueryTrace&) = delete;
  QueryTrace& operator=(const QueryTrace&) = delete;

  /// Adds inclusive time to a phase; the first call stamps the phase's
  /// activation order.
  void AddPhaseNanos(TracePhase phase, uint64_t nanos);

  /// Attaches the canonical per-span counters from the query's folded
  /// ExecCounters (scan rows/pages, decode events, filter/project work,
  /// backend-vs-cache I/O; the span column of hwmodel/exec_counters.def).
  /// Call once after execution.
  void FinalizeFromCounters(const ExecCounters& c);

  uint64_t PhaseNanos(TracePhase phase) const {
    return nanos_[Index(phase)].load(std::memory_order_relaxed);
  }
  uint64_t PhaseCalls(TracePhase phase) const {
    return calls_[Index(phase)].load(std::memory_order_relaxed);
  }
  /// 1-based order in which the phase first recorded time; 0 if never.
  uint32_t ActivationOrder(TracePhase phase) const {
    return order_[Index(phase)].load(std::memory_order_relaxed);
  }
  /// True if the phase recorded time or carries finalized counters.
  bool Present(TracePhase phase) const;

  /// Timed phases sorted by first activation. Spans report on
  /// completion, so the sequence runs deterministically inner-to-outer
  /// through the pull pipeline (open, then io before scan before
  /// filter/project/aggregate, query last) — the measured ordering the
  /// model-accuracy suite compares against the pipeline ordering.
  std::vector<TracePhase> ActivationSequence() const;

  /// The assembled span tree, parents before children, children in
  /// canonical pipeline order.
  std::vector<SpanNode> Spans() const;

  /// Indented two-column rendering of Spans().
  std::string ToText() const;
  /// Nested JSON rendering of Spans() ({"phase":...,"children":[...]}).
  std::string ToJson() const;

 private:
  static size_t Index(TracePhase phase) {
    return static_cast<size_t>(phase);
  }

  std::atomic<uint64_t> nanos_[kNumTracePhases] = {};
  std::atomic<uint64_t> calls_[kNumTracePhases] = {};
  std::atomic<uint32_t> order_[kNumTracePhases] = {};
  std::atomic<uint32_t> next_order_{1};
  bool finalized_ = false;
  std::vector<std::pair<std::string, uint64_t>>
      counters_[kNumTracePhases];
};

/// Scoped RAII timer adding its lifetime to one phase of a trace. A null
/// trace disables it entirely (no clock reads), which is how untraced
/// queries keep the instrumented hot paths free.
class SpanTimer {
 public:
  SpanTimer(QueryTrace* trace, TracePhase phase)
      : trace_(trace), phase_(phase) {
    if (trace_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~SpanTimer() {
    if (trace_ != nullptr) {
      const auto elapsed = std::chrono::steady_clock::now() - start_;
      trace_->AddPhaseNanos(
          phase_, static_cast<uint64_t>(
                      std::chrono::duration_cast<std::chrono::nanoseconds>(
                          elapsed)
                          .count()));
    }
  }
  SpanTimer(const SpanTimer&) = delete;
  SpanTimer& operator=(const SpanTimer&) = delete;

 private:
  QueryTrace* trace_;
  TracePhase phase_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace rodb::obs

#endif  // RODB_OBS_SPAN_H_
