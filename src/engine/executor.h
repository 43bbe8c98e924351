#ifndef RODB_ENGINE_EXECUTOR_H_
#define RODB_ENGINE_EXECUTOR_H_

#include <functional>
#include <vector>

#include "common/stopwatch.h"
#include "engine/exec_stats.h"
#include "engine/operator.h"
#include "engine/scan_spec.h"
#include "hwmodel/disk_model.h"
#include "hwmodel/hardware_config.h"
#include "hwmodel/time_breakdown.h"
#include "storage/catalog.h"

namespace rodb {

/// FNV-1a offset basis -- the checksum value of an empty output.
inline constexpr uint64_t kFnv1aSeed = 14695981039346656037ULL;

/// Extends a running FNV-1a hash over `size` bytes. The hash is chained
/// over the output stream in order (NOT combinable from independent
/// partial hashes), so parallel execution buffers each morsel's output
/// bytes and folds them through this in morsel order.
uint64_t Fnv1aExtend(uint64_t hash, const uint8_t* data, size_t size);

/// What one query execution produced.
struct ExecutionResult {
  uint64_t rows = 0;
  uint64_t blocks = 0;
  /// FNV-1a over the output tuple bytes, in order. Used to check that row
  /// and column plans produce identical results.
  uint64_t output_checksum = 0;
  /// Host wall clock / CPU actually spent (the "measured" numbers).
  MeasuredInterval measured;
};

/// Per-block work of a Drain, called once per non-empty block.
using BlockSink = std::function<Status(const TupleBlock& block)>;

/// The one loop that pulls a plan to exhaustion, whatever the execution
/// mode: opens `root` inside the `open` span, checks the query's
/// liveness before every Next, hands each non-empty block to `sink`, and
/// closes the plan and folds its pending I/O record on every exit (error
/// returns included), all inside the `query` span. A sink error stops
/// the drain and is returned.
Status Drain(Operator* root, ExecStats* stats, const BlockSink& sink);

/// Drives a plan to completion through Drain, folding rows, blocks and
/// the chained checksum, then finalizes the trace (if any) from the
/// counters. The stats sink accumulates the counters the hardware model
/// consumes.
Result<ExecutionResult> Execute(Operator* root, ExecStats* stats);

/// The disk streams a scan reads, for the disk-array model: the single
/// row file, or one stream per column the query touches (pipeline order).
std::vector<StreamSpec> ScanStreams(const OpenTable& table,
                                    const ScanSpec& spec);

/// Timing of a query on the modeled hardware (Section 5's overlap
/// assumption: CPU and I/O proceed concurrently, elapsed = max of the
/// two).
struct ModeledTiming {
  TimeBreakdown cpu;        ///< five-component CPU breakdown
  DiskSimResult disk;       ///< disk-array simulation
  double cpu_seconds = 0.0;
  double io_seconds = 0.0;
  double elapsed_seconds = 0.0;
  bool io_bound = false;
};

/// Converts the execution counters plus the scan's stream list into
/// modeled times on `hw`. `competing` describes concurrent disk traffic
/// (Figure 11); empty means an otherwise idle system.
ModeledTiming ModelQueryTiming(const ExecCounters& counters,
                               const HardwareConfig& hw, int prefetch_depth,
                               const std::vector<StreamSpec>& query_streams,
                               const std::vector<StreamSpec>& competing = {});

/// Shrinks a scan's stream list by the fraction of bytes a BlockCache
/// served: the disk model should only see the traffic that actually
/// reached the backend. A fully warm run (io_bytes_read == 0) maps to
/// empty streams, so ModelQueryTiming reports it CPU-bound; a cold run
/// passes through unchanged.
std::vector<StreamSpec> CacheAdjustedStreams(
    std::vector<StreamSpec> streams, const ExecCounters& counters);

/// Scales every kPerTuple counter by `factor`, used to project a scaled-
/// down run to the paper's 60M-tuple tables (I/O byte counters included;
/// see DESIGN.md substitution #4). kPerScan counts (files opened, prune
/// plans, ...) are copied unchanged.
ExecCounters ScaleCounters(const ExecCounters& counters, double factor);

}  // namespace rodb

#endif  // RODB_ENGINE_EXECUTOR_H_
