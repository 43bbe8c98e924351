#ifndef RODB_ENGINE_PARALLEL_EXECUTOR_H_
#define RODB_ENGINE_PARALLEL_EXECUTOR_H_

#include <vector>

#include "common/thread_pool.h"
#include "engine/executor.h"
#include "engine/scan_spec.h"
#include "io/io.h"
#include "obs/span.h"
#include "storage/catalog.h"

namespace rodb {

/// A table scan to run morsel-parallel. Each worker runs exactly the scan
/// a serial query runs -- OpenScanner over its morsel, drained by Drain --
/// with its own streams and its own ExecStats; the outputs are merged on
/// the calling thread.
struct ParallelScanPlan {
  const OpenTable* table = nullptr;  ///< borrowed
  ScanSpec spec;                     ///< whole-table scan spec
  IoBackend* backend = nullptr;      ///< borrowed; must allow concurrent
                                     ///< OpenStream + independent streams
  /// Optional span tree (obs/span.h). The serial fallback traces the full
  /// scan; parallel runs record per-worker wall time (morsel spans), the
  /// merge, and the finalized counters -- workers keep their own
  /// untraced ExecStats so the single-writer I/O contract holds.
  obs::QueryTrace* trace = nullptr;
  /// Optional query lifecycle context (borrowed; engine/query_context.h).
  /// Workers run under a derived child context, so a failing worker
  /// cancels its siblings without ever cancelling the caller's token;
  /// deadline, memory budget and retry policy pass through unchanged.
  /// Null = run to completion.
  const QueryContext* context = nullptr;
};

/// What a parallel execution produced.
struct ParallelResult {
  /// rows / blocks / output_checksum / measured wall time. The checksum
  /// is chained over worker outputs in morsel order and equals the serial
  /// Execute() checksum for the same scan.
  ExecutionResult result;
  /// Per-worker counters summed, with the I/O counters normalized to
  /// their single-stream (serial-scan) equivalents so ModelQueryTiming
  /// yields the same Section-5 numbers regardless of the degree of
  /// parallelism: bytes already sum exactly (morsels partition each
  /// file); requests are recomputed as ceil(file bytes / I/O unit) per
  /// serial stream; files as the serial stream count.
  ExecCounters counters;
  int morsels = 0;  ///< morsels actually executed (1 = ran serially)
};

/// Splits a whole-table scan into at most `parallelism` morsel specs.
///
/// Row/PAX tables split the single file into page-aligned byte ranges
/// (PartitionFile). Column tables split the position space, aligned so
/// that every column file the scan touches splits at page boundaries
/// (the LCM of the files' values-per-page, or the driving column's when
/// the LCM outgrows the table); this requires uniform page value counts
/// (TableMeta::PageValues) on every involved file -- otherwise, and for
/// `parallelism` <= 1, the original spec comes back as a single morsel.
std::vector<ScanSpec> PlanMorsels(const OpenTable& table, const ScanSpec& spec,
                                  int parallelism);

/// Runs the scan with `parallelism` workers on `pool` (ThreadPool::Shared
/// when null) and merges: output bytes are concatenated in morsel order
/// (checksum-chained, never reordered) and per-worker counters are
/// summed + normalized as described above. Falls back to serial
/// execution (identical to Execute) when the table cannot be partitioned
/// or `parallelism` <= 1.
Result<ParallelResult> ParallelExecute(const ParallelScanPlan& plan,
                                       int parallelism,
                                       ThreadPool* pool = nullptr);

}  // namespace rodb

#endif  // RODB_ENGINE_PARALLEL_EXECUTOR_H_
