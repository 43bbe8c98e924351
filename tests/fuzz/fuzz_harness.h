#ifndef RODB_TESTS_FUZZ_FUZZ_HARNESS_H_
#define RODB_TESTS_FUZZ_FUZZ_HARNESS_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/result.h"

namespace rodb::fuzz {

/// Configuration of one differential fuzz run. Everything the run does is
/// a pure function of this struct: the same options produce byte-identical
/// datasets, identical queries and identical outcomes (fault injection
/// included), so any failure reproduces from the printed seed alone.
struct FuzzOptions {
  uint64_t seed = 1;
  int iterations = 100;
  /// Degree of parallelism for the ParallelExecute runs.
  int parallelism = 3;
  /// Tuples per generated dataset, drawn uniformly from this range.
  uint32_t min_tuples = 50;
  uint32_t max_tuples = 1200;
  /// Zone-map pruning axis: -1 draws spec.prune per query (the default
  /// differential mode), 0 forces every query unpruned, 1 forces every
  /// query pruned. The CI matrix pins both extremes via RODB_PRUNE; the
  /// per-query draw is consumed either way so datasets and queries stay
  /// byte-identical across the three settings.
  int force_prune = -1;
  /// Per-iteration progress lines (one-line summaries go here too).
  bool verbose = false;
  /// Where log output goes; null = silent.
  std::ostream* out = nullptr;
};

/// What a fuzz run did and found. `mismatches` counts oracle
/// disagreements and crashes of the "never silently wrong" contract --
/// it must be zero; `failures` holds one reproducible description each.
struct FuzzStats {
  uint64_t iterations = 0;
  uint64_t clean_runs = 0;        ///< engine runs cross-checked vs oracle
  uint64_t fault_runs = 0;        ///< runs against the fault-injecting I/O
  uint64_t fault_errors = 0;      ///< fault runs -> clean Status error
  uint64_t fault_successes = 0;   ///< fault runs -> ok, matched the oracle
  /// Faults the serial fault-injected runs fired (the serial-fault and
  /// cached-fault legs), so the count replays exactly from the seed. The
  /// parallel faulted leg is left out: a failing worker cancels its
  /// siblings, which stop after a timing-dependent number of draws (each
  /// per-stream sequence is still seeded).
  uint64_t injected_faults = 0;
  uint64_t invariance_checks = 0; ///< stats-invariance cross-checks performed
  /// Vectorized-kernel axis: each query randomly runs either the batched
  /// selection-mask kernels (spec.vectorized) or the value-at-a-time
  /// engine; both sides must match the oracle exactly.
  uint64_t vectorized_queries = 0;
  uint64_t scalar_queries = 0;
  /// Zone-map pruning axis: each query randomly enables spec.prune (or is
  /// pinned by FuzzOptions::force_prune); pruned runs must match the
  /// oracle through every other axis -- faults and retries included.
  uint64_t pruned_queries = 0;
  uint64_t unpruned_queries = 0;
  /// Corrupted-synopsis runs: the sidecar is bit-flipped or truncated,
  /// the table reopened, and a pruned scan must degrade to the exact
  /// full-scan answer (or a clean Corruption error) -- never lose rows.
  uint64_t synopsis_corrupt_runs = 0;
  /// Resilience axis: every run executes under a QueryContext (deadline,
  /// cancellation, bounded retries) and must either match the oracle or
  /// fail with Cancelled / DeadlineExceeded / IoError -- never hang,
  /// crash or silently truncate.
  uint64_t resilience_runs = 0;
  uint64_t cancelled_runs = 0;    ///< pre-cancelled ctx -> kCancelled
  uint64_t deadline_runs = 0;     ///< expired deadline -> kDeadlineExceeded
  uint64_t live_deadline_runs = 0;///< racing a real deadline (not folded)
  /// Retry reconciliation against the injected-fault log: with the retry
  /// layer directly above the injector, every injected transient error is
  /// re-issued or given up on, exactly:
  ///   retry_injected == retry_attempts + retry_giveups.
  uint64_t retry_injected = 0;
  uint64_t retry_attempts = 0;
  uint64_t retry_giveups = 0;
  uint64_t mismatches = 0;        ///< MUST be zero
  /// Order-sensitive FNV-1a digest of every dataset and every outcome
  /// (status codes, row counts, output checksums -- no messages or
  /// paths). Two runs with equal options must produce equal hashes.
  uint64_t state_hash = 0;
  std::vector<std::string> failures;
};

/// Runs `options.iterations` differential-fuzz iterations. Each iteration
/// generates a random schema + codec assignment + dataset + query,
/// materializes it as row, column and PAX tables (compressed and
/// uncompressed twins), and cross-checks every scanner x {serial,
/// parallel} x {clean I/O, fault-injected I/O} against the reference
/// oracle (ReferenceScan / ReferenceAggregate).
///
/// Returns an error Status only for harness-level problems (e.g. the
/// temp directory cannot be created); oracle disagreements are reported
/// through FuzzStats::mismatches / failures.
Result<FuzzStats> RunFuzz(const FuzzOptions& options);

}  // namespace rodb::fuzz

#endif  // RODB_TESTS_FUZZ_FUZZ_HARNESS_H_
