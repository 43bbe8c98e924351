#ifndef RODB_SERVER_CIRCULATING_SCAN_H_
#define RODB_SERVER_CIRCULATING_SCAN_H_

#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "engine/query_context.h"
#include "engine/scan_spec.h"
#include "io/io.h"
#include "server/query_request.h"
#include "storage/catalog.h"

namespace rodb {

/// One circulating scan per hot table: the push-based multi-query
/// storage manager at the heart of the scan-sharing server (in the
/// spirit of "High Throughput Push Based Storage Manager", PAPERS.md;
/// the paper's Section 2.1.1 notes scan sharing is orthogonal to data
/// placement, which is why this sits above the layout scanners).
///
/// A single circulator thread reads the table block by block, lap after
/// lap, while at least one query is attached. Queries attach MID-FLIGHT
/// at the next window (block) boundary -- arrivals since the previous
/// boundary are admitted together, so admission is batched -- and
/// complete after exactly one full circulation: a query attaching at
/// tuple cursor P sees positions [P, N) of the current lap and [0, P)
/// of the next, every page exactly once. Per-query predicates and
/// projections are evaluated against the shared block stream on the
/// circulator thread; one table parse feeds every attached query.
///
/// Lifecycle rules queries rely on:
///  - deadlines and cancellation (QueryContext) are honored at window
///    boundaries: a dead query detaches with its lifecycle status while
///    the circulation keeps serving the others;
///  - collected-row buffers debit the query's MemoryBudget; exhaustion
///    fails that query alone with ResourceExhausted;
///  - a scan error (I/O, corruption) fails every attached and pending
///    query with that error and resets the circulation;
///  - Stop() fails everything with Cancelled and joins the thread.
class CirculatingScan {
 public:
  struct Options {
    /// Tuples per delivery window. Block boundaries are deterministic
    /// lap over lap (same spec every lap), which is what makes
    /// "complete when the cursor wraps to the attach position" exact.
    uint32_t block_tuples = 1024;
    /// I/O knobs for the circulating stream (unit size, prefetch,
    /// optional shared BlockCache).
    ReadOptions read;
    /// Backstop on queries waiting for the next window boundary; the
    /// engine's shared AdmissionController is the real gate.
    size_t max_pending = 8192;
  };

  /// Diagnostics snapshot.
  struct Stats {
    uint64_t laps = 0;            ///< completed circulations
    uint64_t queries_served = 0;  ///< queries completed OK
    uint64_t attach_batches = 0;  ///< boundaries that admitted >= 1 query
    size_t attached = 0;          ///< currently attached
    size_t pending = 0;           ///< waiting for the next boundary
  };

  /// `table` is shared with the engine's table cache; `backend` is
  /// borrowed and must outlive the scan.
  CirculatingScan(std::shared_ptr<const OpenTable> table, IoBackend* backend,
                  Options options);
  ~CirculatingScan();

  CirculatingScan(const CirculatingScan&) = delete;
  CirculatingScan& operator=(const CirculatingScan&) = delete;

  /// Submits one query -- `request` with its scan resolved to `spec`
  /// (projection expanded, attributes validated) -- and blocks the
  /// calling thread until it has seen one full circulation (or died at a
  /// window boundary). Thread-safe; any number of callers may be in
  /// flight.
  Result<QueryResult> Run(const QueryRequest& request, const ScanSpec& spec,
                          QueryContext ctx);

  /// Fails every in-flight query with Cancelled and joins the
  /// circulator thread. Idempotent; called by the engine on shutdown.
  void Stop();

  Stats stats() const;

 private:
  /// One attached (or pending) query. Mutated by the circulator thread
  /// only; the submitting thread reads `done`/`status`/`result` under
  /// the scan mutex after the done flag flips.
  struct Query {
    Query(const QueryRequest& request, QueryContext context)
        : ctx(std::move(context)), fold(request, &ctx, &result) {}
    Query(const Query&) = delete;  // `fold` points into this object
    Query& operator=(const Query&) = delete;

    // Immutable after construction.
    std::vector<Predicate> predicates;  ///< schema-indexed
    std::vector<int> proj_offsets;      ///< byte offsets in the full block
    std::vector<int> proj_widths;
    QueryContext ctx;

    // Accumulators (circulator thread only until done); `result` is the
    // completion payload.
    QueryResult result;
    ResultFold fold;
    std::vector<uint8_t> scratch;  ///< one window's projected tuples
    uint64_t delivered = 0;  ///< tuples of the circulation seen so far
    /// Set mid-window (e.g. budget exhaustion); the query completes
    /// with it at the next boundary.
    Status deferred_failure;

    // Completion handshake (guarded by CirculatingScan::mu_).
    bool done = false;
    Status status;
  };

  void ThreadMain();
  /// One full circulation (or a partial one that went idle/stopped).
  Status RunLap();
  /// Admits every pending query at tuple cursor `pos`, reaps dead or
  /// deferred-failed queries, completes queries whose circulation is
  /// full. Returns the number of live attached queries. Lock held.
  size_t BoundaryLocked(uint64_t pos);
  void CompleteLocked(const std::shared_ptr<Query>& query, Status status,
                      uint64_t pos);
  void FailAllLocked(const Status& status);
  /// Evaluates one shared block for one query (no lock; circulator
  /// thread owns the accumulators).
  void DeliverBlock(Query* query, const class TupleBlock& block);

  std::shared_ptr<const OpenTable> table_;
  IoBackend* backend_;
  Options options_;
  uint64_t total_tuples_ = 0;
  BlockLayout full_layout_;

  mutable std::mutex mu_;
  std::condition_variable cv_work_;  ///< wakes the circulator
  std::condition_variable cv_done_;  ///< wakes submitters
  std::deque<std::shared_ptr<Query>> pending_;
  std::vector<std::shared_ptr<Query>> attached_;
  std::thread thread_;
  bool thread_running_ = false;
  bool stop_ = false;
  uint64_t lap_ = 0;
  uint64_t queries_served_ = 0;
  uint64_t attach_batches_ = 0;
};

}  // namespace rodb

#endif  // RODB_SERVER_CIRCULATING_SCAN_H_
