#ifndef RODB_SERVER_QUERY_ENGINE_H_
#define RODB_SERVER_QUERY_ENGINE_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "engine/admission.h"
#include "io/block_cache.h"
#include "io/io.h"
#include "server/circulating_scan.h"
#include "server/query_request.h"
#include "storage/catalog.h"
#include "wos/ingest_store.h"

namespace rodb {

/// Configuration of a QueryEngine. Defaults suit the scan-sharing
/// server: a handful of exclusive scans at a time, thousands of shared
/// attachments.
struct EngineOptions {
  /// Gate for exclusive (one-scan-per-query) executions: each holds a
  /// slot for its whole run, waiting queries queue up to `max_queue`,
  /// overflow is shed with ResourceExhausted.
  AdmissionOptions exclusive;
  /// Gate for shared (circulating-scan) queries: a slot is held while
  /// attached. The high cap is the point -- attached queries cost one
  /// predicate/projection pass per window, not a scan.
  AdmissionOptions shared;
  /// Block cache shared by every scan the engine runs; 0 = none.
  uint64_t cache_bytes = 0;
  /// Master switch for the circulating scans; off forces every query
  /// exclusive (the paper's baseline model).
  bool scan_sharing = true;
  /// Delivery window of the circulating scans, in tuples.
  uint32_t shared_block_tuples = 1024;
  /// I/O knobs for the circulating scans (unit size, prefetch depth).
  /// The engine's BlockCache is layered on top regardless of the cache
  /// field here.
  ReadOptions shared_read;
  /// I/O backend override (borrowed; tests and benches inject MemBackend
  /// or fault-injecting stacks). Null = the engine owns a FileBackend.
  IoBackend* backend = nullptr;

  EngineOptions() {
    exclusive.max_concurrent = 8;
    exclusive.max_queue = 1024;
    shared.max_concurrent = 4096;
    shared.max_queue = 4096;
  }
};

/// The execution half of the public API: resolves a QueryRequest
/// against a database directory and runs it through the right machinery
/// -- the table's circulating shared scan, a serial exclusive plan, or
/// a morsel-parallel plan -- under admission control, a shared block
/// cache and the query's lifecycle context. `Database::Execute` is a
/// thin forwarder to this class.
///
/// Thread-safe: any number of threads may call Execute concurrently;
/// that is the server's whole reason to exist.
class QueryEngine {
 public:
  explicit QueryEngine(std::string dir, EngineOptions options = {});
  ~QueryEngine();

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Executes one query to completion and returns what it produced.
  /// Queries against an ingest-attached table run exclusively against
  /// an epoch-pinned snapshot (ROS + frozen segments + in-memory tail).
  Result<QueryResult> Execute(const QueryRequest& request);

  /// Attaches (first call) or reopens the continuous-ingest lifecycle
  /// for `table`; idempotent once attached. The name must not collide
  /// with a bulk-loaded table -- ingest tables shadow the catalog.
  Status EnsureIngest(const std::string& table, const Schema& schema,
                      const IngestOptions& options = {});

  /// Appends one batch (attaching the table first if the request
  /// carries a schema) and applies its freeze/merge nudges.
  Result<IngestResult> Ingest(const IngestRequest& request);

  /// The table's ingest store, or null if not attached. The shared_ptr
  /// keeps the store (and its background merge) alive across Shutdown.
  std::shared_ptr<IngestStore> ingest(const std::string& table);

  /// Freezes the active segment of every attached ingest store, which
  /// publishes acknowledged-but-unsealed appends behind a synced
  /// manifest write. The server's drain path calls this before
  /// Shutdown so no acknowledged batch rides only in process memory.
  Status FlushIngest();

  /// Stops every circulating scan (failing in-flight queries with
  /// Cancelled) and detaches every ingest store, waiting out in-flight
  /// background merges. Called by the destructor; idempotent.
  void Shutdown();

  const EngineOptions& options() const { return options_; }
  BlockCache* cache() { return cache_.get(); }
  /// Diagnostics for one table's circulating scan (zeroes if none).
  CirculatingScan::Stats SharedScanStats(const std::string& table);

 private:
  Result<std::shared_ptr<const OpenTable>> GetTable(const std::string& name);
  std::shared_ptr<CirculatingScan> GetScan(
      const std::string& name, std::shared_ptr<const OpenTable> table);
  /// Mode resolution + dispatch; *shared_out stays -1 if the request
  /// fails before reaching an executor, else 0/1 for the mode split.
  Result<QueryResult> ExecuteResolved(const QueryRequest& request,
                                      int* shared_out);
  /// The executors below receive the request's resolved scan `spec`.
  Result<QueryResult> ExecuteShared(const QueryRequest& request,
                                    const ScanSpec& spec,
                                    std::shared_ptr<const OpenTable> table,
                                    QueryContext ctx);
  Result<QueryResult> ExecuteExclusive(const QueryRequest& request,
                                       const ScanSpec& spec,
                                       const OpenTable& table,
                                       QueryContext ctx);
  Result<QueryResult> ExecuteIngest(const QueryRequest& request,
                                    const ScanSpec& spec,
                                    const IngestStore& store,
                                    QueryContext ctx);

  std::string dir_;
  EngineOptions options_;
  std::unique_ptr<IoBackend> owned_backend_;
  IoBackend* backend_;  ///< owned_backend_ or the injected override
  std::unique_ptr<BlockCache> cache_;
  std::unique_ptr<AdmissionController> exclusive_admission_;
  std::unique_ptr<AdmissionController> shared_admission_;

  std::mutex mu_;
  std::map<std::string, std::shared_ptr<const OpenTable>> tables_;
  std::map<std::string, std::shared_ptr<CirculatingScan>> scans_;
  std::map<std::string, std::shared_ptr<IngestStore>> ingests_;
  bool shutdown_ = false;
};

}  // namespace rodb

#endif  // RODB_SERVER_QUERY_ENGINE_H_
