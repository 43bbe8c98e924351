#include "server/query_engine.h"

#include <functional>
#include <numeric>
#include <sstream>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/stopwatch.h"
#include "engine/executor.h"
#include "engine/open_scanner.h"
#include "engine/page_source.h"
#include "engine/parallel_executor.h"
#include "engine/scan_spec.h"
#include "engine/union_all.h"
#include "engine/zone_pruner.h"
#include "io/file_backend.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "wos/segment_source.h"

namespace rodb {

namespace {

struct EngineMetrics {
  obs::Counter* queries;
  obs::Counter* queries_shared;
  obs::Counter* queries_exclusive;
  obs::Counter* errors;
  obs::Histogram* latency_us;

  static EngineMetrics& Get() {
    static EngineMetrics m = [] {
      auto& reg = obs::MetricsRegistry::Default();
      EngineMetrics metrics;
      metrics.queries = reg.GetCounter("rodb.server.queries");
      metrics.queries_shared = reg.GetCounter("rodb.server.queries_shared");
      metrics.queries_exclusive =
          reg.GetCounter("rodb.server.queries_exclusive");
      metrics.errors = reg.GetCounter("rodb.server.errors");
      metrics.latency_us = reg.GetHistogram(
          "rodb.server.query_latency_us",
          obs::Histogram::ExponentialBounds(1, 4.0, 12));
      return metrics;
    }();
    return m;
  }
};

QueryContext MakeContext(const QueryRequest& request) {
  QueryContext ctx;
  ctx.set_token(request.cancel);
  if (request.timeout.count() > 0) {
    ctx.set_deadline(std::chrono::steady_clock::now() + request.timeout);
  }
  if (request.max_retries > 0) {
    ctx.set_retry_policy(RetryPolicy::BoundedBackoff(request.max_retries));
  }
  return ctx;
}

/// The request's scan as every mode runs it: an empty projection
/// widened to every attribute, the engine's block cache (if any) under
/// the request's read options, checked once against the schema.
Result<ScanSpec> ResolveScan(ScanSpec spec, const Schema& schema,
                             BlockCache* cache) {
  if (spec.projection.empty()) {
    spec.projection.resize(schema.num_attributes());
    std::iota(spec.projection.begin(), spec.projection.end(), 0);
  }
  if (cache != nullptr) spec.read.cache = cache;
  RODB_RETURN_IF_ERROR(ValidateScanAttrs(schema, spec));
  return spec;
}

/// Admits one run through `gate`, whose memory budget then funds the
/// run's buffers (collected rows, morsel outputs).
Result<AdmissionTicket> Admit(AdmissionController* gate,
                              uint64_t working_set, QueryContext* ctx) {
  ctx->set_memory_budget(gate->memory_budget());
  return gate->Admit(working_set, *ctx);
}

/// The tail every exclusive and snapshot run shares: builds the plan
/// under the query's stats, drains it through the result fold, finalizes
/// the trace and copies the counters out.
Status DrainInto(const QueryRequest& request, const QueryContext* ctx,
                 const std::function<Result<OperatorPtr>(ExecStats*)>& build,
                 QueryResult* result) {
  ExecStats stats;
  stats.set_context(ctx);
  stats.set_trace(request.trace);
  RODB_ASSIGN_OR_RETURN(OperatorPtr plan, build(&stats));
  ResultFold fold(request, ctx, result);
  RODB_RETURN_IF_ERROR(Drain(plan.get(), &stats, [&](const TupleBlock& b) {
    return fold.Add(b.tuple(0), b.size());
  }));
  if (request.trace != nullptr) {
    request.trace->FinalizeFromCounters(stats.counters());
  }
  result->counters = stats.counters();
  return Status::OK();
}

}  // namespace

QueryEngine::QueryEngine(std::string dir, EngineOptions options)
    : dir_(std::move(dir)), options_(options) {
  if (options_.backend != nullptr) {
    backend_ = options_.backend;
  } else {
    owned_backend_ = std::make_unique<FileBackend>();
    backend_ = owned_backend_.get();
  }
  if (options_.cache_bytes > 0) {
    cache_ = std::make_unique<BlockCache>(options_.cache_bytes);
  }
  exclusive_admission_ =
      std::make_unique<AdmissionController>(options_.exclusive);
  shared_admission_ = std::make_unique<AdmissionController>(options_.shared);
}

QueryEngine::~QueryEngine() { Shutdown(); }

void QueryEngine::Shutdown() {
  std::map<std::string, std::shared_ptr<CirculatingScan>> scans;
  std::map<std::string, std::shared_ptr<IngestStore>> ingests;
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    scans.swap(scans_);
    ingests.swap(ingests_);
  }
  for (auto& [name, scan] : scans) scan->Stop();
  // Dropping the map waits out each store's in-flight background merge
  // (in ~IngestStore) -- outside mu_, so concurrent Executes that
  // already hold a store reference are unaffected.
  ingests.clear();
}

Status QueryEngine::FlushIngest() {
  std::vector<std::shared_ptr<IngestStore>> stores;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stores.reserve(ingests_.size());
    for (auto& [name, store] : ingests_) stores.push_back(store);
  }
  // Freeze publishes each store's active segment behind a synced
  // manifest rename, so every acknowledged append survives a process
  // exit. Flush all stores even if one fails; report the first error.
  Status first = Status::OK();
  for (auto& store : stores) {
    Status frozen = store->Freeze();
    if (!frozen.ok() && first.ok()) first = frozen;
  }
  return first;
}

CirculatingScan::Stats QueryEngine::SharedScanStats(
    const std::string& table) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = scans_.find(table);
  return it == scans_.end() ? CirculatingScan::Stats{} : it->second->stats();
}

Result<std::shared_ptr<const OpenTable>> QueryEngine::GetTable(
    const std::string& name) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tables_.find(name);
    if (it != tables_.end()) return it->second;
  }
  // Open outside the lock (touches the filesystem); last writer wins.
  RODB_ASSIGN_OR_RETURN(OpenTable table, OpenTable::Open(dir_, name));
  auto shared = std::make_shared<const OpenTable>(std::move(table));
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = tables_.emplace(name, shared);
  return it->second;
}

std::shared_ptr<IngestStore> QueryEngine::ingest(const std::string& table) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ingests_.find(table);
  return it == ingests_.end() ? nullptr : it->second;
}

Status QueryEngine::EnsureIngest(const std::string& table,
                                 const Schema& schema,
                                 const IngestOptions& options) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) return Status::Cancelled("engine shutting down");
    if (ingests_.find(table) != ingests_.end()) return Status::OK();
  }
  // An ingest table takes over query dispatch for its name, so a plain
  // bulk-loaded table there would become unreachable -- refuse instead
  // of shadowing silently. (The store's own `<table>__gen*` /
  // `<table>__seg*` catalog entries are expected.)
  if (!IngestManifestExists(dir_, table) &&
      Catalog::LoadTableMeta(dir_, table).ok()) {
    return Status::InvalidArgument(
        "table '" + table + "' already exists as a bulk-loaded table");
  }
  // Open outside mu_ (reads the manifest, opens segment tables).
  RODB_ASSIGN_OR_RETURN(std::unique_ptr<IngestStore> store,
                        IngestStore::Open(dir_, table, schema, options));
  std::lock_guard<std::mutex> lock(mu_);
  if (shutdown_) return Status::Cancelled("engine shutting down");
  ingests_.emplace(table, std::shared_ptr<IngestStore>(std::move(store)));
  return Status::OK();
}

Result<IngestResult> QueryEngine::Ingest(const IngestRequest& request) {
  std::shared_ptr<IngestStore> store = ingest(request.table);
  if (store == nullptr) {
    if (request.schema_text.empty()) {
      return Status::InvalidArgument(
          "table '" + request.table +
          "' is not attached for ingest and the request carries no schema");
    }
    std::vector<std::string> lines;
    std::string line;
    std::istringstream in(request.schema_text);
    while (std::getline(in, line)) {
      if (!line.empty()) lines.push_back(line);
    }
    RODB_ASSIGN_OR_RETURN(Schema schema, Schema::ParseFrom(lines));
    IngestOptions options;
    options.layout = request.layout;
    options.sort_attr = request.sort_attr;
    RODB_RETURN_IF_ERROR(EnsureIngest(request.table, schema, options));
    store = ingest(request.table);
    if (store == nullptr) return Status::Cancelled("engine shutting down");
  }
  const uint64_t width =
      static_cast<uint64_t>(store->schema().raw_tuple_width());
  if (request.data.size() != request.count * width) {
    return Status::InvalidArgument(
        "ingest batch carries " + std::to_string(request.data.size()) +
        " bytes, expected " + std::to_string(request.count * width));
  }
  RODB_RETURN_IF_ERROR(store->AppendBatch(request.data.data(), request.count));
  if (request.freeze) RODB_RETURN_IF_ERROR(store->Freeze());
  if (request.merge) store->TriggerMerge();
  IngestResult out;
  out.appended_total = store->appended();
  out.epoch = store->epoch();
  out.frozen_segments = store->Acquire().num_frozen();
  return out;
}

std::shared_ptr<CirculatingScan> QueryEngine::GetScan(
    const std::string& name, std::shared_ptr<const OpenTable> table) {
  std::lock_guard<std::mutex> lock(mu_);
  if (shutdown_) return nullptr;
  auto it = scans_.find(name);
  if (it != scans_.end()) return it->second;
  CirculatingScan::Options scan_options;
  scan_options.block_tuples = options_.shared_block_tuples;
  scan_options.read = options_.shared_read;
  scan_options.read.cache = cache_.get();
  scan_options.max_pending = static_cast<size_t>(
      options_.shared.max_concurrent + options_.shared.max_queue);
  auto scan = std::make_shared<CirculatingScan>(std::move(table), backend_,
                                                scan_options);
  scans_.emplace(name, scan);
  return scan;
}

Result<QueryResult> QueryEngine::Execute(const QueryRequest& request) {
  auto& metrics = EngineMetrics::Get();
  IntervalTimer timer;
  // -1 until mode resolution succeeds, so a request that dies before
  // reaching an executor (unknown table, bad mode/range) still counts
  // under queries/errors but neither per-mode split.
  int shared = -1;
  Result<QueryResult> result = ExecuteResolved(request, &shared);
  metrics.queries->Increment();
  if (shared == 1) metrics.queries_shared->Increment();
  if (shared == 0) metrics.queries_exclusive->Increment();
  if (!result.ok()) {
    metrics.errors->Increment();
    return result;
  }
  result->wall_seconds = timer.Lap().wall_seconds;
  metrics.latency_us->Record(
      static_cast<uint64_t>(result->wall_seconds * 1e6));
  return result;
}

Result<QueryResult> QueryEngine::ExecuteResolved(const QueryRequest& request,
                                                 int* shared_out) {
  // Ingest-attached tables shadow the catalog: their data lives across
  // a ROS generation plus segments, so the catalog-table paths below
  // would see at most a stale slice of it.
  std::shared_ptr<IngestStore> store = ingest(request.table);
  std::shared_ptr<const OpenTable> table;
  if (store == nullptr) {
    RODB_ASSIGN_OR_RETURN(table, GetTable(request.table));
  }
  RODB_ASSIGN_OR_RETURN(
      const ScanSpec spec,
      ResolveScan(request.scan,
                  store != nullptr ? store->schema() : table->schema(),
                  cache_.get()));
  QueryContext ctx = MakeContext(request);

  if (store != nullptr) {
    if (request.mode == QueryMode::kShared) {
      return Status::NotSupported(
          "ingest tables execute exclusively against a snapshot");
    }
    if (!spec.range.is_all()) {
      return Status::InvalidArgument(
          "ingest tables scan whole snapshots (range must be All)");
    }
    if (request.parallelism > 1) {
      return Status::NotSupported(
          "ingest snapshot reads run serial (parallelism must be <= 1)");
    }
    *shared_out = 0;
    return ExecuteIngest(request, spec, *store, std::move(ctx));
  }

  bool shared = false;
  switch (request.mode) {
    case QueryMode::kExclusive:
      shared = false;
      break;
    case QueryMode::kShared:
      if (!options_.scan_sharing) {
        return Status::NotSupported("scan sharing disabled on this engine");
      }
      if (!spec.range.is_all()) {
        return Status::InvalidArgument(
            "shared queries scan the whole table (range must be All)");
      }
      shared = true;
      break;
    case QueryMode::kAuto:
      shared = options_.scan_sharing && spec.range.is_all() &&
               !request.ordered && request.parallelism <= 1 &&
               request.trace == nullptr;
      break;
  }
  *shared_out = shared ? 1 : 0;

  return shared
             ? ExecuteShared(request, spec, std::move(table), std::move(ctx))
             : ExecuteExclusive(request, spec, *table, std::move(ctx));
}

Result<QueryResult> QueryEngine::ExecuteShared(
    const QueryRequest& request, const ScanSpec& spec,
    std::shared_ptr<const OpenTable> table, QueryContext ctx) {
  // One shared-admission slot is held while attached; the controller's
  // bounded queue sheds overload and its budget becomes the query's
  // fair share for collected rows.
  RODB_ASSIGN_OR_RETURN(AdmissionTicket ticket,
                        Admit(shared_admission_.get(), 0, &ctx));
  std::shared_ptr<CirculatingScan> scan = GetScan(request.table, table);
  if (scan == nullptr) {
    return Status::Cancelled("engine shutting down");
  }
  return scan->Run(request, spec, std::move(ctx));
}

Result<QueryResult> QueryEngine::ExecuteExclusive(const QueryRequest& request,
                                                  const ScanSpec& spec,
                                                  const OpenTable& table,
                                                  QueryContext ctx) {
  RODB_ASSIGN_OR_RETURN(AdmissionTicket ticket,
                        Admit(exclusive_admission_.get(),
                              EstimateScanWorkingSet(table, spec), &ctx));

  QueryResult result;
  result.row_layout = BlockLayout::FromSchema(table.schema(),
                                              spec.projection);

  if (request.parallelism > 1 && !request.collect_rows) {
    ParallelScanPlan plan;
    plan.table = &table;
    plan.spec = spec;
    plan.backend = backend_;
    plan.trace = request.trace;
    plan.context = &ctx;
    RODB_ASSIGN_OR_RETURN(ParallelResult parallel,
                          ParallelExecute(plan, request.parallelism));
    result.rows = parallel.result.rows;
    result.blocks = parallel.result.blocks;
    result.output_checksum = parallel.result.output_checksum;
    result.morsels = parallel.morsels;
    // The morsel merge folds output buffers without re-walking tuples;
    // the order-independent digest stays 0 (QueryResult::row_digest).
    result.counters = parallel.counters;
    return result;
  }

  RODB_RETURN_IF_ERROR(DrainInto(
      request, &ctx,
      [&](ExecStats* stats) {
        return OpenScanner(table, spec, backend_, stats);
      },
      &result));
  return result;
}

Result<QueryResult> QueryEngine::ExecuteIngest(const QueryRequest& request,
                                               const ScanSpec& spec,
                                               const IngestStore& store,
                                               QueryContext ctx) {
  // Pin the snapshot before admission so its epoch reflects "when the
  // query arrived"; the leases it holds keep every referenced table
  // file alive for the whole run even if a merge commits meanwhile.
  Snapshot snap = store.Acquire();
  uint64_t working_set = 0;
  if (snap.ros() != nullptr) {
    working_set += EstimateScanWorkingSet(*snap.ros(), spec);
  }
  for (size_t i = 0; i < snap.num_frozen(); ++i) {
    working_set += EstimateScanWorkingSet(snap.frozen(i), spec);
  }
  RODB_ASSIGN_OR_RETURN(
      AdmissionTicket ticket,
      Admit(exclusive_admission_.get(), working_set, &ctx));

  QueryResult result;
  result.row_layout = BlockLayout::FromSchema(store.schema(), spec.projection);
  result.snapshot_epoch = snap.epoch();
  result.snapshot_tuples = snap.visible_tuples();

  // Snapshot parts in append order: ROS generation, frozen segments
  // oldest first, sealed in-memory segments, then the active tail.
  // UNION ALL of per-part scans delivers each visible tuple exactly
  // once; zone-map pruning (spec.prune) applies per on-disk part.
  auto build = [&](ExecStats* stats) -> Result<OperatorPtr> {
    std::vector<OperatorPtr> children;
    if (snap.ros() != nullptr) {
      RODB_ASSIGN_OR_RETURN(OperatorPtr scan,
                            OpenScanner(*snap.ros(), spec, backend_, stats));
      children.push_back(std::move(scan));
    }
    for (size_t i = 0; i < snap.num_frozen(); ++i) {
      RODB_ASSIGN_OR_RETURN(
          OperatorPtr scan, OpenScanner(snap.frozen(i), spec, backend_, stats));
      children.push_back(std::move(scan));
    }
    for (size_t i = 0; i < snap.num_sealed(); ++i) {
      RODB_ASSIGN_OR_RETURN(
          OperatorPtr scan,
          ActiveScanOperator::Make(store.schema(), snap.sealed(i), spec,
                                   stats));
      children.push_back(std::move(scan));
    }
    // Always present (possibly empty), so the union never lacks children.
    RODB_ASSIGN_OR_RETURN(
        OperatorPtr active,
        ActiveScanOperator::Make(store.schema(), snap.active(), spec, stats));
    children.push_back(std::move(active));
    return UnionAllOperator::Make(std::move(children), stats);
  };
  RODB_RETURN_IF_ERROR(DrainInto(request, &ctx, build, &result));
  return result;
}

}  // namespace rodb
