#include "server/circulating_scan.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/macros.h"
#include "engine/exec_stats.h"
#include "engine/open_scanner.h"
#include "engine/scan_spec.h"
#include "obs/metrics.h"

namespace rodb {

namespace {

struct ServerMetrics {
  obs::Counter* laps;
  obs::Counter* attach_batches;
  obs::Counter* attached_total;
  obs::Counter* shed;
  obs::Counter* tuples_delivered;
  obs::Counter* blocks_delivered;
  obs::Counter* lap_backend_bytes;
  obs::Counter* lap_cache_bytes;
  obs::Gauge* attached;
  obs::Gauge* queue_depth;

  static ServerMetrics& Get() {
    static ServerMetrics m = [] {
      auto& reg = obs::MetricsRegistry::Default();
      ServerMetrics metrics;
      metrics.laps = reg.GetCounter("rodb.server.laps");
      metrics.attach_batches = reg.GetCounter("rodb.server.attach_batches");
      metrics.attached_total = reg.GetCounter("rodb.server.attached_total");
      metrics.shed = reg.GetCounter("rodb.server.shed");
      metrics.tuples_delivered =
          reg.GetCounter("rodb.server.tuples_delivered");
      metrics.blocks_delivered =
          reg.GetCounter("rodb.server.blocks_delivered");
      metrics.lap_backend_bytes =
          reg.GetCounter("rodb.server.lap_backend_bytes");
      metrics.lap_cache_bytes = reg.GetCounter("rodb.server.lap_cache_bytes");
      metrics.attached = reg.GetGauge("rodb.server.attached");
      metrics.queue_depth = reg.GetGauge("rodb.server.attach_queue_depth");
      return metrics;
    }();
    return m;
  }
};

}  // namespace

CirculatingScan::CirculatingScan(std::shared_ptr<const OpenTable> table,
                                 IoBackend* backend, Options options)
    : table_(std::move(table)), backend_(backend),
      options_(std::move(options)),
      total_tuples_(table_->meta().num_tuples) {
  std::vector<int> all_attrs;
  for (size_t a = 0; a < table_->schema().num_attributes(); ++a) {
    all_attrs.push_back(static_cast<int>(a));
  }
  full_layout_ = BlockLayout::FromSchema(table_->schema(), all_attrs);
}

CirculatingScan::~CirculatingScan() { Stop(); }

Result<QueryResult> CirculatingScan::Run(const QueryRequest& request,
                                         const ScanSpec& spec,
                                         QueryContext ctx) {
  auto query = std::make_shared<Query>(request, std::move(ctx));
  for (int attr : spec.projection) {
    query->proj_offsets.push_back(full_layout_.offsets[attr]);
    query->proj_widths.push_back(full_layout_.widths[attr]);
  }
  query->predicates = spec.predicates;
  query->result.row_layout =
      BlockLayout::FromSchema(table_->schema(), spec.projection);

  auto& metrics = ServerMetrics::Get();
  std::unique_lock<std::mutex> lock(mu_);
  if (stop_) {
    return Status::Cancelled("circulating scan stopped");
  }
  if (pending_.size() >= options_.max_pending) {
    metrics.shed->Increment();
    return Status::ResourceExhausted("circulating scan attach queue full");
  }
  pending_.push_back(query);
  metrics.queue_depth->Set(static_cast<int64_t>(pending_.size()));
  if (!thread_running_) {
    if (thread_.joinable()) thread_.join();  // previous stopped instance
    thread_running_ = true;
    thread_ = std::thread([this] { ThreadMain(); });
  }
  cv_work_.notify_all();
  cv_done_.wait(lock, [&] { return query->done; });
  if (!query->status.ok()) return query->status;
  return std::move(query->result);
}

void CirculatingScan::Stop() {
  std::thread to_join;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    cv_work_.notify_all();
    to_join = std::move(thread_);
  }
  if (to_join.joinable()) to_join.join();
  std::lock_guard<std::mutex> lock(mu_);
  // The thread drains everything before exiting, but queries submitted
  // after the join started must not hang.
  FailAllLocked(Status::Cancelled("circulating scan stopped"));
}

CirculatingScan::Stats CirculatingScan::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.laps = lap_;
  s.queries_served = queries_served_;
  s.attach_batches = attach_batches_;
  s.attached = attached_.size();
  s.pending = pending_.size();
  return s;
}

void CirculatingScan::ThreadMain() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    if (attached_.empty() && pending_.empty()) {
      cv_work_.wait(lock);
      continue;
    }
    lock.unlock();
    const Status lap_status = RunLap();
    lock.lock();
    if (!lap_status.ok()) FailAllLocked(lap_status);
  }
  FailAllLocked(Status::Cancelled("circulating scan stopped"));
  thread_running_ = false;
}

Status CirculatingScan::RunLap() {
  auto& metrics = ServerMetrics::Get();
  ScanSpec spec;
  for (size_t a = 0; a < table_->schema().num_attributes(); ++a) {
    spec.projection.push_back(static_cast<int>(a));
  }
  spec.read = options_.read;
  spec.block_tuples = options_.block_tuples;
  // The circulating stream serves every attached predicate, so it
  // carries none of its own (and so never prunes).

  ExecStats stats;
  RODB_ASSIGN_OR_RETURN(OperatorPtr scan,
                        OpenScanner(*table_, spec, backend_, &stats));
  RODB_RETURN_IF_ERROR(scan->Open());
  uint64_t pos = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (BoundaryLocked(pos) == 0 || stop_) {
      scan->Close();
      stats.FoldIo();
      return Status::OK();
    }
  }
  bool completed_lap = true;
  while (true) {
    auto next = scan->Next();
    if (!next.ok()) {
      scan->Close();
      stats.FoldIo();
      return next.status();
    }
    TupleBlock* block = *next;
    if (block == nullptr) break;
    if (block->empty()) continue;
    // The attached list is mutated only at boundaries (under the lock,
    // by this thread), so delivery runs lock-free.
    for (const auto& query : attached_) {
      DeliverBlock(query.get(), *block);
    }
    pos += block->size();
    metrics.blocks_delivered->Increment();
    metrics.tuples_delivered->Add(static_cast<uint64_t>(block->size()) *
                                  attached_.size());
    std::lock_guard<std::mutex> lock(mu_);
    if (BoundaryLocked(pos) == 0 || stop_) {
      // Going idle at the final boundary still counts as a full lap.
      completed_lap = pos >= total_tuples_;
      break;
    }
  }
  scan->Close();
  stats.FoldIo();
  metrics.lap_backend_bytes->Add(stats.counters().io_bytes_read);
  metrics.lap_cache_bytes->Add(stats.counters().io_bytes_from_cache);
  if (completed_lap) {
    std::lock_guard<std::mutex> lock(mu_);
    ++lap_;
    metrics.laps->Increment();
  }
  return Status::OK();
}

size_t CirculatingScan::BoundaryLocked(uint64_t pos) {
  auto& metrics = ServerMetrics::Get();
  // Complete queries whose circulation wrapped to their attach point,
  // and detach the dead (cancelled / past deadline / deferred failure).
  for (size_t i = 0; i < attached_.size();) {
    const auto& query = attached_[i];
    if (query->delivered >= total_tuples_) {
      RODB_CHECK(query->delivered == total_tuples_);
      CompleteLocked(query, Status::OK(), pos);
      attached_.erase(attached_.begin() + static_cast<ptrdiff_t>(i));
      continue;
    }
    Status alive = query->deferred_failure.ok() ? query->ctx.CheckAlive()
                                                : query->deferred_failure;
    if (!alive.ok()) {
      CompleteLocked(query, std::move(alive), pos);
      attached_.erase(attached_.begin() + static_cast<ptrdiff_t>(i));
      continue;
    }
    ++i;
  }
  // Batched admission: every arrival since the previous boundary
  // attaches here, at the same cursor.
  size_t admitted = 0;
  while (!pending_.empty()) {
    std::shared_ptr<Query> query = std::move(pending_.front());
    pending_.pop_front();
    const Status alive = query->ctx.CheckAlive();
    if (!alive.ok()) {
      CompleteLocked(query, alive, pos);
      continue;
    }
    query->result.attach_position =
        total_tuples_ == 0 ? 0 : pos % total_tuples_;
    query->result.attach_lap = lap_;
    if (total_tuples_ == 0) {
      // Empty table: the circulation is trivially complete.
      CompleteLocked(query, Status::OK(), pos);
      continue;
    }
    attached_.push_back(std::move(query));
    ++admitted;
  }
  if (admitted > 0) {
    ++attach_batches_;
    metrics.attach_batches->Increment();
    metrics.attached_total->Add(admitted);
  }
  metrics.attached->Set(static_cast<int64_t>(attached_.size()));
  metrics.queue_depth->Set(static_cast<int64_t>(pending_.size()));
  return attached_.size();
}

void CirculatingScan::CompleteLocked(const std::shared_ptr<Query>& query,
                                     Status status, uint64_t pos) {
  (void)pos;
  if (query->done) return;
  if (status.ok()) {
    QueryResult& r = query->result;
    r.shared = true;
    r.counters.operator_tuples = query->delivered;
    r.counters.tuples_examined = query->delivered;
    ++queries_served_;
  }
  query->fold.ReleaseMemory();
  query->status = std::move(status);
  query->done = true;
  cv_done_.notify_all();
}

void CirculatingScan::FailAllLocked(const Status& status) {
  for (const auto& query : attached_) CompleteLocked(query, status, 0);
  attached_.clear();
  for (const auto& query : pending_) CompleteLocked(query, status, 0);
  pending_.clear();
  auto& metrics = ServerMetrics::Get();
  metrics.attached->Set(0);
  metrics.queue_depth->Set(0);
}

void CirculatingScan::DeliverBlock(Query* query, const TupleBlock& block) {
  if (query->done || !query->deferred_failure.ok()) return;
  ExecCounters& c = query->result.counters;
  const size_t out_width =
      static_cast<size_t>(query->result.row_layout.tuple_width);
  query->scratch.resize(static_cast<size_t>(block.size()) * out_width);
  uint8_t* out = query->scratch.data();
  uint32_t rows = 0;
  for (uint32_t i = 0; i < block.size(); ++i) {
    const uint8_t* tuple = block.tuple(i);
    bool pass = true;
    for (const Predicate& pred : query->predicates) {
      ++c.predicate_evals;
      if (!pred.Eval(tuple + full_layout_.offsets[pred.attr_index()])) {
        pass = false;
        break;
      }
    }
    if (!pass) continue;
    // Gather the projected tuple for the fold.
    for (size_t a = 0; a < query->proj_offsets.size(); ++a) {
      const size_t width = static_cast<size_t>(query->proj_widths[a]);
      std::memcpy(out, tuple + query->proj_offsets[a], width);
      out += width;
    }
    c.values_copied += query->proj_offsets.size();
    c.bytes_copied += out_width;
    ++rows;
  }
  if (rows > 0) {
    Status folded = query->fold.Add(query->scratch.data(), rows);
    if (!folded.ok()) {
      query->deferred_failure = std::move(folded);
      return;
    }
  }
  query->delivered += block.size();
}

}  // namespace rodb
