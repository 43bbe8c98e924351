#include "engine/parallel_executor.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <latch>
#include <numeric>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/stopwatch.h"
#include "engine/exec_stats.h"
#include "engine/open_scanner.h"
#include "engine/zone_pruner.h"
#include "io/unit_buffers.h"
#include "obs/metrics.h"
#include "storage/table_files.h"

namespace rodb {

namespace {

/// Morsel output is buffered in chunks of one default I/O unit, the size
/// the unit free list recycles most.
constexpr size_t kOutputChunkBytes = ReadOptions{}.io_unit_bytes;

struct WorkerState {
  ExecStats stats;
  Status status = Status::OK();
  /// The worker's raw output tuple bytes, in production order, in
  /// kOutputChunkBytes chunks from the unit free list; every chunk but
  /// the last is full (FNV-1a is chained, not combinable, so the merge
  /// re-hashes the chunks in morsel order).
  std::vector<UnitBuffer> chunks;
  size_t last_chunk_bytes = 0;
  /// Budget holds backing `chunks` (one per emitted block); released when
  /// the worker is destroyed, after the merge has consumed the chunks.
  std::vector<MemoryReservation> reservations;
  uint64_t rows = 0;
  uint64_t blocks = 0;

  void Append(const uint8_t* data, size_t size) {
    while (size > 0) {
      if (chunks.empty() || last_chunk_bytes == kOutputChunkBytes) {
        chunks.push_back(AcquireUnitBuffer(kOutputChunkBytes));
        last_chunk_bytes = 0;
      }
      const size_t take = std::min(size, kOutputChunkBytes - last_chunk_bytes);
      std::memcpy(chunks.back().get() + last_chunk_bytes, data, take);
      last_chunk_bytes += take;
      data += take;
      size -= take;
    }
  }

  /// Chains the buffered output onto `hash`.
  uint64_t HashInto(uint64_t hash) const {
    for (size_t i = 0; i < chunks.size(); ++i) {
      const size_t used =
          i + 1 == chunks.size() ? last_chunk_bytes : kOutputChunkBytes;
      hash = Fnv1aExtend(hash, chunks[i].get(), used);
    }
    return hash;
  }
};

/// One worker: drain its morsel's scan, buffering the output bytes into
/// worker-local state.
Status DriveWorker(Operator* root, WorkerState* w) {
  const QueryContext* ctx = w->stats.context();
  const size_t width = static_cast<size_t>(root->output_layout().tuple_width);
  return Drain(root, &w->stats, [&](const TupleBlock& block) -> Status {
    w->blocks += 1;
    w->rows += block.size();
    const size_t bytes = static_cast<size_t>(block.size()) * width;
    if (ctx != nullptr) {
      // The buffered output bytes are this worker's working set; a
      // budget overflow fails the query here instead of OOM-ing.
      RODB_ASSIGN_OR_RETURN(MemoryReservation r, ctx->ReserveMemory(bytes));
      w->reservations.push_back(std::move(r));
    }
    w->Append(block.tuple(0), bytes);
    return Status::OK();
  });
}

/// Serial-stream I/O equivalents for the normalized counters: one stream
/// per file the scan reads, each requesting the whole file in I/O units.
/// Under an active prune plan a serial scan opens one stream per retained
/// byte run instead, so the equivalents are computed per run.
void NormalizeIoCounters(const OpenTable& table, const ScanSpec& spec,
                         const PrunePlan& prune, ExecCounters* c) {
  uint64_t requests = 0;
  uint64_t files = 0;
  const size_t unit = spec.read.io_unit_bytes;
  auto add_file = [&](uint64_t bytes) {
    files += 1;
    requests += (bytes + unit - 1) / unit;
  };
  auto add_runs = [&](const std::vector<Run>& page_runs, uint64_t bytes) {
    for (const ByteRun& r :
         ByteRunsForPages(page_runs, table.meta().page_size, bytes)) {
      add_file(r.length);
    }
  };
  if (prune.active) {
    if (table.meta().layout != Layout::kColumn) {
      add_runs(prune.nodes[0].page_runs, table.FileBytes(0));
    } else {
      for (const NodePrunePlan& node : prune.nodes) {
        add_runs(node.page_runs, table.FileBytes(node.attr));
      }
    }
  } else if (table.meta().layout != Layout::kColumn) {
    add_file(table.FileBytes(0));
  } else {
    for (size_t attr : ScanPipelineAttrs(spec)) {
      add_file(table.FileBytes(attr));
    }
  }
  // A block cache absorbs part (or all) of the backend traffic; only the
  // fraction that actually reached the backend should cost kernel time,
  // warm runs included (matching CacheAdjustedStreams on the disk side).
  const uint64_t total_bytes = c->io_bytes_read + c->io_bytes_from_cache;
  if (total_bytes > 0 && c->io_bytes_from_cache > 0) {
    const double backend_fraction =
        static_cast<double>(c->io_bytes_read) /
        static_cast<double>(total_bytes);
    requests = static_cast<uint64_t>(
        std::llround(static_cast<double>(requests) * backend_fraction));
    files = static_cast<uint64_t>(
        std::llround(static_cast<double>(files) * backend_fraction));
  }
  c->io_requests = requests;
  c->files_read = files;
}

}  // namespace

std::vector<ScanSpec> PlanMorsels(const OpenTable& table, const ScanSpec& spec,
                                  int parallelism) {
  std::vector<ScanSpec> morsels;
  const TableMeta& meta = table.meta();
  if (parallelism <= 1) {
    morsels.push_back(spec);
    return morsels;
  }
  if (meta.layout != Layout::kColumn) {
    const std::vector<FilePartition> parts =
        PartitionFile(meta.file_bytes[0], meta.page_size, parallelism);
    if (parts.size() <= 1) {
      morsels.push_back(spec);
      return morsels;
    }
    for (const FilePartition& p : parts) {
      ScanSpec m = spec;
      m.range = ScanRange::Pages(p.first_page, p.num_pages);
      morsels.push_back(std::move(m));
    }
    return morsels;
  }
  // Column layout: split the position space so every file the pipeline
  // touches splits at page boundaries (no page is parsed by two workers).
  const uint64_t total = meta.num_tuples;
  const std::vector<size_t> attrs = ScanPipelineAttrs(spec);
  if (total == 0 || attrs.empty()) {
    morsels.push_back(spec);
    return morsels;
  }
  for (size_t attr : attrs) {
    if (meta.PageValues(attr) == 0) {
      // A codec ended pages early somewhere: position -> page arithmetic
      // is unsound, run serially.
      morsels.push_back(spec);
      return morsels;
    }
  }
  uint64_t unit = 1;
  for (size_t attr : attrs) {
    unit = std::lcm(unit, static_cast<uint64_t>(meta.PageValues(attr)));
    if (unit > total) break;
  }
  if (unit > total) {
    // The LCM outgrew the table; align to the driving column instead and
    // accept that other files' boundary pages are parsed by two workers.
    unit = meta.PageValues(attrs.front());
  }
  const uint64_t units = (total + unit - 1) / unit;
  const uint64_t k =
      std::min<uint64_t>(static_cast<uint64_t>(parallelism), units);
  if (k <= 1) {
    morsels.push_back(spec);
    return morsels;
  }
  const uint64_t base = units / k;
  const uint64_t extra = units % k;
  uint64_t at = 0;
  for (uint64_t i = 0; i < k; ++i) {
    const uint64_t n = base + (i < extra ? 1 : 0);
    ScanSpec m = spec;
    const uint64_t first_row = at * unit;
    m.range = ScanRange::Rows(first_row,
                              std::min(total, (at + n) * unit) - first_row);
    morsels.push_back(std::move(m));
    at += n;
  }
  return morsels;
}

Result<ParallelResult> ParallelExecute(const ParallelScanPlan& plan,
                                       int parallelism, ThreadPool* pool) {
  if (plan.table == nullptr || plan.backend == nullptr) {
    return Status::InvalidArgument("ParallelExecute: null dependency");
  }
  IntervalTimer timer;
  std::vector<ScanSpec> morsels =
      PlanMorsels(*plan.table, plan.spec, parallelism);
  // Morsel-level data skipping: carve away morsels whose whole position
  // range was zone-pruned (their workers would open streams just to read
  // nothing). Each surviving worker re-plans pruning clipped to its own
  // range, so the plan here is only consulted for overlap.
  const PrunePlan whole_prune = BuildPrunePlan(*plan.table, plan.spec);
  if (whole_prune.active && morsels.size() > 1) {
    const TableMeta& meta = plan.table->meta();
    std::vector<ScanSpec> kept;
    for (ScanSpec& m : morsels) {
      uint64_t lo = 0;
      uint64_t hi = meta.num_tuples;
      if (m.range.unit == ScanRange::Unit::kPages) {
        const uint64_t vpp = meta.PageValues(0);
        const uint64_t np =
            std::min(m.range.num_pages(), meta.file_pages[0]);
        lo = m.range.first_page() * vpp;
        hi = std::min(hi, lo + np * vpp);
      } else if (m.range.unit == ScanRange::Unit::kRows) {
        lo = std::min(m.range.first_row(), hi);
        hi = lo + std::min(m.range.num_rows(), hi - lo);
      }
      if (!IntersectRuns(whole_prune.global, {Run{lo, hi}}).empty()) {
        kept.push_back(std::move(m));
      }
    }
    // Keep one morsel even when everything was pruned: the scan still has
    // to run (and report) an empty, well-formed result.
    if (kept.empty()) kept.push_back(std::move(morsels.front()));
    morsels = std::move(kept);
  }
  ParallelResult out;
  out.morsels = static_cast<int>(morsels.size());

  if (morsels.size() == 1) {
    // Serial fallback: identical to Execute over the unmodified scan.
    ExecStats stats;
    stats.set_trace(plan.trace);
    stats.set_context(plan.context);
    RODB_ASSIGN_OR_RETURN(
        OperatorPtr root,
        OpenScanner(*plan.table, morsels[0], plan.backend, &stats));
    RODB_ASSIGN_OR_RETURN(out.result, Execute(root.get(), &stats));
    out.counters = stats.counters();
    out.result.measured = timer.Lap();
    return out;
  }

  std::vector<WorkerState> workers(morsels.size());
  // Workers run under a child of the caller's context: a failing worker
  // cancels the run (its siblings stop at their next page boundary)
  // without setting the caller's token, and the caller cancelling or the
  // deadline expiring is observed through the parent chain.
  QueryContext run_ctx =
      plan.context != nullptr ? plan.context->Child() : QueryContext();
  std::vector<OperatorPtr> roots;
  roots.reserve(morsels.size());
  for (size_t i = 0; i < morsels.size(); ++i) {
    workers[i].stats.set_context(&run_ctx);
    RODB_ASSIGN_OR_RETURN(
        OperatorPtr root,
        OpenScanner(*plan.table, morsels[i], plan.backend, &workers[i].stats));
    roots.push_back(std::move(root));
  }
  // IoStats single-writer contract (io/io.h): every worker must own a
  // distinct I/O record -- sharing one across streams is a data race.
  for (size_t i = 0; i < workers.size(); ++i) {
    for (size_t j = i + 1; j < workers.size(); ++j) {
      RODB_CHECK(workers[i].stats.io_stats() != workers[j].stats.io_stats());
    }
  }

  if (pool == nullptr) pool = ThreadPool::Shared();
  std::latch done(static_cast<std::ptrdiff_t>(morsels.size()));
  obs::QueryTrace* trace = plan.trace;
  obs::SpanTimer query_span(trace, obs::TracePhase::kQuery);
  for (size_t i = 0; i < morsels.size(); ++i) {
    Operator* root = roots[i].get();
    WorkerState* w = &workers[i];
    const QueryContext* rc = &run_ctx;
    pool->Submit([root, w, trace, rc, &done] {
      {
        // AddPhaseNanos is wait-free, so worker threads may time their
        // own morsel even though their counters stay worker-local. The
        // timer closes before count_down so the merging thread never
        // reads a trace a worker is still writing.
        obs::SpanTimer morsel_span(trace, obs::TracePhase::kMorsel);
        w->status = DriveWorker(root, w);
      }
      // A failed morsel stops its siblings promptly: their next page-
      // boundary CheckAlive observes the run context's cancellation.
      if (!w->status.ok()) rc->Cancel();
      done.count_down();
    });
  }
  done.wait();

  // Surface the root cause, not the collateral: when one worker fails,
  // its siblings die with kCancelled from the sibling-cancel above, so a
  // real error (corruption, I/O giveup, deadline) wins over kCancelled.
  // All-kCancelled means the caller itself cancelled.
  {
    const Status* first_error = nullptr;
    for (const WorkerState& w : workers) {
      if (w.status.ok()) continue;
      if (first_error == nullptr) first_error = &w.status;
      if (!w.status.IsCancelled()) return w.status;
    }
    if (first_error != nullptr) return *first_error;
  }

  // --- merge ---
  obs::SpanTimer merge_span(trace, obs::TracePhase::kMerge);
  uint64_t checksum = kFnv1aSeed;
  for (const WorkerState& w : workers) {
    out.result.rows += w.rows;
    out.result.blocks += w.blocks;
    checksum = w.HashInto(checksum);
    out.counters += w.stats.counters();
  }
  out.result.output_checksum = checksum;
  // Morsel ranges partition single-file layouts exactly, so summed
  // bytes_read equals a serial scan's there; column files can re-read
  // one boundary unit per interior split (morsel rows are not aligned
  // to every column's page/unit phase). Requests and file opens are
  // never partition-exact (boundary fragments, k streams per file) and
  // are normalized to the serial equivalents so ModelQueryTiming is
  // parallelism-invariant.
  NormalizeIoCounters(*plan.table, plan.spec, whole_prune, &out.counters);
  if (trace != nullptr) trace->FinalizeFromCounters(out.counters);
  {
    static obs::Counter* morsel_count =
        obs::MetricsRegistry::Default().GetCounter("rodb.parallel.morsels");
    static obs::Counter* runs =
        obs::MetricsRegistry::Default().GetCounter("rodb.parallel.runs");
    morsel_count->Add(static_cast<uint64_t>(out.morsels));
    runs->Increment();
  }
  out.result.measured = timer.Lap();
  return out;
}

}  // namespace rodb
