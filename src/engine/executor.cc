#include "engine/executor.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"
#include "common/scope_guard.h"
#include "obs/span.h"

namespace rodb {

uint64_t Fnv1aExtend(uint64_t hash, const uint8_t* data, size_t size) {
  for (size_t i = 0; i < size; ++i) {
    hash ^= data[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

Status Drain(Operator* root, ExecStats* stats, const BlockSink& sink) {
  obs::SpanTimer query_span(stats->trace(), obs::TracePhase::kQuery);
  {
    obs::SpanTimer open_span(stats->trace(), obs::TracePhase::kOpen);
    RODB_RETURN_IF_ERROR(root->Open());
  }
  // Close on every exit, error returns included: Close() walks the
  // operator tree releasing streams (and with them block-cache pins),
  // and the pending I/O record must be folded or it is lost.
  auto close_guard = MakeScopeGuard([&] {
    root->Close();
    stats->FoldIo();
  });
  while (true) {
    RODB_RETURN_IF_ERROR(stats->CheckAlive());
    RODB_ASSIGN_OR_RETURN(TupleBlock * block, root->Next());
    if (block == nullptr) return Status::OK();
    if (block->empty()) continue;
    RODB_RETURN_IF_ERROR(sink(*block));
  }
}

Result<ExecutionResult> Execute(Operator* root, ExecStats* stats) {
  if (root == nullptr || stats == nullptr) {
    return Status::InvalidArgument("Execute: null dependency");
  }
  ExecutionResult result;
  IntervalTimer timer;
  uint64_t checksum = kFnv1aSeed;
  const size_t width = static_cast<size_t>(root->output_layout().tuple_width);
  RODB_RETURN_IF_ERROR(Drain(root, stats, [&](const TupleBlock& block) {
    result.blocks += 1;
    result.rows += block.size();
    checksum = Fnv1aExtend(checksum, block.tuple(0),
                           static_cast<size_t>(block.size()) * width);
    return Status::OK();
  }));
  result.output_checksum = checksum;
  result.measured = timer.Lap();
  if (stats->trace() != nullptr) {
    stats->trace()->FinalizeFromCounters(stats->counters());
  }
  return result;
}

std::vector<StreamSpec> ScanStreams(const OpenTable& table,
                                    const ScanSpec& spec) {
  std::vector<StreamSpec> streams;
  if (table.meta().layout != Layout::kColumn) {
    // Row and PAX tables are one sequential file.
    streams.push_back(StreamSpec{table.FileBytes(0), 1.0, false});
    return streams;
  }
  for (size_t attr : ScanPipelineAttrs(spec)) {
    streams.push_back(StreamSpec{table.FileBytes(attr), 1.0, false});
  }
  return streams;
}

ModeledTiming ModelQueryTiming(const ExecCounters& counters,
                               const HardwareConfig& hw, int prefetch_depth,
                               const std::vector<StreamSpec>& query_streams,
                               const std::vector<StreamSpec>& competing) {
  ModeledTiming t;
  CpuModel cpu_model(hw);
  t.cpu = cpu_model.Breakdown(counters);
  t.cpu_seconds = t.cpu.Total();
  DiskArrayModel disk_model(hw, prefetch_depth);
  t.disk = disk_model.Simulate(query_streams, competing);
  t.io_seconds = t.disk.query_seconds;
  t.elapsed_seconds = std::max(t.cpu_seconds, t.io_seconds);
  t.io_bound = t.io_seconds >= t.cpu_seconds;
  return t;
}

std::vector<StreamSpec> CacheAdjustedStreams(
    std::vector<StreamSpec> streams, const ExecCounters& counters) {
  const uint64_t total = counters.io_bytes_read + counters.io_bytes_from_cache;
  if (total == 0 || counters.io_bytes_from_cache == 0) return streams;
  const double backend_fraction =
      static_cast<double>(counters.io_bytes_read) / static_cast<double>(total);
  std::vector<StreamSpec> adjusted;
  adjusted.reserve(streams.size());
  for (StreamSpec s : streams) {
    s.bytes = static_cast<uint64_t>(
        std::llround(static_cast<double>(s.bytes) * backend_fraction));
    if (s.bytes > 0) adjusted.push_back(s);
  }
  return adjusted;
}

ExecCounters ScaleCounters(const ExecCounters& counters, double factor) {
  auto scale = [factor](uint64_t v) {
    return static_cast<uint64_t>(std::llround(static_cast<double>(v) * factor));
  };
  ExecCounters s;
#define RODB_EXEC_COUNTER(field, phase, span, metric, scaling)         \
  s.field = CounterScaling::scaling == CounterScaling::kPerTuple       \
                ? scale(counters.field)                                \
                : counters.field;
#include "hwmodel/exec_counters.def"
  return s;
}

}  // namespace rodb
