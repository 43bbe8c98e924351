// Morsel-driven parallel scan scaling (DESIGN.md "Parallel execution").
//
// Scans a memory-resident LINEITEM (row and column layouts) with 1..8
// worker threads through the public QueryEngine::Execute facade
// (QueryRequest::parallelism picks the morsel plan) and reports
// wall-clock scaling as JSON lines, one object per (layout, threads)
// point. Two invariants are reported per point, and a violation of
// either aborts the run:
//   - output_checksum equals the serial execution's checksum, and
//   - ModelQueryTiming on the merged+normalized counters equals the
//     serial model numbers (parallelism changes wall clock, never the
//     modeled Section-5 answer).
// Speedup is hardware-dependent: on a single-core container every
// thread count degenerates to ~1x; on >=4 cores the 4-thread column
// scan is expected >=2x.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "bench_util.h"
#include "common/file_util.h"
#include "common/macros.h"
#include "io/mem_backend.h"
#include "obs/model_comparison.h"
#include "obs/scan_physics.h"
#include "obs/span.h"
#include "server/query_engine.h"

using namespace rodb;         // NOLINT
using namespace rodb::bench;  // NOLINT
using namespace rodb::tpch;   // NOLINT

namespace {

constexpr int kRuns = 3;
constexpr int kAttrs = 3;  // L_PARTKEY, L_ORDERKEY, L_SUPPKEY: all int32

/// Copies a loaded table's files into the in-memory backend.
void Mirror(const OpenTable& table, MemBackend* backend) {
  const size_t files = table.meta().layout == Layout::kColumn
                           ? table.schema().num_attributes()
                           : 1;
  for (size_t f = 0; f < files; ++f) {
    auto blob = ReadFileToString(table.FilePath(f));
    RODB_CHECK(blob.ok());
    backend->PutFile(table.FilePath(f),
                     std::vector<uint8_t>(blob->begin(), blob->end()));
  }
}

double ModelElapsed(const ExecCounters& counters, const OpenTable& table,
                    const ScanSpec& spec) {
  return ModelQueryTiming(counters, HardwareConfig::Paper2006(),
                          spec.read.prefetch_depth, ScanStreams(table, spec))
      .elapsed_seconds;
}

}  // namespace

int main(int argc, char** argv) {
  Env env = Env::FromEnv();
  // Resilience knobs: every execution already runs under the engine's
  // QueryContext; these flags feed it. Off by default so the bench's
  // numbers are unchanged; with a deadline set, a run that overruns it
  // fails with DeadlineExceeded (which RODB_CHECK turns into a loud
  // abort -- the point of the flag is to demonstrate the bound, not to
  // paper over it).
  int deadline_ms = 0, max_retries = 0, mem_budget_mb = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--deadline-ms=", 14) == 0) {
      deadline_ms = std::atoi(argv[i] + 14);
    } else if (std::strncmp(argv[i], "--max-retries=", 14) == 0) {
      max_retries = std::atoi(argv[i] + 14);
    } else if (std::strncmp(argv[i], "--mem-budget-mb=", 16) == 0) {
      mem_budget_mb = std::atoi(argv[i] + 16);
    } else {
      std::fprintf(stderr,
                   "usage: parallel_scan_bench [--deadline-ms=N]"
                   " [--max-retries=N] [--mem-budget-mb=N]\n");
      return 2;
    }
  }
  std::fprintf(stderr,
               "parallel_scan_bench: %llu tuples, %u hardware threads\n",
               static_cast<unsigned long long>(env.tuples),
               std::thread::hardware_concurrency());

  MemBackend mem;
  EngineOptions engine_options;
  engine_options.backend = &mem;
  engine_options.scan_sharing = false;  // the paper's per-query model
  if (mem_budget_mb > 0) {
    engine_options.exclusive.memory_budget_bytes =
        static_cast<uint64_t>(mem_budget_mb) << 20;
  }
  QueryEngine engine(env.data_dir, engine_options);

  for (Layout layout : {Layout::kRow, Layout::kColumn}) {
    auto meta = EnsureLineitem(env.Spec(layout, false));
    RODB_CHECK(meta.ok());
    auto table = OpenTable::Open(env.data_dir, meta->name);
    RODB_CHECK(table.ok());
    Mirror(*table, &mem);

    ScanSpec spec;
    spec.projection = FirstAttrs(kAttrs);
    // Align block boundaries with page boundaries (all projected
    // attributes are int32, so one uniform value count per page) --
    // makes the merged counters exactly equal the serial ones.
    const uint32_t vpp = table->meta().PageValues(0);
    if (vpp > 0) spec.block_tuples = vpp;

    QueryRequest request = RequestFromSpec(meta->name, spec);
    request.mode = QueryMode::kExclusive;
    request.max_retries = max_retries;
    if (deadline_ms > 0) {
      request.timeout = std::chrono::milliseconds(deadline_ms);
    }

    // Serial ground truth through the same facade.
    auto serial = engine.Execute(request);
    RODB_CHECK(serial.ok());
    const double serial_model =
        ModelElapsed(serial->counters, *table, spec);

    const auto physics = obs::PredictScanPhysics(*table, spec);
    RODB_CHECK(physics.ok());

    double wall_1 = 0.0;
    for (int threads : {1, 2, 4, 8}) {
      request.parallelism = threads;
      double best = 1e100;
      uint64_t checksum = 0;
      int morsels = 0;
      double model = 0.0;
      std::string model_json;
      for (int run = 0; run < kRuns; ++run) {
        // Fresh trace per run: span nanos accumulate, and each run's
        // FinalizeFromCounters expects one query's worth of data.
        obs::QueryTrace trace;
        request.trace = &trace;
        auto out = engine.Execute(request);
        request.trace = nullptr;
        RODB_CHECK(out.ok());
        RODB_CHECK(out->rows == serial->rows);
        best = std::min(best, out->wall_seconds);
        checksum = out->output_checksum;
        morsels = out->morsels;
        model = ModelElapsed(out->counters, *table, spec);
        const HardwareConfig hw = HardwareConfig::Paper2006();
        model_json =
            obs::BuildModelComparison(
                *physics, out->counters, trace,
                ModelQueryTiming(out->counters, hw, spec.read.prefetch_depth,
                                 ScanStreams(*table, spec)),
                out->wall_seconds, hw)
                .ToJson();
      }
      if (threads == 1) wall_1 = best;
      std::printf(
          "{\"bench\":\"parallel_scan\",\"layout\":\"%s\","
          "\"tuples\":%llu,\"threads\":%d,\"morsels\":%d,"
          "\"wall_seconds\":%.6f,\"speedup_vs_1\":%.3f,"
          "\"output_checksum\":%llu,\"checksum_matches_serial\":%s,"
          "\"modeled_elapsed_seconds\":%.6f,"
          "\"modeled_matches_serial\":%s,"
          "\"model\":%s}\n",
          layout == Layout::kRow ? "row" : "column",
          static_cast<unsigned long long>(env.tuples), threads, morsels,
          best, wall_1 / best,
          static_cast<unsigned long long>(checksum),
          checksum == serial->output_checksum ? "true" : "false",
          model, model == serial_model ? "true" : "false",
          model_json.c_str());
      RODB_CHECK(checksum == serial->output_checksum);
      RODB_CHECK(model == serial_model);
    }
  }
  return 0;
}
