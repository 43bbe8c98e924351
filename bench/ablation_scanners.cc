// Ablation: the four scanner/layout architectures on the same data.
//
//   row        N-ary pages, full-tuple I/O, zero-copy tuple access
//   column     one file per attribute + pipelined {position,value} nodes
//   early-mat  same column files, single-iterator row-at-a-time scan
//              (the Section 4.2 optimization the paper sketches)
//   pax        one file, per-page minipages (row I/O, column cache)
//
// The pipelined/early-mat pair isolates the paper's Section 4.2
// observation: pipelining wins at low selectivity (inner nodes idle),
// while at high selectivity its per-position machinery costs more than
// simply walking every row. PAX isolates I/O from cache behaviour.

#include <cstdio>

#include "bench_util.h"
#include "common/macros.h"
#include "engine/open_scanner.h"

using namespace rodb;         // NOLINT
using namespace rodb::bench;  // NOLINT
using namespace rodb::tpch;   // NOLINT

namespace {

Result<ScanRun> RunEarlyMat(const std::string& dir, const std::string& name,
                            const ScanSpec& spec, double scale,
                            IoBackend* backend) {
  RODB_ASSIGN_OR_RETURN(OpenTable table, OpenTable::Open(dir, name));
  ExecStats stats;
  RODB_ASSIGN_OR_RETURN(
      auto scan, OpenScanner(table, spec, backend, &stats,
                       ScannerImpl::kEarlyMat));
  ScanRun run;
  RODB_ASSIGN_OR_RETURN(ExecutionResult exec, Execute(scan.get(), &stats));
  run.result.rows = exec.rows;
  run.result.output_checksum = exec.output_checksum;
  run.result.wall_seconds = exec.measured.wall_seconds;
  run.rows = exec.rows;
  run.counters = stats.counters();
  run.paper_counters = ScaleCounters(run.counters, scale);
  run.paper_streams = ScanStreams(table, spec);
  for (StreamSpec& s : run.paper_streams) {
    s.bytes =
        static_cast<uint64_t>(static_cast<double>(s.bytes) * scale);
  }
  return run;
}

}  // namespace

int main() {
  Env env = Env::FromEnv();
  PrintHeader("Ablation: scanner architectures on ORDERS", env,
              "select O1..Ok from ORDERS at 10% and 0.1% selectivity");

  for (Layout layout : {Layout::kRow, Layout::kColumn, Layout::kPax}) {
    tpch::LoadSpec spec = env.Spec(layout, false);
    auto meta = EnsureOrders(spec);
    if (!meta.ok()) {
      std::fprintf(stderr, "load failed: %s\n",
                   meta.status().ToString().c_str());
      return 1;
    }
  }
  const HardwareConfig hw = HardwareConfig::Paper2006();
  FileBackend backend;
  const double scale = env.PaperScale();

  for (double selectivity : {0.10, 0.001}) {
    std::printf("selectivity %.2f%%:\n", selectivity * 100);
    std::printf("  %5s | %8s %8s | %8s %8s | %8s %8s | %8s %8s\n", "attrs",
                "row-el", "row-cpu", "col-el", "col-cpu", "early-el",
                "early-cpu", "pax-el", "pax-cpu");
    const int32_t cutoff = SelectivityCutoff(kOrderdateDomain, selectivity);
    double col_cpu_full = 0, early_cpu_full = 0, early_cpu_low = 0,
           col_cpu_low = 0;
    for (int k = 1; k <= 7; ++k) {
      ScanSpec spec;
      spec.projection = FirstAttrs(k);
      spec.predicates = {
          Predicate::Int32(kOOrderdate, CompareOp::kLt, cutoff)};
      spec.prune = false;  // the paper's engine has no zone maps
      auto row = RunScan(env.data_dir, "orders_row", spec, scale, &backend);
      auto col = RunScan(env.data_dir, "orders_col", spec, scale, &backend);
      auto pax = RunScan(env.data_dir, "orders_pax", spec, scale, &backend);
      auto early =
          RunEarlyMat(env.data_dir, "orders_col", spec, scale, &backend);
      if (!row.ok() || !col.ok() || !pax.ok() || !early.ok()) {
        std::fprintf(stderr, "scan failed: %s %s %s %s\n", row.status().ToString().c_str(), col.status().ToString().c_str(), pax.status().ToString().c_str(), early.status().ToString().c_str());
        return 1;
      }
      const auto rt =
          ModelQueryTiming(row->paper_counters, hw, 48, row->paper_streams);
      const auto ct =
          ModelQueryTiming(col->paper_counters, hw, 48, col->paper_streams);
      const auto et = ModelQueryTiming(early->paper_counters, hw, 48,
                                       early->paper_streams);
      const auto pt =
          ModelQueryTiming(pax->paper_counters, hw, 48, pax->paper_streams);
      std::printf("  %5d | %8.1f %8.1f | %8.1f %8.1f | %8.1f %8.1f | %8.1f "
                  "%8.1f\n",
                  k, rt.elapsed_seconds, rt.cpu_seconds, ct.elapsed_seconds,
                  ct.cpu_seconds, et.elapsed_seconds, et.cpu_seconds,
                  pt.elapsed_seconds, pt.cpu_seconds);
      if (k == 7) {
        if (selectivity > 0.01) {
          col_cpu_full = ct.cpu_seconds;
          early_cpu_full = et.cpu_seconds;
        } else {
          col_cpu_low = ct.cpu_seconds;
          early_cpu_low = et.cpu_seconds;
        }
      }
      (void)col_cpu_full;
      (void)early_cpu_full;
      (void)col_cpu_low;
      (void)early_cpu_low;
    }
    std::printf("\n");
  }
  std::printf("expected shapes:\n");
  std::printf("  - row and pax share elapsed time (same single-file I/O); "
              "pax needs less CPU/cache on narrow projections\n");
  std::printf("  - at 0.1%% selectivity the pipelined column scanner's CPU "
              "stays flat while early-mat keeps decoding every value\n");
  std::printf("  - at 10%% selectivity early-mat competes with (or beats) "
              "the pipelined scanner: no per-position machinery\n");
  return 0;
}
