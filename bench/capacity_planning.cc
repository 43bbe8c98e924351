// Capacity planning (Section 4 factor iv, Section 5, Table 1's last row):
// how the row/column tradeoff moves with the number of CPUs and disks a
// query gets. Every (cpus, disks) cell is a cpdb rating; the Section 5
// model predicts each system's bottleneck and the speedup. A DOP-4
// partitioned scan is also executed for real to show the plan shape.

#include <cstdio>

#include "bench_util.h"
#include "common/macros.h"
#include "engine/union_all.h"
#include "model/contour.h"

using namespace rodb;         // NOLINT
using namespace rodb::bench;  // NOLINT
using namespace rodb::tpch;   // NOLINT

int main() {
  Env env = Env::FromEnv();
  PrintHeader("Capacity planning: CPUs x disks", env,
              "LINEITEM scan, 10% selectivity, 50% projection");

  const CostModel costs;
  std::printf("speedup of columns over rows (152B tuples); "
              "R/C flags = row/column bottleneck (I=I/O, C=CPU)\n\n");
  std::printf("%-14s", "cpus \\ disks");
  for (int disks : {1, 2, 3, 6}) std::printf("  %8d", disks);
  std::printf("\n");
  for (int cpus : {1, 2, 4}) {
    std::printf("%-14d", cpus);
    for (int disks : {1, 2, 3, 6}) {
      HardwareConfig hw = HardwareConfig::Paper2006();
      hw.num_cpus = cpus;
      hw.num_disks = disks;
      AnalyticalModel model(hw);
      const SystemInputs rows = RowScanInputs(152, 0.1, 0.5, hw, costs);
      const SystemInputs cols =
          ColumnScanInputs(152, 0.1, 0.5, hw, costs, 1.8);
      std::printf("  %5.2f %c%c", model.Speedup(cols, rows),
                  model.IsIoBound(rows) ? 'I' : 'C',
                  model.IsIoBound(cols) ? 'I' : 'C');
    }
    std::printf("   (cpdb %.0f per disk-triple)\n",
                HardwareConfig::Paper2006().clock_hz * cpus / 180e6);
  }
  std::printf("\nreading: more disks -> lower cpdb -> CPU matters more; "
              "more CPUs -> higher effective cpdb -> columns gain "
              "(the architectural trend of Section 7).\n\n");

  // A real DOP-4 plan: four page-range partitions of the row table,
  // unioned. Identical results, independent sequential ranges.
  auto meta = EnsureLineitem(env.Spec(Layout::kRow, false));
  RODB_CHECK(meta.ok());
  auto table = OpenTable::Open(env.data_dir, meta->name);
  RODB_CHECK(table.ok());
  FileBackend backend;
  ScanSpec spec;
  spec.projection = FirstAttrs(8);
  spec.predicates = {Predicate::Int32(
      kLPartkey, CompareOp::kLt, SelectivityCutoff(kPartkeyDomain, 0.10))};
  spec.prune = false;  // the paper's engine has no zone maps
  ExecStats serial_stats, dop_stats;
  auto serial = RunScan(env.data_dir, meta->name, spec, env.PaperScale(),
                        &backend);
  RODB_CHECK(serial.ok());
  auto plan = MakePartitionedScan(&*table, spec, 4, &backend, &dop_stats);
  RODB_CHECK(plan.ok());
  auto result = Execute(plan->get(), &dop_stats);
  RODB_CHECK(result.ok());
  RODB_CHECK(result->output_checksum == serial->result.output_checksum);

  HardwareConfig dop4 = HardwareConfig::Paper2006();
  dop4.num_cpus = 4;
  const ExecCounters scaled =
      ScaleCounters(dop_stats.counters(), env.PaperScale());
  const ModeledTiming serial_t = ModelQueryTiming(
      serial->paper_counters, HardwareConfig::Paper2006(), 48,
      serial->paper_streams);
  const ModeledTiming dop_t =
      ModelQueryTiming(scaled, dop4, 48, serial->paper_streams);
  std::printf("DOP-4 partitioned row scan: identical checksum to the "
              "serial plan; modeled CPU %0.1fs -> %0.1fs with 4 CPUs "
              "(elapsed stays %0.1fs: this scan is disk-bound, exactly why "
              "the paper treats parallelism as orthogonal).\n",
              serial_t.cpu_seconds, dop_t.cpu_seconds,
              dop_t.elapsed_seconds);
  return 0;
}
