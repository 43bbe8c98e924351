// Figure 9: the 10%-selectivity scan on ORDERS-Z (compressed to 12 bytes
// per tuple), with two alternative schemes for O_ORDERKEY: FOR-delta
// (8 bits, must decode every value it passes) and plain FOR (16 bits,
// cheaper CPU). The x-axis is spaced by the UNCOMPRESSED width of the
// selected attributes. The column store turns CPU-bound here; FOR-delta
// shows the CPU jump when the second attribute joins the scan.

#include <cstdio>

#include "bench_util.h"

int main() {
  using namespace rodb;         // NOLINT
  using namespace rodb::bench;  // NOLINT
  using namespace rodb::tpch;   // NOLINT

  Env env = Env::FromEnv();
  PrintHeader("Figure 9: scan of ORDERS-Z (compressed, 10% selectivity)",
              env,
              "select Oz1..Ozk from ORDERS-Z where O_ORDERDATE < 10% "
              "cutoff; O_ORDERKEY as FOR-delta(8b) vs FOR(16b)");

  {
    auto a = EnsureOrders(env.Spec(Layout::kRow, true));
    auto b = EnsureOrders(env.Spec(Layout::kColumn, true));
    auto c = EnsureOrders(env.Spec(Layout::kColumn, true, true));
    if (!a.ok() || !b.ok() || !c.ok()) {
      std::fprintf(stderr, "load failed\n");
      return 1;
    }
  }
  auto uncompressed = OrdersSchema();  // x-axis spacing
  const HardwareConfig hw = HardwareConfig::Paper2006();
  FileBackend backend;
  const double scale = env.PaperScale();
  const int32_t cutoff = SelectivityCutoff(kOrderdateDomain, 0.10);

  std::printf("%5s %6s | %9s %9s | %9s %9s | %9s %9s\n", "attrs", "bytes",
              "row-tot", "row-cpu", "delta-tot", "delta-cpu", "for-tot",
              "for-cpu");
  double delta_cpu_1 = 0, delta_cpu_2 = 0, for_cpu_2 = 0;
  double row_cpu_1 = 0, row_cpu_7 = 0;
  for (int k = 1; k <= 7; ++k) {
    ScanSpec spec;
    spec.projection = FirstAttrs(k);
    spec.predicates = {Predicate::Int32(kOOrderdate, CompareOp::kLt, cutoff)};
    spec.prune = false;  // the paper's engine has no zone maps
    auto row = RunScan(env.data_dir, "orders_z_row", spec, scale, &backend);
    auto delta = RunScan(env.data_dir, "orders_z_col", spec, scale, &backend);
    auto forv =
        RunScan(env.data_dir, "orders_zfor_col", spec, scale, &backend);
    if (!row.ok() || !delta.ok() || !forv.ok()) {
      std::fprintf(stderr, "scan failed\n");
      return 1;
    }
    const ModeledTiming rt =
        ModelQueryTiming(row->paper_counters, hw, 48, row->paper_streams);
    const ModeledTiming dt =
        ModelQueryTiming(delta->paper_counters, hw, 48,
                         delta->paper_streams);
    const ModeledTiming ft =
        ModelQueryTiming(forv->paper_counters, hw, 48, forv->paper_streams);
    std::printf("%5d %6d | %9.1f %9.1f | %9.1f %9.1f | %9.1f %9.1f\n", k,
                SelectedBytes(*uncompressed, k), rt.elapsed_seconds,
                rt.cpu_seconds, dt.elapsed_seconds, dt.cpu_seconds,
                ft.elapsed_seconds, ft.cpu_seconds);
    if (k == 1) {
      delta_cpu_1 = dt.cpu_seconds;
      row_cpu_1 = rt.cpu.User();
    }
    if (k == 2) {
      delta_cpu_2 = dt.cpu_seconds;
      for_cpu_2 = ft.cpu_seconds;
    }
    if (k == 7) row_cpu_7 = rt.cpu.User();
  }

  std::printf("\nchecks vs the paper:\n");
  std::printf("  FOR-delta CPU jump when attribute #2 joins: %.1fs -> %.1fs"
              "  %s\n",
              delta_cpu_1, delta_cpu_2,
              delta_cpu_2 > delta_cpu_1 * 1.3 ? "OK" : "LOOK");
  std::printf("  plain FOR is computationally lighter at 2 attrs: %.1fs vs "
              "%.1fs (delta)  %s\n",
              for_cpu_2, delta_cpu_2, for_cpu_2 < delta_cpu_2 ? "OK" : "LOOK");
  std::printf("  row store user CPU now grows with attrs (decompression): "
              "%.1fs -> %.1fs  %s\n",
              row_cpu_1, row_cpu_7, row_cpu_7 > row_cpu_1 ? "OK" : "LOOK");
  std::printf("  (with one disk instead of three, the I/O savings of "
              "FOR-delta would offset its CPU cost -- rerun the model at "
              "cpdb %.0f)\n",
              HardwareConfig::Paper2006OneDisk().Cpdb());
  return 0;
}
