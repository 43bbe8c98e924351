// Figure 8: the 10%-selectivity scan over the narrow ORDERS table
// (32-byte tuples, 7 attributes). Both systems remain I/O-bound for the
// total time; the CPU picture changes: system time is a smaller share
// (same tuples, less I/O per tuple) and memory delays vanish because main
// memory outruns the CPU on 32-byte tuples. In a memory-resident setting
// the column store would lose at any projection width here.

#include <cstdio>

#include "bench_util.h"

int main() {
  using namespace rodb;         // NOLINT
  using namespace rodb::bench;  // NOLINT
  using namespace rodb::tpch;   // NOLINT

  Env env = Env::FromEnv();
  PrintHeader("Figure 8: scan of ORDERS (narrow tuples, 10% selectivity)",
              env,
              "select O1..Ok from ORDERS where O_ORDERDATE < 10% cutoff");

  for (Layout layout : {Layout::kRow, Layout::kColumn}) {
    auto meta = EnsureOrders(env.Spec(layout, false));
    if (!meta.ok()) {
      std::fprintf(stderr, "load failed: %s\n",
                   meta.status().ToString().c_str());
      return 1;
    }
  }
  auto schema_result = OrdersSchema();
  const Schema& schema = *schema_result;
  const HardwareConfig hw = HardwareConfig::Paper2006();
  FileBackend backend;
  const double scale = env.PaperScale();
  const int32_t cutoff = SelectivityCutoff(kOrderdateDomain, 0.10);

  std::printf("%5s %6s | %10s %10s | %10s %10s | %s\n", "attrs", "bytes",
              "row-total", "row-cpu", "col-total", "col-cpu", "col/row");
  std::vector<TimeBreakdown> row_bd, col_bd;
  double row_user_full = 0, col_user_full = 0;
  for (int k = 1; k <= 7; ++k) {
    ScanSpec spec;
    spec.projection = FirstAttrs(k);
    spec.predicates = {Predicate::Int32(kOOrderdate, CompareOp::kLt, cutoff)};
    spec.prune = false;  // the paper's engine has no zone maps
    auto row = RunScan(env.data_dir, "orders_row", spec, scale, &backend);
    auto col = RunScan(env.data_dir, "orders_col", spec, scale, &backend);
    if (!row.ok() || !col.ok()) {
      std::fprintf(stderr, "scan failed\n");
      return 1;
    }
    const ModeledTiming rt =
        ModelQueryTiming(row->paper_counters, hw, 48, row->paper_streams);
    const ModeledTiming ct =
        ModelQueryTiming(col->paper_counters, hw, 48, col->paper_streams);
    std::printf("%5d %6d | %10.1f %10.1f | %10.1f %10.1f | %7.2f\n", k,
                SelectedBytes(schema, k), rt.elapsed_seconds, rt.cpu_seconds,
                ct.elapsed_seconds, ct.cpu_seconds,
                rt.elapsed_seconds / ct.elapsed_seconds);
    row_bd.push_back(rt.cpu);
    col_bd.push_back(ct.cpu);
    if (k == 7) {
      row_user_full = rt.cpu.User();
      col_user_full = ct.cpu.User();
    }
  }

  std::printf("\nCPU time breakdowns (seconds at paper scale):\n");
  PrintBreakdownHeader();
  PrintBreakdownRow("row store, 1 attr", row_bd.front());
  PrintBreakdownRow("row store, 7 attrs", row_bd.back());
  for (int k = 1; k <= 7; ++k) {
    PrintBreakdownRow("column, " + std::to_string(k) + " attrs",
                      col_bd[static_cast<size_t>(k - 1)]);
  }
  std::printf("\nchecks vs the paper:\n");
  std::printf("  memory delays negligible on 32B tuples: row usr-L2 = "
              "%.2fs  %s\n",
              row_bd.back().usr_l2,
              row_bd.back().usr_l2 < 0.2 ? "OK" : "LOOK");
  std::printf("  memory-resident ORDERS would favor rows: col user CPU "
              "%.1fs vs row %.1fs at full projection  %s\n",
              col_user_full, row_user_full,
              col_user_full > row_user_full ? "OK" : "LOOK");
  return 0;
}
