// Figure 6: the baseline experiment.
//   select L1, L2, ... from LINEITEM where pred(L1) yields 10% selectivity
// Left graph: total elapsed time (= I/O time; CPU is overlapped) and CPU
// time for row and column stores as the number of selected attributes
// grows, x-axis spaced by the width of the selected attributes.
// Right graph: five-component CPU time breakdowns.

#include <cstdio>

#include "bench_util.h"

int main() {
  using namespace rodb;         // NOLINT
  using namespace rodb::bench;  // NOLINT
  using namespace rodb::tpch;   // NOLINT

  Env env = Env::FromEnv();
  PrintHeader("Figure 6: baseline scan of LINEITEM (10% selectivity)", env,
              "select L1..Lk from LINEITEM where L_PARTKEY < 10% cutoff");

  for (Layout layout : {Layout::kRow, Layout::kColumn}) {
    auto meta = EnsureLineitem(env.Spec(layout, false));
    if (!meta.ok()) {
      std::fprintf(stderr, "load failed: %s\n",
                   meta.status().ToString().c_str());
      return 1;
    }
  }
  auto schema_result = LineitemSchema();
  const Schema& schema = *schema_result;
  const HardwareConfig hw = HardwareConfig::Paper2006();
  CpuModel cpu_model(hw);
  FileBackend backend;
  const double scale = env.PaperScale();
  const int32_t cutoff = SelectivityCutoff(kPartkeyDomain, 0.10);

  std::printf("%5s %6s | %10s %10s %8s | %10s %10s %8s | %s\n", "attrs",
              "bytes", "row-total", "row-cpu", "row-IO?", "col-total",
              "col-cpu", "col-IO?", "col/row");
  std::vector<TimeBreakdown> row_bd, col_bd;
  double crossover_bytes = -1;
  for (int k = 1; k <= 16; ++k) {
    ScanSpec spec;
    spec.projection = FirstAttrs(k);
    spec.predicates = {Predicate::Int32(kLPartkey, CompareOp::kLt, cutoff)};
    spec.prune = false;  // the paper's engine has no zone maps
    auto row = RunScan(env.data_dir, "lineitem_row", spec, scale, &backend);
    auto col = RunScan(env.data_dir, "lineitem_col", spec, scale, &backend);
    if (!row.ok() || !col.ok()) {
      std::fprintf(stderr, "scan failed: %s %s\n",
                   row.status().ToString().c_str(),
                   col.status().ToString().c_str());
      return 1;
    }
    const ModeledTiming rt = ModelQueryTiming(row->paper_counters, hw, 48,
                                              row->paper_streams);
    const ModeledTiming ct = ModelQueryTiming(col->paper_counters, hw, 48,
                                              col->paper_streams);
    std::printf("%5d %6d | %10.1f %10.1f %8s | %10.1f %10.1f %8s | %7.2f\n",
                k, SelectedBytes(schema, k), rt.elapsed_seconds,
                rt.cpu_seconds, rt.io_bound ? "yes" : "no",
                ct.elapsed_seconds, ct.cpu_seconds,
                ct.io_bound ? "yes" : "no",
                rt.elapsed_seconds / ct.elapsed_seconds);
    row_bd.push_back(rt.cpu);
    col_bd.push_back(ct.cpu);
    if (crossover_bytes < 0 && ct.elapsed_seconds > rt.elapsed_seconds) {
      crossover_bytes = SelectedBytes(schema, k);
    }
  }
  if (crossover_bytes > 0) {
    std::printf("\ncrossover: column store falls behind when selecting more "
                "than %.0f of 150 bytes (%.0f%% of the tuple; paper: ~85%%)\n",
                crossover_bytes, crossover_bytes / 150.0 * 100.0);
  } else {
    std::printf("\nno crossover: column store never falls behind in this "
                "configuration\n");
  }

  std::printf("\nCPU time breakdowns (seconds at paper scale):\n");
  PrintBreakdownHeader();
  PrintBreakdownRow("row store, 1 attr", row_bd.front());
  PrintBreakdownRow("row store, 16 attrs", row_bd.back());
  for (int k = 1; k <= 16; ++k) {
    PrintBreakdownRow("column, " + std::to_string(k) + " attrs",
                      col_bd[static_cast<size_t>(k - 1)]);
  }
  std::printf("\nexpected shapes: flat row curves; column total grows with "
              "bytes read; L2/L1 jump when the string attributes (#9-#11) "
              "join the projection; column sys time grows with file "
              "count.\n");
  return 0;
}
