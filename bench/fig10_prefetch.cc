// Figure 10: varying the prefetch depth (2, 4, 8, 16, 48 I/O units of
// 128KB per disk) when scanning ORDERS at 10% selectivity. A single row
// scan is insensitive to prefetching; the column scan spends more and
// more time seeking between column files as the prefetch buffer shrinks.

#include <cstdio>

#include "bench_util.h"

int main() {
  using namespace rodb;         // NOLINT
  using namespace rodb::bench;  // NOLINT
  using namespace rodb::tpch;   // NOLINT

  Env env = Env::FromEnv();
  PrintHeader("Figure 10: prefetch-depth sweep on ORDERS (10% selectivity)",
              env, "select O1..Ok from ORDERS, prefetch depth in "
                   "{2,4,8,16,48} I/O units");

  for (Layout layout : {Layout::kRow, Layout::kColumn}) {
    auto meta = EnsureOrders(env.Spec(layout, false));
    if (!meta.ok()) {
      std::fprintf(stderr, "load failed\n");
      return 1;
    }
  }
  auto schema_result = OrdersSchema();
  const HardwareConfig hw = HardwareConfig::Paper2006();
  FileBackend backend;
  const double scale = env.PaperScale();
  const int32_t cutoff = SelectivityCutoff(kOrderdateDomain, 0.10);
  const int kDepths[] = {2, 4, 8, 16, 48};

  std::printf("%5s %6s | %8s |", "attrs", "bytes", "row");
  for (int d : kDepths) std::printf("  col-%-3d", d);
  std::printf("   (elapsed seconds at paper scale)\n");

  double col2_full = 0, col48_full = 0, row_full = 0;
  for (int k = 1; k <= 7; ++k) {
    ScanSpec spec;
    spec.projection = FirstAttrs(k);
    spec.predicates = {Predicate::Int32(kOOrderdate, CompareOp::kLt, cutoff)};
    spec.prune = false;  // the paper's engine has no zone maps
    // CPU work is independent of prefetch depth: run the engine once per
    // system and sweep the depth in the disk model.
    auto row = RunScan(env.data_dir, "orders_row", spec, scale, &backend);
    auto col = RunScan(env.data_dir, "orders_col", spec, scale, &backend);
    if (!row.ok() || !col.ok()) {
      std::fprintf(stderr, "scan failed\n");
      return 1;
    }
    const ModeledTiming rt =
        ModelQueryTiming(row->paper_counters, hw, 48, row->paper_streams);
    std::printf("%5d %6d | %8.1f |", k, SelectedBytes(*schema_result, k),
                rt.elapsed_seconds);
    for (int d : kDepths) {
      const ModeledTiming ct =
          ModelQueryTiming(col->paper_counters, hw, d, col->paper_streams);
      std::printf(" %8.1f", ct.elapsed_seconds);
      if (k == 7 && d == 2) col2_full = ct.elapsed_seconds;
      if (k == 7 && d == 48) col48_full = ct.elapsed_seconds;
    }
    if (k == 7) row_full = rt.elapsed_seconds;
    std::printf("\n");
  }

  std::printf("\nchecks vs the paper:\n");
  std::printf("  row system unaffected by prefetching (single scan)\n");
  std::printf("  column system degrades as depth shrinks: %.1fs at depth 48 "
              "vs %.1fs at depth 2 (full projection)  %s\n",
              col48_full, col2_full, col2_full > col48_full ? "OK" : "LOOK");
  std::printf("  with deep prefetch the full-projection column scan stays "
              "near the row scan: %.1fs vs %.1fs\n",
              col48_full, row_full);
  return 0;
}
