// Figure 7: the baseline query at 0.1% selectivity.
//   select L1, L2, ... from LINEITEM where pred(L1) yields 0.1%
// I/O is unchanged (every column still streams off disk); the interesting
// output is the CPU breakdown: the column store's inner scan nodes now
// process ~1 of every 1000 values, so additional attributes add almost no
// CPU work and the large-string memory stalls disappear.

#include <cstdio>

#include "bench_util.h"

int main() {
  using namespace rodb;         // NOLINT
  using namespace rodb::bench;  // NOLINT
  using namespace rodb::tpch;   // NOLINT

  Env env = Env::FromEnv();
  PrintHeader("Figure 7: LINEITEM scan at 0.1% selectivity", env,
              "select L1..Lk from LINEITEM where L_PARTKEY < 0.1% cutoff");

  for (Layout layout : {Layout::kRow, Layout::kColumn}) {
    auto meta = EnsureLineitem(env.Spec(layout, false));
    if (!meta.ok()) {
      std::fprintf(stderr, "load failed: %s\n",
                   meta.status().ToString().c_str());
      return 1;
    }
  }
  const HardwareConfig hw = HardwareConfig::Paper2006();
  FileBackend backend;
  const double scale = env.PaperScale();
  const int32_t cutoff = SelectivityCutoff(kPartkeyDomain, 0.001);

  std::printf("CPU time breakdowns (seconds at paper scale):\n");
  PrintBreakdownHeader();
  TimeBreakdown col_1, col_16;
  for (int k : {1, 16}) {
    ScanSpec spec;
    spec.projection = FirstAttrs(k);
    spec.predicates = {Predicate::Int32(kLPartkey, CompareOp::kLt, cutoff)};
    spec.prune = false;  // the paper's engine has no zone maps
    auto row = RunScan(env.data_dir, "lineitem_row", spec, scale, &backend);
    if (!row.ok()) {
      std::fprintf(stderr, "%s\n", row.status().ToString().c_str());
      return 1;
    }
    PrintBreakdownRow("row store, " + std::to_string(k) + " attrs",
                      CpuModel(hw).Breakdown(row->paper_counters));
  }
  for (int k = 1; k <= 16; ++k) {
    ScanSpec spec;
    spec.projection = FirstAttrs(k);
    spec.predicates = {Predicate::Int32(kLPartkey, CompareOp::kLt, cutoff)};
    spec.prune = false;  // the paper's engine has no zone maps
    auto col = RunScan(env.data_dir, "lineitem_col", spec, scale, &backend);
    if (!col.ok()) {
      std::fprintf(stderr, "%s\n", col.status().ToString().c_str());
      return 1;
    }
    const TimeBreakdown bd = CpuModel(hw).Breakdown(col->paper_counters);
    PrintBreakdownRow("column, " + std::to_string(k) + " attrs", bd);
    if (k == 1) col_1 = bd;
    if (k == 16) col_16 = bd;
  }

  std::printf("\nchecks vs the paper:\n");
  const double user_growth = col_16.User() - col_1.User();
  std::printf("  selecting 15 extra attributes adds %.2fs of user CPU "
              "(paper: negligible -- scan nodes see 1/1000 of the values)"
              "  %s\n",
              user_growth, user_growth < 0.2 * col_16.Total() * 16 ? "OK"
                                                                   : "LOOK");
  std::printf("  system time still grows with bytes read: col-16 sys %.2fs "
              "> col-1 sys %.2fs  %s\n",
              col_16.sys, col_1.sys, col_16.sys > col_1.sys ? "OK" : "LOOK");

  // --- zone-map pruning: pruned vs unpruned backend bytes ---
  //
  // The selectivity predicate above sits on L_PARTKEY, which is uniform
  // and unclustered -- its page zones span the whole domain and prune
  // nothing (the honest outcome for such data). The clustered L_ORDERKEY
  // ascends with position, so a range predicate on it is exactly the
  // regime zone maps exist for: at low selectivity the scan should fetch
  // a small fraction of every file's pages.
  std::printf("\nzone-map pruning on the clustered key "
              "(L_ORDERKEY < cutoff, 6 attrs, cold backend):\n");
  const int32_t max_orderkey =
      1 + static_cast<int32_t>(env.tuples / 4);  // ~4 lineitems per order
  double col_ratio_1pct = 0.0;
  for (const char* name : {"lineitem_row", "lineitem_col"}) {
    const bool is_col = std::string(name) == "lineitem_col";
    for (double sel : {0.001, 0.01, 0.1}) {
      ScanSpec spec;
      spec.projection = FirstAttrs(6);
      spec.predicates = {Predicate::Int32(
          kLOrderkey, CompareOp::kLt,
          SelectivityCutoff(max_orderkey, sel))};
      spec.prune = false;
      auto plain = RunScan(env.data_dir, name, spec, scale, &backend);
      spec.prune = true;
      auto pruned = RunScan(env.data_dir, name, spec, scale, &backend);
      if (!plain.ok() || !pruned.ok()) {
        std::fprintf(stderr, "%s\n",
                     (!plain.ok() ? plain : pruned).status().ToString().c_str());
        return 1;
      }
      const uint64_t plain_bytes = plain->counters.io_bytes_read;
      const uint64_t pruned_bytes = pruned->counters.io_bytes_read;
      const double ratio =
          pruned_bytes > 0
              ? static_cast<double>(plain_bytes) /
                    static_cast<double>(pruned_bytes)
              : 0.0;
      if (is_col && sel == 0.01) col_ratio_1pct = ratio;
      std::printf("  %-13s sel %5.1f%%: %8llu -> %8llu backend bytes "
                  "(%.1fx), %llu/%llu pages pruned, rows %s\n",
                  name, sel * 100.0,
                  static_cast<unsigned long long>(plain_bytes),
                  static_cast<unsigned long long>(pruned_bytes), ratio,
                  static_cast<unsigned long long>(
                      pruned->counters.pages_pruned),
                  static_cast<unsigned long long>(
                      pruned->counters.pages_pruned +
                      pruned->counters.pages_retained),
                  pruned->rows == plain->rows ? "equal" : "DIVERGED");
      std::printf(
          "JSON {\"figure\":\"fig07\",\"mode\":\"pruning\",\"table\":\"%s\","
          "\"selectivity\":%g,\"rows\":%llu,\"rows_pruned_run\":%llu,"
          "\"unpruned_backend_bytes\":%llu,\"pruned_backend_bytes\":%llu,"
          "\"bytes_ratio\":%.3f,\"pages_pruned\":%llu,"
          "\"pages_retained\":%llu}\n",
          name, sel, static_cast<unsigned long long>(plain->rows),
          static_cast<unsigned long long>(pruned->rows),
          static_cast<unsigned long long>(plain_bytes),
          static_cast<unsigned long long>(pruned_bytes), ratio,
          static_cast<unsigned long long>(pruned->counters.pages_pruned),
          static_cast<unsigned long long>(pruned->counters.pages_retained));
    }
  }
  std::printf("  cold column scan at 1%% selectivity reads %.1fx fewer "
              "backend bytes with pruning  %s\n",
              col_ratio_1pct, col_ratio_1pct >= 5.0 ? "OK" : "LOOK");
  return 0;
}
