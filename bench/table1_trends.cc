// Table 1: expected performance trends -- how each workload/system
// parameter moves time spent on disk, memory transfers and CPU. Each row
// below is measured with the engine + hardware model and checked against
// the direction the paper's table predicts.

#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "common/macros.h"

namespace {

using namespace rodb;         // NOLINT
using namespace rodb::bench;  // NOLINT
using namespace rodb::tpch;   // NOLINT

struct Times {
  double disk = 0;  ///< modeled disk seconds
  double mem = 0;   ///< modeled memory-transfer seconds (seq bytes / bw)
  double cpu = 0;   ///< modeled total CPU seconds
};

int g_failures = 0;

void CheckTrend(const char* param, const Times& before, const Times& after,
                int disk_dir, int mem_dir, int cpu_dir) {
  // dir: +1 expect increase, -1 expect decrease, 0 expect ~flat.
  auto verdict = [](double a, double b, int dir) {
    const double rel = (b - a) / std::max(1e-9, a);
    switch (dir) {
      case +1:
        return rel > 0.02;
      case -1:
        return rel < -0.02;
      default:
        return std::fabs(rel) <= 0.10;
    }
  };
  auto arrow = [](int dir) { return dir > 0 ? "up" : dir < 0 ? "down" : "--"; };
  const bool ok = verdict(before.disk, after.disk, disk_dir) &&
                  verdict(before.mem, after.mem, mem_dir) &&
                  verdict(before.cpu, after.cpu, cpu_dir);
  if (!ok) ++g_failures;
  std::printf("%-34s disk %5.1f->%-6.1f(%s)  mem %5.2f->%-6.2f(%s)  "
              "cpu %5.1f->%-6.1f(%s)  %s\n",
              param, before.disk, after.disk, arrow(disk_dir), before.mem,
              after.mem, arrow(mem_dir), before.cpu, after.cpu,
              arrow(cpu_dir), ok ? "PASS" : "FAIL");
}

Times Measure(const Env& env, const std::string& table, int attrs,
              int pred_attr, int32_t domain, double selectivity,
              const HardwareConfig& hw, int depth,
              std::vector<StreamSpec> competing = {}) {
  FileBackend backend;
  ScanSpec spec;
  spec.projection = FirstAttrs(attrs);
  spec.predicates = {Predicate::Int32(
      pred_attr, CompareOp::kLt, SelectivityCutoff(domain, selectivity))};
  spec.prune = false;  // the paper's engine has no zone maps
  auto run = RunScan(env.data_dir, table, spec, env.PaperScale(), &backend);
  RODB_CHECK(run.ok());
  const ModeledTiming t = ModelQueryTiming(run->paper_counters, hw, depth,
                                           run->paper_streams, competing);
  Times times;
  times.disk = t.io_seconds;
  times.mem = static_cast<double>(run->paper_counters.seq_bytes_touched) /
              hw.MemBandwidth();
  times.cpu = t.cpu_seconds;
  return times;
}

}  // namespace

int main() {
  Env env = Env::FromEnv();
  PrintHeader("Table 1: expected performance trends", env,
              "direction of disk / memory / CPU time per parameter");

  for (Layout layout : {Layout::kRow, Layout::kColumn}) {
    RODB_CHECK(EnsureLineitem(env.Spec(layout, false)).ok());
    RODB_CHECK(EnsureOrders(env.Spec(layout, false)).ok());
  }
  RODB_CHECK(EnsureOrders(env.Spec(Layout::kRow, true)).ok());
  const HardwareConfig hw = HardwareConfig::Paper2006();

  // 1. Selecting more attributes (column store only): everything rises.
  CheckTrend("more attributes (columns)",
             Measure(env, "orders_col", 2, kOOrderdate, kOrderdateDomain,
                     0.10, hw, 48),
             Measure(env, "orders_col", 6, kOOrderdate, kOrderdateDomain,
                     0.10, hw, 48),
             +1, +1, +1);

  // 2. Decreased selectivity: disk unchanged, memory and CPU fall
  //    (column store; inner nodes touch almost nothing).
  CheckTrend("decreased selectivity (columns)",
             Measure(env, "lineitem_col", 8, kLPartkey, kPartkeyDomain, 0.10,
                     hw, 48),
             Measure(env, "lineitem_col", 8, kLPartkey, kPartkeyDomain,
                     0.001, hw, 48),
             0, -1, -1);

  // 3. Narrower tuples (same cardinality): everything falls.
  CheckTrend("narrower tuples (rows)",
             Measure(env, "lineitem_row", 5, kLPartkey, kPartkeyDomain, 0.10,
                     hw, 48),
             Measure(env, "orders_row", 5, kOOrderdate, kOrderdateDomain,
                     0.10, hw, 48),
             -1, -1, -1);

  // 4. Compression: disk and memory fall, CPU rises (decode work).
  CheckTrend("compression (rows)",
             Measure(env, "orders_row", 7, kOOrderdate, kOrderdateDomain,
                     0.10, hw, 48),
             Measure(env, "orders_z_row", 7, kOOrderdate, kOrderdateDomain,
                     0.10, hw, 48),
             -1, -1, +1);

  // 5. Larger prefetch: disk falls for multi-file scans, CPU unchanged.
  CheckTrend("larger prefetch (columns)",
             Measure(env, "orders_col", 7, kOOrderdate, kOrderdateDomain,
                     0.10, hw, 2),
             Measure(env, "orders_col", 7, kOOrderdate, kOrderdateDomain,
                     0.10, hw, 48),
             -1, 0, 0);

  // 6. More disk traffic: disk rises, CPU unchanged.
  CheckTrend("competing disk traffic (rows)",
             Measure(env, "orders_row", 7, kOOrderdate, kOrderdateDomain,
                     0.10, hw, 48),
             Measure(env, "orders_row", 7, kOOrderdate, kOrderdateDomain,
                     0.10, hw, 48, {{9500000000ULL, 1.0, false}}),
             +1, 0, 0);

  // 7. More CPUs / more disks: CPU falls with CPUs, disk falls with disks.
  HardwareConfig more_cpus = hw;
  more_cpus.num_cpus = 2;
  CheckTrend("two CPUs (rows)",
             Measure(env, "lineitem_row", 16, kLPartkey, kPartkeyDomain,
                     0.10, hw, 48),
             Measure(env, "lineitem_row", 16, kLPartkey, kPartkeyDomain,
                     0.10, more_cpus, 48),
             0, 0, -1);
  HardwareConfig one_disk = HardwareConfig::Paper2006OneDisk();
  CheckTrend("three disks vs one (rows)",
             Measure(env, "lineitem_row", 16, kLPartkey, kPartkeyDomain,
                     0.10, one_disk, 48),
             Measure(env, "lineitem_row", 16, kLPartkey, kPartkeyDomain,
                     0.10, hw, 48),
             -1, 0, 0);

  std::printf("\n%s\n", g_failures == 0
                            ? "all trend directions match Table 1"
                            : "TREND MISMATCHES FOUND -- see FAIL rows");
  return g_failures == 0 ? 0 : 1;
}
