// Ablation: operating directly on compressed data. The paper's
// conclusion lists it among the column-store advantages it deliberately
// did NOT exploit ("even without other advantages, such as the ability to
// operate directly on compressed data [1] ..."). This bench turns that
// advantage on and measures what it adds on top of the paper's results:
// equality predicates on dictionary columns compare 2-4 bit codes and
// skip materialization for everything that does not reach the output.

#include <cstdio>

#include "bench_util.h"
#include "common/macros.h"

using namespace rodb;         // NOLINT
using namespace rodb::bench;  // NOLINT
using namespace rodb::tpch;   // NOLINT

int main() {
  Env env = Env::FromEnv();
  PrintHeader("Ablation: predicate evaluation on compressed data", env,
              "select L1..Lk from LINEITEM-Z where L_SHIPMODE = 'AIR' "
              "(~1/7 of tuples; dict 3-bit column)");

  auto meta = EnsureLineitem(env.Spec(Layout::kColumn, true));
  if (!meta.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 meta.status().ToString().c_str());
    return 1;
  }
  const HardwareConfig hw = HardwareConfig::Paper2006();
  FileBackend backend;
  const double scale = env.PaperScale();
  // The fixed-width operand: "AIR" padded to the 10-byte field.
  const std::string operand = "AIR       ";
  RODB_CHECK(operand.size() == 10);

  std::printf("%5s | %9s %9s | %9s %9s | cpu saved\n", "attrs", "off-el",
              "off-cpu", "on-el", "on-cpu");
  double on_cpu_1 = 0, off_cpu_1 = 0;
  for (int k : {1, 2, 4, 8, 16}) {
    ScanSpec base;
    base.projection = FirstAttrs(k);
    base.predicates = {Predicate::Text(kLShipmode, CompareOp::kEq, operand)};
    base.prune = false;  // the paper's engine has no zone maps
    ScanSpec off = base;
    off.compressed_eval = false;
    ScanSpec on = base;
    on.compressed_eval = true;
    auto off_run = RunScan(env.data_dir, meta->name, off, scale, &backend);
    auto on_run = RunScan(env.data_dir, meta->name, on, scale, &backend);
    if (!off_run.ok() || !on_run.ok()) {
      std::fprintf(stderr, "scan failed\n");
      return 1;
    }
    RODB_CHECK(off_run->result.output_checksum ==
               on_run->result.output_checksum);
    const auto off_t = ModelQueryTiming(off_run->paper_counters, hw, 48,
                                        off_run->paper_streams);
    const auto on_t = ModelQueryTiming(on_run->paper_counters, hw, 48,
                                       on_run->paper_streams);
    std::printf("%5d | %9.1f %9.1f | %9.1f %9.1f | %8.1f%%\n", k,
                off_t.elapsed_seconds, off_t.cpu_seconds,
                on_t.elapsed_seconds, on_t.cpu_seconds,
                (1.0 - on_t.cpu_seconds / off_t.cpu_seconds) * 100.0);
    if (k == 1) {
      on_cpu_1 = on_t.cpu_seconds;
      off_cpu_1 = off_t.cpu_seconds;
    }
  }
  std::printf("\nchecks:\n");
  std::printf("  identical results with the optimization on and off "
              "(checksums verified)  OK\n");
  std::printf("  CPU shrinks with pushdown at every projection width: "
              "%.1fs -> %.1fs at 1 attr  %s\n",
              off_cpu_1, on_cpu_1, on_cpu_1 < off_cpu_1 ? "OK" : "LOOK");
  std::printf("  (I/O is identical either way -- this is purely the CPU "
              "advantage the paper set aside.)\n");
  return 0;
}
