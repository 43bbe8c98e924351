// Micro benchmarks: raw scanner throughput (tuples/sec on the host) over
// memory-resident tables -- the pure-CPU side of the row/column tradeoff,
// without any disk in the way. Also emits the before/after JSON for the
// vectorized scan kernels (src/kernels/): the same bit-packed selection
// scan with spec.vectorized off vs on.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>

#include "bench_util.h"
#include "common/file_util.h"
#include "engine/open_scanner.h"
#include "io/mem_backend.h"
#include "kernels/scan_kernels.h"

namespace rodb {
namespace {

using rodb::bench::Env;
using rodb::bench::FirstAttrs;

struct MemFixture {
  Env env = Env::FromEnv();
  MemBackend backend;
  bool loaded = false;

  /// Loads the scaled ORDERS tables (both layouts) and mirrors their
  /// files into the in-memory backend.
  void EnsureLoaded() {
    if (loaded) return;
    for (Layout layout : {Layout::kRow, Layout::kColumn}) {
      auto meta = tpch::EnsureOrders(env.Spec(layout, false));
      if (!meta.ok()) std::abort();
      auto table = OpenTable::Open(env.data_dir, meta->name);
      if (!table.ok()) std::abort();
      const size_t files = layout == Layout::kRow
                               ? 1
                               : table->schema().num_attributes();
      for (size_t f = 0; f < files; ++f) {
        auto blob = ReadFileToString(table->FilePath(f));
        if (!blob.ok()) std::abort();
        backend.PutFile(table->FilePath(f),
                        std::vector<uint8_t>(blob->begin(), blob->end()));
      }
    }
    loaded = true;
  }
};

MemFixture& Fixture() {
  static MemFixture* fixture = new MemFixture();
  return fixture->EnsureLoaded(), *fixture;
}

void RunScanBench(benchmark::State& state, const std::string& name,
                  int attrs, double selectivity) {
  MemFixture& fx = Fixture();
  auto table = OpenTable::Open(fx.env.data_dir, name);
  if (!table.ok()) std::abort();
  ScanSpec spec;
  spec.projection = FirstAttrs(attrs);
  spec.predicates = {Predicate::Int32(
      tpch::kOOrderdate, CompareOp::kLt,
      tpch::SelectivityCutoff(tpch::kOrderdateDomain, selectivity))};
  spec.prune = false;  // the paper's engine has no zone maps
  for (auto _ : state) {
    ExecStats stats;
    Result<OperatorPtr> scan =
        OpenScanner(*table, spec, &fx.backend, &stats);
    if (!scan.ok()) std::abort();
    auto result = Execute(scan->get(), &stats);
    if (!result.ok()) std::abort();
    benchmark::DoNotOptimize(result->output_checksum);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fx.env.tuples));
}

void BM_RowScan_1Attr(benchmark::State& state) {
  RunScanBench(state, "orders_row", 1, 0.1);
}
void BM_RowScan_7Attrs(benchmark::State& state) {
  RunScanBench(state, "orders_row", 7, 0.1);
}
void BM_ColScan_1Attr(benchmark::State& state) {
  RunScanBench(state, "orders_col", 1, 0.1);
}
void BM_ColScan_7Attrs(benchmark::State& state) {
  RunScanBench(state, "orders_col", 7, 0.1);
}
void BM_ColScan_7Attrs_LowSel(benchmark::State& state) {
  RunScanBench(state, "orders_col", 7, 0.001);
}

BENCHMARK(BM_RowScan_1Attr)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RowScan_7Attrs)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ColScan_1Attr)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ColScan_7Attrs)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ColScan_7Attrs_LowSel)->Unit(benchmark::kMillisecond);

// --- kernel vs scalar: batched predicates on compressed data ---

/// Median-of-reps wall seconds for one execution of `spec` over `table`.
double TimeScan(const OpenTable& table, const ScanSpec& spec,
                IoBackend* backend, int reps) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    ExecStats stats;
    Result<OperatorPtr> scan = OpenScanner(table, spec, backend, &stats);
    if (!scan.ok()) std::abort();
    const auto t0 = std::chrono::steady_clock::now();
    auto result = Execute(scan->get(), &stats);
    const auto t1 = std::chrono::steady_clock::now();
    if (!result.ok()) std::abort();
    benchmark::DoNotOptimize(result->output_checksum);
    const double s = std::chrono::duration<double>(t1 - t0).count();
    if (s < best) best = s;
  }
  return best;
}

/// Scans the compressed ORDERS column table (O_ORDERDATE: 14-bit packed)
/// with a 10%-selective range predicate, vectorized off then on, and
/// emits one JSON line with both throughputs and the speedup.
void RunKernelVsScalar() {
  Env env = Env::FromEnv();
  auto meta = tpch::EnsureOrders(env.Spec(Layout::kColumn, true));
  if (!meta.ok()) std::abort();
  auto table = OpenTable::Open(env.data_dir, meta->name);
  if (!table.ok()) std::abort();
  MemBackend backend;
  for (size_t f = 0; f < table->schema().num_attributes(); ++f) {
    auto blob = ReadFileToString(table->FilePath(f));
    if (!blob.ok()) std::abort();
    backend.PutFile(table->FilePath(f),
                    std::vector<uint8_t>(blob->begin(), blob->end()));
  }

  const double selectivity = 0.1;
  ScanSpec spec;
  spec.projection = {tpch::kOOrderdate};
  spec.predicates = {Predicate::Int32(
      tpch::kOOrderdate, CompareOp::kLt,
      tpch::SelectivityCutoff(tpch::kOrderdateDomain, selectivity))};
  spec.prune = false;  // kernels vs scalar over every page

  const int reps = 7;
  spec.vectorized = false;
  const double scalar_s = TimeScan(*table, spec, &backend, reps);
  spec.vectorized = true;
  const double vector_s = TimeScan(*table, spec, &backend, reps);

  const double tuples = static_cast<double>(env.tuples);
  const std::string_view isa = kernels::ActiveKernelIsa();
  std::printf(
      "JSON {\"bench\":\"kernel_vs_scalar\",\"table\":\"%s\","
      "\"codec\":\"pack14\",\"selectivity\":%.3f,\"isa\":\"%.*s\","
      "\"scalar_tuples_per_sec\":%.0f,"
      "\"vectorized_tuples_per_sec\":%.0f,\"speedup\":%.2f}\n",
      meta->name.c_str(), selectivity, static_cast<int>(isa.size()),
      isa.data(), tuples / scalar_s, tuples / vector_s,
      scalar_s / vector_s);
}

}  // namespace
}  // namespace rodb

int main(int argc, char** argv) {
  rodb::RunKernelVsScalar();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
