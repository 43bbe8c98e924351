// Warehouse analytics: the workload class the paper's introduction
// motivates -- long read-only queries over a bulk-loaded fact table.
// Runs two full query plans on the TPC-H-derived tables against both
// physical layouts and reports results plus row-vs-column timings:
//
//   Q1: select L_LINENUMBER, sum(L_QUANTITY), count(*), avg(L_QUANTITY)
//       from LINEITEM where L_SHIPDATE < cutoff group by L_LINENUMBER
//   Q2: select count(*), sum(L_QUANTITY)
//       from ORDERS join LINEITEM on orderkey where O_ORDERDATE < cutoff
//
//   build/examples/warehouse_report [directory [tuples]]

#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "common/macros.h"
#include "common/bytes.h"
#include "engine/aggregate.h"
#include "engine/executor.h"
#include "engine/merge_join.h"
#include "engine/open_scanner.h"
#include "io/file_backend.h"
#include "tpch/loader.h"

using namespace rodb;        // NOLINT
using namespace rodb::tpch;  // NOLINT

namespace {

Status RunQ1(const std::string& dir, Layout layout) {
  const std::string table_name =
      layout == Layout::kRow ? "lineitem_row" : "lineitem_col";
  RODB_ASSIGN_OR_RETURN(OpenTable lineitem,
                        OpenTable::Open(dir, table_name));
  FileBackend backend;
  ExecStats stats;
  ScanSpec spec;
  spec.projection = {kLLinenumber, kLQuantity};
  spec.predicates = {Predicate::Int32(
      kLShipdate, CompareOp::kLt, SelectivityCutoff(kDateDomain, 0.5))};
  RODB_ASSIGN_OR_RETURN(OperatorPtr scan,
                        OpenScanner(lineitem, spec, &backend, &stats));
  AggPlan plan;
  plan.group_column = 0;  // L_LINENUMBER within the scan's output block
  plan.aggs = {{AggFunc::kSum, 1}, {AggFunc::kCount, 0}, {AggFunc::kAvg, 1}};
  RODB_ASSIGN_OR_RETURN(OperatorPtr agg,
                        SortAggOperator::Make(std::move(scan), plan, &stats));
  IntervalTimer timer;
  std::printf("Q1 on %-12s  lines  sum(qty)  count     avg\n",
              table_name.c_str());
  RODB_RETURN_IF_ERROR(Drain(agg.get(), &stats, [](const TupleBlock& block) {
    for (uint32_t i = 0; i < block.size(); ++i) {
      std::printf("   line %-12d %9lld %8lld %7lld\n",
                  LoadLE32s(block.attr(i, 0)),
                  static_cast<long long>(LoadLE64(block.attr(i, 1))),
                  static_cast<long long>(LoadLE64(block.attr(i, 2))),
                  static_cast<long long>(LoadLE64(block.attr(i, 3))));
    }
    return Status::OK();
  }));
  const MeasuredInterval m = timer.Lap();
  std::printf("   -> %.0f ms wall, %.1f MB read\n\n",
              m.wall_seconds * 1e3,
              static_cast<double>(stats.counters().io_bytes_read) / 1e6);
  return Status::OK();
}

Status RunQ2(const std::string& dir, Layout layout) {
  const char* suffix = layout == Layout::kRow ? "_row" : "_col";
  RODB_ASSIGN_OR_RETURN(OpenTable orders,
                        OpenTable::Open(dir, std::string("orders") + suffix));
  RODB_ASSIGN_OR_RETURN(
      OpenTable lineitem,
      OpenTable::Open(dir, std::string("lineitem") + suffix));
  FileBackend backend;
  ExecStats stats;
  ScanSpec ospec;
  ospec.projection = {kOOrderkey};
  ospec.predicates = {Predicate::Int32(
      kOOrderdate, CompareOp::kLt, SelectivityCutoff(kOrderdateDomain, 0.25))};
  ScanSpec lspec;
  lspec.projection = {kLOrderkey, kLQuantity};
  RODB_ASSIGN_OR_RETURN(OperatorPtr oscan,
                        OpenScanner(orders, ospec, &backend, &stats));
  RODB_ASSIGN_OR_RETURN(OperatorPtr lscan,
                        OpenScanner(lineitem, lspec, &backend, &stats));
  RODB_ASSIGN_OR_RETURN(
      OperatorPtr join,
      MergeJoinOperator::Make(std::move(oscan), std::move(lscan), 0, 0,
                              &stats));
  AggPlan plan;
  plan.group_column = -1;
  plan.aggs = {{AggFunc::kCount, 0}, {AggFunc::kSum, 2}};  // qty is col 2
  RODB_ASSIGN_OR_RETURN(OperatorPtr agg,
                        HashAggOperator::Make(std::move(join), plan, &stats));
  long long joined = 0, qty_sum = 0;
  IntervalTimer timer;
  RODB_RETURN_IF_ERROR(Drain(agg.get(), &stats, [&](const TupleBlock& block) {
    for (uint32_t i = 0; i < block.size(); ++i) {
      joined = static_cast<long long>(LoadLE64(block.attr(i, 0)));
      qty_sum = static_cast<long long>(LoadLE64(block.attr(i, 1)));
    }
    return Status::OK();
  }));
  const MeasuredInterval m = timer.Lap();
  std::printf("Q2 on %s layout: %lld joined lineitems, sum(qty)=%lld, "
              "%.0f ms wall, %.1f MB read\n",
              layout == Layout::kRow ? "row" : "column", joined, qty_sum,
              m.wall_seconds * 1e3,
              static_cast<double>(stats.counters().io_bytes_read) / 1e6);
  return Status::OK();
}

Status RunAll(const std::string& dir, uint64_t tuples) {
  LoadSpec spec;
  spec.dir = dir;
  spec.num_tuples = tuples;
  for (Layout layout : {Layout::kRow, Layout::kColumn}) {
    spec.layout = layout;
    RODB_RETURN_IF_ERROR(EnsureLineitem(spec).status());
    RODB_RETURN_IF_ERROR(EnsureOrders(spec).status());
  }
  RODB_RETURN_IF_ERROR(RunQ1(dir, Layout::kRow));
  RODB_RETURN_IF_ERROR(RunQ1(dir, Layout::kColumn));
  RODB_RETURN_IF_ERROR(RunQ2(dir, Layout::kRow));
  RODB_RETURN_IF_ERROR(RunQ2(dir, Layout::kColumn));
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string dir = argc > 1 ? argv[1] : "warehouse_data";
  const uint64_t tuples =
      argc > 2 ? static_cast<uint64_t>(std::atoll(argv[2])) : 200000;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const Status status = RunAll(dir, tuples);
  if (!status.ok()) {
    std::fprintf(stderr, "warehouse_report failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  return 0;
}
