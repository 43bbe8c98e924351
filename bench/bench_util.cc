#include "bench_util.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "common/macros.h"
#include "obs/model_comparison.h"
#include "obs/scan_physics.h"
#include "server/query_engine.h"

namespace rodb::bench {

Env Env::FromEnv() {
  Env env;
  const char* dir = std::getenv("RODB_BENCH_DIR");
  env.data_dir = dir != nullptr && *dir != '\0'
                     ? dir
                     : (std::filesystem::current_path() / "rodb_benchdata")
                           .string();
  std::error_code ec;
  std::filesystem::create_directories(env.data_dir, ec);
  const char* tuples = std::getenv("RODB_BENCH_TUPLES");
  if (tuples != nullptr) {
    const long long n = std::atoll(tuples);
    if (n > 0) env.tuples = static_cast<uint64_t>(n);
  }
  return env;
}

tpch::LoadSpec Env::Spec(Layout layout, bool compressed,
                         bool orders_plain_for) const {
  tpch::LoadSpec spec;
  spec.dir = data_dir;
  spec.num_tuples = tuples;
  spec.layout = layout;
  spec.compressed = compressed;
  spec.orders_plain_for = orders_plain_for;
  return spec;
}

QueryRequest RequestFromSpec(const std::string& name, const ScanSpec& spec) {
  QueryRequest request;
  request.table = name;
  request.scan = spec;
  return request;
}

Result<ScanRun> RunScan(const std::string& dir, const std::string& name,
                        const ScanSpec& spec, double paper_scale,
                        IoBackend* backend, obs::QueryTrace* trace) {
  // The table is opened locally only to feed the I/O model's stream
  // list; the execution itself goes through the public facade.
  RODB_ASSIGN_OR_RETURN(OpenTable table, OpenTable::Open(dir, name));
  EngineOptions options;
  options.backend = backend;
  // The figure benches measure the paper's one-scan-per-query model;
  // circulating scans would pool the I/O the projections need per run.
  options.scan_sharing = false;
  QueryEngine engine(dir, options);
  QueryRequest request = RequestFromSpec(name, spec);
  request.mode = QueryMode::kExclusive;
  request.trace = trace;
  ScanRun run;
  RODB_ASSIGN_OR_RETURN(run.result, engine.Execute(request));
  run.rows = run.result.rows;
  run.counters = run.result.counters;
  if (trace != nullptr) {
    const auto physics = obs::PredictScanPhysics(table, spec);
    if (physics.ok()) {
      const HardwareConfig hw = HardwareConfig::Paper2006();
      const ModeledTiming timing = ModelQueryTiming(
          run.counters, hw, spec.read.prefetch_depth,
          CacheAdjustedStreams(ScanStreams(table, spec), run.counters));
      run.model_json =
          obs::BuildModelComparison(*physics, run.counters, *trace, timing,
                                    run.result.wall_seconds, hw)
              .ToJson();
    }
  }
  run.paper_counters = ScaleCounters(run.counters, paper_scale);
  run.paper_streams = ScanStreams(table, spec);
  for (StreamSpec& s : run.paper_streams) {
    s.bytes = static_cast<uint64_t>(static_cast<double>(s.bytes) *
                                    paper_scale);
  }
  return run;
}

int SelectedBytes(const Schema& schema, int k) {
  int bytes = 0;
  for (int i = 0; i < k; ++i) {
    bytes += schema.attribute(static_cast<size_t>(i)).width;
  }
  return bytes;
}

std::vector<int> FirstAttrs(int k) {
  std::vector<int> attrs;
  attrs.reserve(static_cast<size_t>(k));
  for (int i = 0; i < k; ++i) attrs.push_back(i);
  return attrs;
}

void PrintHeader(const std::string& title, const Env& env,
                 const std::string& workload) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("workload : %s\n", workload.c_str());
  std::printf("engine   : %llu tuples locally, projected to the paper's "
              "60M (scale x%.0f)\n",
              static_cast<unsigned long long>(env.tuples), env.PaperScale());
  std::printf("hardware : %s\n\n",
              HardwareConfig::Paper2006().ToString().c_str());
}

void PrintBreakdownHeader() {
  std::printf("  %-22s %8s %8s %8s %8s %8s %9s\n", "series", "sys",
              "usr-uop", "usr-L2", "usr-L1", "usr-rest", "cpu-total");
}

void PrintBreakdownRow(const std::string& label, const TimeBreakdown& t) {
  std::printf("  %-22s %8.2f %8.2f %8.2f %8.2f %8.2f %9.2f\n", label.c_str(),
              t.sys, t.usr_uop, t.usr_l2, t.usr_l1, t.usr_rest, t.Total());
}

}  // namespace rodb::bench
