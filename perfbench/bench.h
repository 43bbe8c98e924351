#ifndef RODB_PERFBENCH_BENCH_H_
#define RODB_PERFBENCH_BENCH_H_

// Shared plumbing of the repository benchmark: arguments, the report a
// workload fills, and small measurement helpers.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "engine/scan_spec.h"
#include "hwmodel/cpu_model.h"
#include "storage/schema.h"

namespace perfbench {

/// Tuples per base table in every workload.
inline constexpr uint64_t kTuples = 300000;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for data and span dumps (inside the checkout).
  std::string work_dir;
};

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Every workload reports every metric of both lists (BENCHMARK.json
/// names the same ones); a layer a workload does not exercise reads 0.
inline constexpr MetricDef kEndToEndMetrics[] = {
    {"setup_s", "s"},
    {"query_p50_ms", "ms"},
    {"scan_tuples_per_s", "tuples/s"},
    {"peak_qps", "queries/s"},
    {"peak_rss_mb", "MiB"},
    {"bytes_stored_per_user_byte", "ratio"},
};
inline constexpr MetricDef kPerLayerMetrics[] = {
    {"io.open_ms", "ms"},
    {"io.streams_per_query", "count"},
    {"io.read_wait_ms", "ms"},
    {"io.bytes_per_tuple", "bytes"},
    {"io.prefetch_stall_frac", "ratio"},
    {"io.cache_hit_frac", "ratio"},
    {"io.cache_evictions", "count"},
    {"io.fsyncs", "count"},
    {"io.fsync_ms", "ms"},
    {"tpch.load_s", "s"},
    {"storage.open_table_ms", "ms"},
    {"storage.pages_parsed_per_query", "count"},
    {"engine.execute_ms", "ms"},
    {"engine.self_ms", "ms"},
    {"engine.phase.open_ms", "ms"},
    {"engine.phase.scan_self_ms", "ms"},
    {"engine.phase.drain_self_ms", "ms"},
    {"engine.facade_overhead", "ratio"},
    {"engine.col_row_ratio", "ratio"},
    {"engine.pages_pruned_frac", "ratio"},
    {"engine.rows_per_tuple_examined", "ratio"},
    {"engine.parallel_morsels", "count"},
    {"engine.admission_rejections", "count"},
    {"kernels.values_per_query", "count"},
    {"kernels.mask_skipped_frac", "ratio"},
    {"compression.values_decoded_per_query", "count"},
    {"compression.code_reads_per_query", "count"},
    {"server.wire_ms", "ms"},
    {"server.shared_frac", "ratio"},
    {"server.riders_per_lap", "ratio"},
    {"server.shared_ms", "ms"},
    {"server.exclusive_ms", "ms"},
    {"server.parallel_ms", "ms"},
    {"server.snapshot_ms", "ms"},
    {"server.query_tail_ms", "ms"},
    {"server.ingest_ack_p50_ms", "ms"},
    {"server.ingest_ack_p99_ms", "ms"},
    {"wos.freezes", "count"},
    {"wos.merges", "count"},
    {"wos.rewrite_amp", "ratio"},
    {"wos.segments_per_snapshot", "count"},
    {"obs.trace_overhead_frac", "ratio"},
    {"obs.counter_mismatches", "count"},
    {"model.predicted_ms", "ms"},
    {"gen.late_ms_p99", "ms"},
};

/// What one workload run produced. `end_to_end` is printed by untraced
/// runs and `per_layer` by traced ones; `detail` is a JSON object with
/// the workload's extras and its per-query-class breakdown.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// False when an output disagreed with the oracle.
  bool correct = true;
  /// Non-empty when the run's figures are not valid (the open-loop
  /// generator lagged): the run is flagged and prints no result.
  std::string invalid;
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;
  std::string detail = "{}";
};

Report RunScanWorkload(const Args& args, bool selective);
Report RunServeMixed(const Args& args);

/// Current value of a rodb.* registry counter.
uint64_t RegistryCounter(const std::string& name);

double Mean(const std::vector<double>& v);

double Ms(std::chrono::steady_clock::duration d);

/// Registry counter deltas over an interval.
class RegistryDelta {
 public:
  explicit RegistryDelta(std::vector<std::string> names);
  uint64_t operator[](const std::string& name) const;

 private:
  std::map<std::string, uint64_t> start_;
};

/// Peak resident set of this process so far (VmHWM), in MiB.
double PeakRssMib();

/// The machine's CPU time from /proc/stat, in clock ticks: all of it and
/// the part the hypervisor gave to other guests (steal).
struct MachineCpu {
  double total = 0, steal = 0;
};
MachineCpu ReadMachineCpu();

/// Sum of the sizes of every regular file under `dir`.
uint64_t DirectoryBytes(const std::string& dir);

/// Removes and recreates `dir`.
rodb::Status FreshDir(const std::string& dir);

/// Runs `setup` `reps` times, each into a fresh directory
/// `<base>/setup<i>`, and returns the per-rep seconds (setup_s is their
/// median). Every directory but the last is removed; the last one is
/// returned in `*kept`. An error aborts the whole run.
rodb::Status TimedSetups(const std::string& base, int reps,
                         const std::function<rodb::Status(const std::string&,
                                                          bool last)>& setup,
                         std::vector<double>* seconds, std::string* kept);

/// Raw tuples of one TPC-H base table, regenerated from the seed exactly
/// as the tpch loaders generate them.
std::vector<std::vector<uint8_t>> RawTpchTuples(bool lineitem, uint64_t seed);

/// What the oracle (engine/reference_eval) says a scan returns: rows, the
/// ordered checksum and the order-independent row digest.
struct Expected {
  bool ok = false;
  uint64_t rows = 0, checksum = 0, digest = 0;
};
Expected Reference(const rodb::Schema& schema,
                   const std::vector<std::vector<uint8_t>>& tuples,
                   const rodb::ScanSpec& spec);

/// Adds `attr` in a seeded window holding `fraction` of [lo, lo + values).
void AddWindow(rodb::ScanSpec* spec, rodb::Random* rng, int attr, int32_t lo,
               int32_t values, double fraction);

/// max(1, values * fraction), rounded.
int32_t Width(int32_t values, double fraction);

/// True when every field of the two counter records is equal.
bool SameCounters(const rodb::ExecCounters& a, const rodb::ExecCounters& b);

/// Compact JSON object builder for the detail line.
class Json {
 public:
  Json& Num(const std::string& key, double value);
  Json& Str(const std::string& key, const std::string& value);
  Json& Raw(const std::string& key, const std::string& json);
  std::string str() const { return "{" + body_ + "}"; }

 private:
  void Key(const std::string& key);
  std::string body_;
};

/// Formats a number for JSON with all its digits (+inf becomes 1e308).
std::string JsonNumber(double value);

}  // namespace perfbench

#endif  // RODB_PERFBENCH_BENCH_H_
