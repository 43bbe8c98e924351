#ifndef RODB_BENCH_BENCH_UTIL_H_
#define RODB_BENCH_BENCH_UTIL_H_

#include <string>
#include <vector>

#include "engine/executor.h"
#include "engine/scan_spec.h"
#include "io/file_backend.h"
#include "obs/span.h"
#include "server/query_request.h"
#include "storage/catalog.h"
#include "tpch/loader.h"
#include "tpch/tpch_schema.h"

namespace rodb::bench {

/// Shared environment for the figure benchmarks.
///
/// The engine executes for real on scaled-down tables (default 300K
/// tuples vs the paper's 60M); per-tuple CPU work is scale-free and disk
/// time is linear in bytes, so results are projected to paper scale (see
/// DESIGN.md substitution #4). Override with:
///   RODB_BENCH_DIR    dataset directory (default <cwd>/rodb_benchdata)
///   RODB_BENCH_TUPLES table cardinality (default 300000)
struct Env {
  std::string data_dir;
  uint64_t tuples = 300000;

  static Env FromEnv();

  /// Multiplier from the local cardinality to the paper's 60M tuples.
  double PaperScale() const {
    return 60e6 / static_cast<double>(tuples);
  }

  tpch::LoadSpec Spec(Layout layout, bool compressed,
                      bool orders_plain_for = false) const;
};

/// One engine execution projected to paper scale.
struct ScanRun {
  QueryResult result;             ///< host-measured run
  ExecCounters counters;          ///< raw counters at local scale
  ExecCounters paper_counters;    ///< counters scaled to 60M tuples
  std::vector<StreamSpec> paper_streams;  ///< stream bytes at paper scale
  uint64_t rows = 0;
  /// Predicted-vs-measured ModelComparison::ToJson() of the traced run;
  /// empty unless a trace was passed to RunScan (or the physics
  /// predictor declined the spec).
  std::string model_json;
};

/// Wraps a ScanSpec in the public QueryRequest (the benches describe
/// experiments as specs; the engine wants requests).
QueryRequest RequestFromSpec(const std::string& name, const ScanSpec& spec);

/// Executes `spec` against `name` through the public
/// QueryEngine::Execute facade -- in kExclusive mode, so the per-query
/// counters carry the run's real I/O for the paper-scale projections --
/// and returns counters/streams projected by `paper_scale`. When
/// `trace` is non-null the run is traced and `model_json` carries the
/// side-by-side predicted-vs-measured comparison for the benches' JSON
/// output.
Result<ScanRun> RunScan(const std::string& dir, const std::string& name,
                        const ScanSpec& spec, double paper_scale,
                        IoBackend* backend,
                        obs::QueryTrace* trace = nullptr);

/// Cumulative on-disk bytes of the first `k` attributes of a schema --
/// the "selected bytes per tuple" x-axis of Figures 6-10. For compressed
/// schemas pass `uncompressed_widths` (the paper spaces Figure 9/10 by
/// uncompressed size).
int SelectedBytes(const Schema& schema, int k);

/// Projection of the first `k` attributes (the experiments' "select
/// A1, A2, ..." pattern).
std::vector<int> FirstAttrs(int k);

// --- printing helpers ---

/// Prints "=== <title> ===" plus context lines.
void PrintHeader(const std::string& title, const Env& env,
                 const std::string& workload);

/// Prints one five-component CPU breakdown row (seconds at paper scale).
void PrintBreakdownRow(const std::string& label, const TimeBreakdown& t);
void PrintBreakdownHeader();

}  // namespace rodb::bench

#endif  // RODB_BENCH_BENCH_UTIL_H_
