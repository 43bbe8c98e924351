// The repository benchmark. One run of one workload:
//
//   perfbench --workload <scan_wide|scan_selective|serve_mixed>
//             --seed <n> --seconds <s> --trace <0|1>
//
// generates the workload's data from the seed, drives it through the
// public API only (QueryEngine::Execute in-process, QueryServer +
// QueryClient over loopback), checks every result against
// engine/reference_eval, and prints one JSON object as the last line of
// stdout: the end-to-end metrics untraced, the per-layer metrics traced.
// The line before it ("perfbench-detail {...}") carries the workload's
// extras and per-query-class breakdown. Exit code 1 means an output
// disagreed with the oracle; 2 bad arguments or a failed set-up; 3 a
// failed self-check of the benchmark's own arithmetic; 4 a run whose
// open-loop generator lagged (flagged, no result printed).

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "io/durable_file.h"
#include "kernels/scan_kernels.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload scan_wide|scan_selective|"
               "serve_mixed --seed N --seconds S --trace 0|1\n");
  return 2;
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

/// Checks of the benchmark's own arithmetic on inputs with known answers.
/// Returns the first failure, or an empty string.
std::string SelfCheck() {
  // Self time: overlapping children, children from other threads that
  // overlap each other, and children reaching past either end.
  if (SelfNanos(0, 100, {{10, 30}, {20, 50}, {90, 120}, {-5, 2}}) != 48) {
    return "span self time with overlapping and clipped children";
  }
  if (SelfNanos(0, 100, {{10, 60}, {20, 70}, {65, 80}}) != 30) {
    return "span self time with concurrent children";
  }
  if (SelfNanos(0, 100, {}) != 100) return "span self time without children";

  // Tail rule: ten samples beyond the reported percentile.
  if (!TailSupported(200, 0.95) || TailSupported(199, 0.95) ||
      !TailSupported(1000, 0.99) || TailSupported(999, 0.99) ||
      SamplesForTail(0.95) != 200 || SamplesForTail(0.99) != 1000 ||
      SamplesForTail(0.5) != 20) {
    return "tail-percentile sample rule";
  }
  // Failures count as +inf in every percentile.
  std::vector<double> samples;
  for (int i = 1; i <= 100; ++i) samples.push_back(i);
  if (!Near(Quantile(samples, 0.5), 50.5) ||
      !Near(Quantile(samples, 0.95), 95.05)) {
    return "interpolated quantiles";
  }
  for (int i = 94; i < 100; ++i) samples[i] = kFailedLatency;
  if (!std::isinf(Quantile(samples, 0.95)) ||
      std::isinf(Quantile(samples, 0.5))) {
    return "failures as +inf in percentiles (6% failed)";
  }
  samples[94] = samples[95] = 95;
  if (std::isinf(Quantile(samples, 0.95))) {
    return "failures as +inf in percentiles (4% failed)";
  }

  // Open loop: the first reply stalls until t=35, so the next three
  // requests go out late and are charged from their due times; the
  // generator itself was never late. The fifth request is sent 5 ms after
  // both its due time and the previous reply: that is generator lag.
  std::vector<OpenLoopRequest> conn = {{0, 0, 35, true},
                                       {10, 35, 36, true},
                                       {20, 36, 37, true},
                                       {30, 37, 38, false},
                                       {40, 45, 46, true}};
  std::vector<double> latency, late;
  OpenLoopTimes(conn, &latency, &late);
  const std::vector<double> want_latency = {35, 26, 17, kFailedLatency, 6};
  const std::vector<double> want_late = {0, 0, 0, 0, 5};
  if (latency != want_latency || late != want_late) {
    return "open-loop due-time latency and generator lateness";
  }
  return "";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;  // NOLINT
  Args args;
  bool have_workload = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage();
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0)) return Usage();
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage();
      args.trace = value == "1";
      have_trace = true;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || !have_workload || !have_trace ||
      (args.workload != "scan_wide" && args.workload != "scan_selective" &&
       args.workload != "serve_mixed")) {
    return Usage();
  }
  const std::string failed_check = SelfCheck();
  if (!failed_check.empty()) {
    std::fprintf(stderr, "self-check failed: %s\n", failed_check.c_str());
    return 3;
  }
  args.work_dir =
      (std::filesystem::current_path() / ".bench_build" / "perfbench-work")
          .string();
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);

  // The default commit-level flush policy, whatever the environment says,
  // so both sides of a comparison sync the same way.
  rodb::SetFsyncLevel(rodb::FsyncLevel::kCommit);

  const MachineCpu cpu_start = ReadMachineCpu();
  Report report = args.workload == "serve_mixed"
                      ? RunServeMixed(args)
                      : RunScanWorkload(args, args.workload == "scan_selective");

  // A metric name outside the canonical lists is a benchmark bug.
  auto known = [](const auto& defs, const std::map<std::string, double>& m) {
    for (const auto& [name, value] : m) {
      bool found = false;
      for (const MetricDef& def : defs) found = found || name == def.name;
      if (!found) {
        std::fprintf(stderr, "unknown metric %s\n", name.c_str());
        return false;
      }
    }
    return true;
  };
  if (!known(kEndToEndMetrics, report.end_to_end) ||
      !known(kPerLayerMetrics, report.per_layer)) {
    return 3;
  }
  auto values = [](const auto& defs, const std::map<std::string, double>& m) {
    Json json;
    for (const MetricDef& def : defs) {
      auto it = m.find(def.name);
      json.Num(def.name, it == m.end() ? 0.0 : it->second);
    }
    return json.str();
  };

  Json detail;
  detail.Str("workload", args.workload)
      .Num("seed", static_cast<double>(args.seed))
      .Num("trace", args.trace ? 1 : 0)
      .Str("kernel_isa", std::string(rodb::kernels::ActiveKernelIsa()))
      .Str("flush_policy", "commit")
      .Num("attempted", static_cast<double>(report.attempted))
      .Num("failed", static_cast<double>(report.failed))
      .Raw("end_to_end", values(kEndToEndMetrics, report.end_to_end));
  if (args.trace) {
    detail.Raw("per_layer", values(kPerLayerMetrics, report.per_layer));
  }
  // Minor faults, involuntary switches and the hypervisor's steal tell a
  // run slowed by page faulting, by CPU contention inside the machine or
  // by other guests on the host apart.
  const MachineCpu cpu_end = ReadMachineCpu();
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  detail.Num("host_steal_frac",
             cpu_end.total > cpu_start.total
                 ? (cpu_end.steal - cpu_start.steal) /
                       (cpu_end.total - cpu_start.total)
                 : 0)
      .Num("minor_faults", static_cast<double>(usage.ru_minflt))
      .Num("involuntary_switches", static_cast<double>(usage.ru_nivcsw))
      .Num("user_s", static_cast<double>(usage.ru_utime.tv_sec) +
                         usage.ru_utime.tv_usec / 1e6)
      .Num("system_s", static_cast<double>(usage.ru_stime.tv_sec) +
                           usage.ru_stime.tv_usec / 1e6);
  detail.Raw("workload_detail", report.detail);
  std::printf("perfbench-detail %s\n", detail.str().c_str());
  if (!report.invalid.empty()) {
    std::fprintf(stderr, "run flagged, not reported: %s\n",
                 report.invalid.c_str());
    return 4;
  }

  Json metrics;
  auto add = [&](const auto& defs, const std::map<std::string, double>& m) {
    for (const MetricDef& def : defs) {
      auto it = m.find(def.name);
      metrics.Raw(def.name,
                  Json()
                      .Num("value", it == m.end() ? 0.0 : it->second)
                      .Str("unit", def.unit)
                      .str());
    }
  };
  if (args.trace) {
    add(kPerLayerMetrics, report.per_layer);
  } else {
    add(kEndToEndMetrics, report.end_to_end);
  }
  Json result;
  result.Raw("correct", report.correct ? "true" : "false")
      .Num("attempted", static_cast<double>(report.attempted))
      .Num("failed", static_cast<double>(report.failed))
      .Raw("metrics", metrics.str());
  std::printf("%s\n", result.str().c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
