#ifndef RODB_HWMODEL_CPU_MODEL_H_
#define RODB_HWMODEL_CPU_MODEL_H_

#include <cstdint>

#include "hwmodel/hardware_config.h"
#include "hwmodel/time_breakdown.h"

namespace rodb {

/// Whether a counter grows with table size (the `scaling` column of
/// hwmodel/exec_counters.def).
enum class CounterScaling { kPerTuple, kPerScan };

/// Semantic event counters produced by the engine while executing a query.
///
/// This is rodb's software substitute for the paper's PAPI hardware
/// counters (Section 3.2): instead of reading uop/L2-miss counters off the
/// chip, scanners and operators count the semantic events they perform and
/// CpuModel converts those counts into the paper's time breakdown using
/// the same per-event cost arithmetic the paper applies to its raw
/// counters. The fields, and how each one is traced, mirrored, scaled
/// and shipped, are listed once in hwmodel/exec_counters.def.
struct ExecCounters {
#define RODB_EXEC_COUNTER(field, phase, span, metric, scaling) \
  uint64_t field = 0;
#include "hwmodel/exec_counters.def"

  ExecCounters& operator+=(const ExecCounters& o);
};

/// Per-event micro-op and system-cycle costs. One calibration point, kept
/// in a single struct so tuning against the paper's measured breakdowns
/// (Figures 6-9) happens in one place.
struct CostModel {
  // User-mode uops per semantic event. Calibrated against the measured
  // breakdowns of Figures 6-8: a row scanner burns ~250-400 uops per
  // LINEITEM tuple (usr-uop bars of 2-3s over 60M tuples at 3 uops/cycle
  // on 3.2GHz), an inner column scan node ~180 uops per driven position,
  // and FOR-delta decode is markedly pricier than FOR (Figure 9's jump).
  double uops_tuple_examined = 200;
  double uops_predicate = 40;
  double uops_value_copy = 30;
  double uops_byte_copied = 1.0;
  double uops_position = 150;
  double uops_decode_bitpack = 30;
  double uops_decode_dict = 45;
  /// Reading a code without the array lookup / value copy.
  double uops_code_read = 12;
  double uops_decode_for = 35;
  double uops_decode_fordelta = 100;
  double uops_page = 400;
  double uops_block = 300;
  double uops_operator_tuple = 100;
  double uops_hash_op = 150;
  double uops_sort_comparison = 80;
  double uops_join_comparison = 50;
  /// Vectorized kernel work: fixed batch setup cost plus a small per-value
  /// cost -- roughly one load+shift+compare per value in the scalar word
  /// kernel, amortized to a fraction of that under AVX2. Compare with
  /// uops_predicate + uops_decode_* to see the modeled speedup.
  double uops_kernel_batch = 40;
  double uops_scan_vectorized = 5;
  // kernel-mode cycles for the I/O path (per byte moved and per request).
  // Calibrated so a full LINEITEM scan (9.5GB, 3 disks) spends ~3.3s in
  // system mode, matching the tall dark bars of Figure 6.
  double sys_cycles_per_io_byte = 1.0;
  double sys_cycles_per_io_request = 35000;
  double sys_cycles_per_file = 2.5e5;
  /// usr-rest as a fraction of usr-uop (branch misses, functional-unit
  /// stalls scale with executed work).
  double rest_fraction = 0.55;

  static CostModel Default() { return CostModel{}; }
};

/// Converts engine event counts into the paper's CPU time breakdown on a
/// given hardware configuration (Section 4.1 methodology):
///
///  - usr_uop = total_uops / uops_per_cycle
///  - sequential L2 transfer time overlaps with computation; the exposed
///    usr_l2 is max(0, seq_transfer - usr_uop) plus 380-cycle random misses
///  - usr_l1 = l1 lines touched x L1-miss latency (upper bound)
///  - sys    = kernel I/O path cycles
class CpuModel {
 public:
  explicit CpuModel(const HardwareConfig& hw,
                    const CostModel& costs = CostModel::Default())
      : hw_(hw), costs_(costs) {}

  /// Total user-mode micro-ops implied by the counters.
  double UserUops(const ExecCounters& c) const;

  /// Full five-component breakdown.
  TimeBreakdown Breakdown(const ExecCounters& c) const;

  /// Convenience: total CPU seconds (sys + user including stalls).
  double CpuSeconds(const ExecCounters& c) const {
    return Breakdown(c).Total();
  }

  const HardwareConfig& hardware() const { return hw_; }
  const CostModel& costs() const { return costs_; }

 private:
  HardwareConfig hw_;
  CostModel costs_;
};

}  // namespace rodb

#endif  // RODB_HWMODEL_CPU_MODEL_H_
