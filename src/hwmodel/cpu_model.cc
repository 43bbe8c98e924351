#include "hwmodel/cpu_model.h"

#include <algorithm>

namespace rodb {

ExecCounters& ExecCounters::operator+=(const ExecCounters& o) {
#define RODB_EXEC_COUNTER(field, phase, span, metric, scaling) \
  field += o.field;
#include "hwmodel/exec_counters.def"
  return *this;
}

double CpuModel::UserUops(const ExecCounters& c) const {
  const CostModel& m = costs_;
  double uops = 0.0;
  uops += static_cast<double>(c.tuples_examined) * m.uops_tuple_examined;
  uops += static_cast<double>(c.predicate_evals) * m.uops_predicate;
  uops += static_cast<double>(c.values_copied) * m.uops_value_copy;
  uops += static_cast<double>(c.bytes_copied) * m.uops_byte_copied;
  uops += static_cast<double>(c.positions_processed) * m.uops_position;
  uops += static_cast<double>(c.values_decoded_bitpack) * m.uops_decode_bitpack;
  uops += static_cast<double>(c.values_decoded_dict) * m.uops_decode_dict;
  uops += static_cast<double>(c.values_code_reads) * m.uops_code_read;
  uops += static_cast<double>(c.values_decoded_for) * m.uops_decode_for;
  uops +=
      static_cast<double>(c.values_decoded_fordelta) * m.uops_decode_fordelta;
  uops += static_cast<double>(c.pages_parsed) * m.uops_page;
  uops += static_cast<double>(c.blocks_emitted) * m.uops_block;
  uops += static_cast<double>(c.operator_tuples) * m.uops_operator_tuple;
  uops += static_cast<double>(c.hash_ops) * m.uops_hash_op;
  uops += static_cast<double>(c.sort_comparisons) * m.uops_sort_comparison;
  uops += static_cast<double>(c.join_comparisons) * m.uops_join_comparison;
  uops += static_cast<double>(c.kernel_batches) * m.uops_kernel_batch;
  uops += static_cast<double>(c.values_scanned_vectorized) *
          m.uops_scan_vectorized;
  return uops;
}

TimeBreakdown CpuModel::Breakdown(const ExecCounters& c) const {
  TimeBreakdown t;
  const double hz = hw_.TotalCpuHz();

  // System mode: the kernel-side I/O path (request submission, completion
  // handling, page management). The paper does not break this down further.
  double sys_cycles =
      static_cast<double>(c.io_bytes_read) * costs_.sys_cycles_per_io_byte +
      static_cast<double>(c.io_requests) * costs_.sys_cycles_per_io_request +
      static_cast<double>(c.files_read) * costs_.sys_cycles_per_file;
  t.sys = sys_cycles / hz;

  // usr-uop: uops at the peak issue rate -- "the minimum time the CPU could
  // have possibly spent executing our code".
  const double uops = UserUops(c);
  t.usr_uop = hw_.UopSeconds(uops);

  // usr-L2: sequential transfers are pipelined by the hardware prefetcher
  // and overlap with computation; only the non-overlapped part stalls.
  // Random accesses pay the full measured miss latency.
  const double seq_cycles = static_cast<double>(c.seq_bytes_touched) /
                            hw_.MemBytesPerCycle();
  const double uop_cycles = uops / hw_.uops_per_cycle;
  const double exposed_seq = std::max(0.0, seq_cycles - uop_cycles);
  const double random_cycles =
      static_cast<double>(c.random_line_accesses) * hw_.random_miss_cycles;
  t.usr_l2 = (exposed_seq + random_cycles) / hz;

  // usr-L1: upper bound on L2->L1 transfer stalls.
  t.usr_l1 = static_cast<double>(c.l1_lines_touched) * hw_.l1_miss_cycles / hz;

  // usr-rest: stalls proportional to issued work.
  t.usr_rest = t.usr_uop * costs_.rest_fraction;
  return t;
}

}  // namespace rodb
