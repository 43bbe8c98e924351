#ifndef RODB_WOS_SEGMENT_SOURCE_H_
#define RODB_WOS_SEGMENT_SOURCE_H_

#include <memory>

#include "engine/exec_stats.h"
#include "engine/operator.h"
#include "engine/scan_spec.h"
#include "wos/segment.h"

namespace rodb {

/// Scan operator over an ActiveView -- the in-memory leg of a snapshot
/// read. Applies the spec's predicate conjunction against raw tuple
/// bytes and emits the projected attributes, block by block, exactly
/// like the on-disk scanners so UnionAllOperator can splice it after
/// ROS and frozen-segment scans (the layouts match by construction).
///
/// The view is captured by value: the operator stays valid even after
/// the segment it came from is frozen and reset.
class ActiveScanOperator final : public Operator {
 public:
  /// Validates the spec against the schema (ValidateScanAttrs, plus
  /// predicate types) like OpenScanner does for tables.
  static Result<OperatorPtr> Make(const Schema& schema, ActiveView view,
                                  const ScanSpec& spec, ExecStats* stats);

  Status Open() override;
  Result<TupleBlock*> Next() override;
  const BlockLayout& output_layout() const override { return layout_; }

 private:
  ActiveScanOperator(const Schema& schema, ActiveView view, ScanSpec spec,
                     BlockLayout layout, ExecStats* stats);

  const Schema schema_;
  const ActiveView view_;
  const ScanSpec spec_;
  const BlockLayout layout_;
  ExecStats* stats_;
  std::unique_ptr<TupleBlock> block_;
  uint64_t next_row_ = 0;
};

}  // namespace rodb

#endif  // RODB_WOS_SEGMENT_SOURCE_H_
