#include "wos/segment_source.h"

#include <cstring>
#include <utility>

#include "common/macros.h"
#include "engine/page_source.h"

namespace rodb {

Result<OperatorPtr> ActiveScanOperator::Make(const Schema& schema,
                                             ActiveView view,
                                             const ScanSpec& spec,
                                             ExecStats* stats) {
  RODB_RETURN_IF_ERROR(ValidateScanAttrs(schema, spec));
  for (const Predicate& pred : spec.predicates) {
    const bool text =
        schema.attribute(static_cast<size_t>(pred.attr_index())).type ==
        AttrType::kFixedText;
    if (text != pred.is_text()) {
      return Status::InvalidArgument("predicate type does not match attribute");
    }
  }
  BlockLayout layout = BlockLayout::FromSchema(schema, spec.projection);
  return OperatorPtr(new ActiveScanOperator(schema, std::move(view), spec,
                                            std::move(layout), stats));
}

ActiveScanOperator::ActiveScanOperator(const Schema& schema, ActiveView view,
                                       ScanSpec spec, BlockLayout layout,
                                       ExecStats* stats)
    : schema_(schema),
      view_(std::move(view)),
      spec_(std::move(spec)),
      layout_(std::move(layout)),
      stats_(stats) {}

Status ActiveScanOperator::Open() {
  block_ = std::make_unique<TupleBlock>(layout_, spec_.block_tuples);
  next_row_ = 0;
  return Status::OK();
}

Result<TupleBlock*> ActiveScanOperator::Next() {
  if (block_ == nullptr) return Status::Internal("active scan not opened");
  block_->Clear();
  while (next_row_ < view_.count() && !block_->full()) {
    if ((next_row_ & 0x3FF) == 0 && stats_ != nullptr) {
      RODB_RETURN_IF_ERROR(stats_->CheckAlive());
    }
    const uint64_t row = next_row_++;
    const uint8_t* tuple = view_.tuple(row);
    if (stats_ != nullptr) {
      stats_->counters().tuples_examined += 1;
      stats_->AddSequentialBytes(view_.tuple_width());
    }
    bool pass = true;
    for (const Predicate& pred : spec_.predicates) {
      if (stats_ != nullptr) stats_->counters().predicate_evals += 1;
      if (!pred.Eval(tuple + schema_.attr_offset(
                                 static_cast<size_t>(pred.attr_index())))) {
        pass = false;
        break;
      }
    }
    if (!pass) continue;
    const uint32_t slot_index = block_->size();
    uint8_t* slot = block_->AppendSlot();
    for (size_t a = 0; a < spec_.projection.size(); ++a) {
      const size_t attr = static_cast<size_t>(spec_.projection[a]);
      std::memcpy(slot + layout_.offsets[a], tuple + schema_.attr_offset(attr),
                  static_cast<size_t>(layout_.widths[a]));
    }
    block_->set_position(slot_index, row);
    if (stats_ != nullptr) {
      stats_->counters().values_copied += spec_.projection.size();
      stats_->counters().bytes_copied +=
          static_cast<uint64_t>(layout_.tuple_width);
    }
  }
  if (block_->empty() && next_row_ >= view_.count()) return nullptr;
  if (stats_ != nullptr) stats_->counters().blocks_emitted += 1;
  return block_.get();
}

}  // namespace rodb
