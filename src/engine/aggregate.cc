#include "engine/aggregate.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <unordered_map>

#include "common/bytes.h"
#include "common/macros.h"
#include "obs/span.h"

namespace rodb {

std::string_view AggFuncName(AggFunc func) {
  switch (func) {
    case AggFunc::kCount:
      return "count";
    case AggFunc::kSum:
      return "sum";
    case AggFunc::kMin:
      return "min";
    case AggFunc::kMax:
      return "max";
    case AggFunc::kAvg:
      return "avg";
  }
  return "?";
}

BlockLayout AggOutputLayout(const AggPlan& plan) {
  std::vector<int> widths;
  if (plan.group_column >= 0) widths.push_back(4);
  for (size_t i = 0; i < plan.aggs.size(); ++i) widths.push_back(8);
  return BlockLayout::FromWidths(widths);
}

AggAccumulator::AggAccumulator(const std::vector<AggSpec>* aggs)
    : aggs_(aggs), acc_(aggs->size()) {
  Reset();
}

void AggAccumulator::Reset() {
  count_ = 0;
  for (size_t i = 0; i < aggs_->size(); ++i) {
    switch ((*aggs_)[i].func) {
      case AggFunc::kMin:
        acc_[i] = std::numeric_limits<int64_t>::max();
        break;
      case AggFunc::kMax:
        acc_[i] = std::numeric_limits<int64_t>::min();
        break;
      default:
        acc_[i] = 0;
        break;
    }
  }
}

void AggAccumulator::Fold(size_t i, int64_t v) {
  switch ((*aggs_)[i].func) {
    case AggFunc::kSum:
    case AggFunc::kAvg:
      acc_[i] += v;
      break;
    case AggFunc::kMin:
      acc_[i] = std::min(acc_[i], v);
      break;
    case AggFunc::kMax:
      acc_[i] = std::max(acc_[i], v);
      break;
    case AggFunc::kCount:
      break;
  }
}

void AggAccumulator::Update(const TupleBlock& block, uint32_t row) {
  ++count_;
  for (size_t i = 0; i < aggs_->size(); ++i) {
    const AggSpec& spec = (*aggs_)[i];
    if (spec.func == AggFunc::kCount) continue;
    Fold(i, LoadLE32s(block.attr(row, static_cast<size_t>(spec.column))));
  }
}

void AggAccumulator::Update(const int32_t* inputs) {
  ++count_;
  for (size_t i = 0; i < aggs_->size(); ++i) Fold(i, inputs[i]);
}

void AggAccumulator::Emit(uint8_t* out) const {
  for (size_t i = 0; i < aggs_->size(); ++i) {
    int64_t v = 0;
    switch ((*aggs_)[i].func) {
      case AggFunc::kCount:
        v = count_;
        break;
      case AggFunc::kAvg:
        v = count_ == 0 ? 0 : acc_[i] / count_;
        break;
      default:
        v = acc_[i];
        break;
    }
    StoreLE64(out + 8 * i, static_cast<uint64_t>(v));
  }
}

namespace {

Status ValidateAggPlan(const AggPlan& plan, const BlockLayout& in) {
  if (plan.aggs.empty()) {
    return Status::InvalidArgument("aggregation needs at least one aggregate");
  }
  if (plan.group_column >= 0) {
    if (static_cast<size_t>(plan.group_column) >= in.num_attrs()) {
      return Status::OutOfRange("group column out of range");
    }
    if (in.widths[static_cast<size_t>(plan.group_column)] != 4) {
      return Status::InvalidArgument("group column must be int32");
    }
  }
  for (const AggSpec& spec : plan.aggs) {
    if (spec.func == AggFunc::kCount) continue;
    if (spec.column < 0 || static_cast<size_t>(spec.column) >= in.num_attrs()) {
      return Status::OutOfRange("aggregate column out of range");
    }
    if (in.widths[static_cast<size_t>(spec.column)] != 4) {
      return Status::InvalidArgument("aggregate input must be int32");
    }
  }
  return Status::OK();
}

}  // namespace

// --- HashAggOperator ---

HashAggOperator::HashAggOperator(OperatorPtr child, AggPlan plan,
                                 ExecStats* stats)
    : child_(std::move(child)), plan_(std::move(plan)), stats_(stats),
      block_(AggOutputLayout(plan_)) {}

Result<OperatorPtr> HashAggOperator::Make(OperatorPtr child, AggPlan plan,
                                          ExecStats* stats) {
  if (child == nullptr || stats == nullptr) {
    return Status::InvalidArgument("HashAggOperator: null dependency");
  }
  RODB_RETURN_IF_ERROR(ValidateAggPlan(plan, child->output_layout()));
  return OperatorPtr(
      new HashAggOperator(std::move(child), std::move(plan), stats));
}

Status HashAggOperator::Open() { return child_->Open(); }

Status HashAggOperator::Consume() {
  ExecCounters& c = stats_->counters();
  std::unordered_map<int32_t, size_t> index;
  while (true) {
    RODB_ASSIGN_OR_RETURN(TupleBlock * in, child_->Next());
    if (in == nullptr) break;
    for (uint32_t i = 0; i < in->size(); ++i) {
      c.operator_tuples += 1;
      int32_t key = 0;
      if (plan_.group_column >= 0) {
        key = LoadLE32s(in->attr(i, static_cast<size_t>(plan_.group_column)));
      }
      c.hash_ops += 1;
      auto [it, inserted] = index.emplace(key, groups_.size());
      if (inserted) {
        groups_.emplace_back(key, AggAccumulator(&plan_.aggs));
      }
      groups_[it->second].second.Update(*in, i);
    }
  }
  consumed_ = true;
  return Status::OK();
}

Result<TupleBlock*> HashAggOperator::Next() {
  obs::SpanTimer span(stats_->trace(), obs::TracePhase::kAggregate);
  if (!consumed_) RODB_RETURN_IF_ERROR(Consume());
  if (emit_index_ >= groups_.size()) return static_cast<TupleBlock*>(nullptr);
  block_.Clear();
  const BlockLayout& layout = block_.layout();
  while (!block_.full() && emit_index_ < groups_.size()) {
    uint8_t* slot = block_.AppendSlot();
    const auto& [key, acc] = groups_[emit_index_++];
    size_t offset = 0;
    if (plan_.group_column >= 0) {
      StoreLE32s(slot, key);
      offset = 1;
    }
    acc.Emit(slot + layout.offsets[offset]);
  }
  stats_->counters().blocks_emitted += 1;
  return &block_;
}

void HashAggOperator::Close() { child_->Close(); }

// --- SortAggOperator ---

SortAggOperator::SortAggOperator(OperatorPtr child, AggPlan plan,
                                 ExecStats* stats)
    : child_(std::move(child)), plan_(std::move(plan)), stats_(stats),
      block_(AggOutputLayout(plan_)) {}

Result<OperatorPtr> SortAggOperator::Make(OperatorPtr child, AggPlan plan,
                                          ExecStats* stats) {
  if (child == nullptr || stats == nullptr) {
    return Status::InvalidArgument("SortAggOperator: null dependency");
  }
  RODB_RETURN_IF_ERROR(ValidateAggPlan(plan, child->output_layout()));
  return OperatorPtr(
      new SortAggOperator(std::move(child), std::move(plan), stats));
}

Status SortAggOperator::Open() { return child_->Open(); }

Status SortAggOperator::Consume() {
  ExecCounters& c = stats_->counters();
  // Buffer (key, agg inputs) rows.
  while (true) {
    RODB_ASSIGN_OR_RETURN(TupleBlock * in, child_->Next());
    if (in == nullptr) break;
    for (uint32_t i = 0; i < in->size(); ++i) {
      c.operator_tuples += 1;
      std::vector<int32_t> row;
      row.reserve(1 + plan_.aggs.size());
      row.push_back(
          plan_.group_column >= 0
              ? LoadLE32s(in->attr(i, static_cast<size_t>(plan_.group_column)))
              : 0);
      for (const AggSpec& spec : plan_.aggs) {
        row.push_back(spec.func == AggFunc::kCount
                          ? 0
                          : LoadLE32s(in->attr(
                                i, static_cast<size_t>(spec.column))));
      }
      rows_.push_back(std::move(row));
    }
  }
  uint64_t comparisons = 0;
  std::sort(rows_.begin(), rows_.end(),
            [&comparisons](const std::vector<int32_t>& a,
                           const std::vector<int32_t>& b) {
              ++comparisons;
              return a[0] < b[0];
            });
  c.sort_comparisons += comparisons;
  consumed_ = true;
  return Status::OK();
}

Result<TupleBlock*> SortAggOperator::Next() {
  obs::SpanTimer span(stats_->trace(), obs::TracePhase::kAggregate);
  if (!consumed_) RODB_RETURN_IF_ERROR(Consume());
  if (emit_index_ >= rows_.size()) return static_cast<TupleBlock*>(nullptr);
  block_.Clear();
  const BlockLayout& layout = block_.layout();
  AggAccumulator acc(&plan_.aggs);
  while (!block_.full() && emit_index_ < rows_.size()) {
    // Fold the run of equal keys starting at emit_index_.
    const int32_t key = rows_[emit_index_][0];
    acc.Reset();
    for (; emit_index_ < rows_.size() && rows_[emit_index_][0] == key;
         ++emit_index_) {
      acc.Update(rows_[emit_index_].data() + 1);
    }
    uint8_t* slot = block_.AppendSlot();
    size_t offset = 0;
    if (plan_.group_column >= 0) {
      StoreLE32s(slot, key);
      offset = 1;
    }
    acc.Emit(slot + layout.offsets[offset]);
  }
  stats_->counters().blocks_emitted += 1;
  return &block_;
}

void SortAggOperator::Close() { child_->Close(); }

}  // namespace rodb
