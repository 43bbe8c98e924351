#ifndef RODB_ENGINE_AGGREGATE_H_
#define RODB_ENGINE_AGGREGATE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "engine/exec_stats.h"
#include "engine/operator.h"

namespace rodb {

/// Aggregate functions over int32 block columns. Results are int64 to
/// avoid overflow on SUM of large relations.
enum class AggFunc : uint8_t { kCount, kSum, kMin, kMax, kAvg };

std::string_view AggFuncName(AggFunc func);

/// One aggregate: `func(column)`. For kCount the column is ignored.
struct AggSpec {
  AggFunc func = AggFunc::kCount;
  int column = 0;  ///< child block column index
};

/// Shared configuration for both aggregation flavours.
struct AggPlan {
  /// Child block column holding the int32 group key, or -1 for a single
  /// group over the whole input.
  int group_column = -1;
  std::vector<AggSpec> aggs;
};

/// Output layout: [int32 group key (if grouped)] [int64 per aggregate].
BlockLayout AggOutputLayout(const AggPlan& plan);

/// Running accumulator for one group. Shared by the hash- and sort-based
/// implementations.
class AggAccumulator {
 public:
  explicit AggAccumulator(const std::vector<AggSpec>* aggs);
  void Reset();
  /// Folds row `row` of `block`; each aggregate reads its spec's column.
  void Update(const TupleBlock& block, uint32_t row);
  /// Folds one buffered row: `inputs[i]` is aggregate i's int32 input
  /// (ignored for COUNT).
  void Update(const int32_t* inputs);
  /// Writes the finished values into `out` (8 bytes per aggregate).
  void Emit(uint8_t* out) const;

 private:
  /// Folds `v` into aggregate i (COUNT counts rows, not values).
  void Fold(size_t i, int64_t v);

  const std::vector<AggSpec>* aggs_;
  std::vector<int64_t> acc_;
  int64_t count_ = 0;
};

/// Hash-based aggregation (Section 2.2.3). Consumes the whole input on
/// the first Next(), then streams result blocks (group order unspecified).
class HashAggOperator final : public Operator {
 public:
  static Result<OperatorPtr> Make(OperatorPtr child, AggPlan plan,
                                  ExecStats* stats);

  Status Open() override;
  Result<TupleBlock*> Next() override;
  void Close() override;
  const BlockLayout& output_layout() const override {
    return block_.layout();
  }

 private:
  HashAggOperator(OperatorPtr child, AggPlan plan, ExecStats* stats);
  Status Consume();

  OperatorPtr child_;
  AggPlan plan_;
  ExecStats* stats_;
  TupleBlock block_;
  bool consumed_ = false;
  std::vector<std::pair<int32_t, AggAccumulator>> groups_;  ///< emit order
  size_t emit_index_ = 0;
};

/// Sort-based aggregation: buffers (key, inputs) rows, sorts by key, folds
/// adjacent equal keys. Emits groups in ascending key order.
class SortAggOperator final : public Operator {
 public:
  static Result<OperatorPtr> Make(OperatorPtr child, AggPlan plan,
                                  ExecStats* stats);

  Status Open() override;
  Result<TupleBlock*> Next() override;
  void Close() override;
  const BlockLayout& output_layout() const override {
    return block_.layout();
  }

 private:
  SortAggOperator(OperatorPtr child, AggPlan plan, ExecStats* stats);
  Status Consume();

  OperatorPtr child_;
  AggPlan plan_;
  ExecStats* stats_;
  TupleBlock block_;
  bool consumed_ = false;
  /// One buffered row: group key + the raw int32 inputs per aggregate.
  std::vector<std::vector<int32_t>> rows_;
  size_t emit_index_ = 0;
};

}  // namespace rodb

#endif  // RODB_ENGINE_AGGREGATE_H_
