#include "engine/row_scanner.h"

#include "common/macros.h"
#include "obs/span.h"

namespace rodb {

RowScanner::RowScanner(const OpenTable* table, ScanSpec spec,
                       IoBackend* backend, ExecStats* stats,
                       BlockLayout layout)
    : table_(table), spec_(std::move(spec)), stats_(stats),
      block_(std::move(layout), spec_.block_tuples),
      source_(table, 0, spec_, backend, stats) {}

Result<OperatorPtr> RowScanner::Make(const OpenTable* table, ScanSpec spec,
                                     IoBackend* backend, ExecStats* stats) {
  RODB_RETURN_IF_ERROR(
      ValidateScanSpec(table, spec, Layout::kRow, backend, stats));
  const Schema& schema = table->schema();
  BlockLayout layout = BlockLayout::FromSchema(schema, spec.projection);
  std::unique_ptr<RowScanner> scanner(new RowScanner(
      table, std::move(spec), backend, stats, std::move(layout)));
  RODB_ASSIGN_OR_RETURN(scanner->codec_bundle_, table->MakeRowCodec());
  scanner->scratch_.resize(
      static_cast<size_t>(schema.raw_tuple_width()));
  // Pre-compute the per-tuple decode event profile for the counters.
  for (size_t i = 0; i < schema.num_attributes(); ++i) {
    CountDecode(&scanner->per_tuple_decode_, schema.attribute(i).codec.kind,
                1);
  }
  for (int attr : scanner->spec_.projection) {
    scanner->projected_bytes_ +=
        schema.attribute(static_cast<size_t>(attr)).width;
  }
  return OperatorPtr(std::move(scanner));
}

Status RowScanner::Open() {
  if (opened_) return Status::OK();
  const PrunePlan plan = BuildPrunePlan(*table_, spec_);
  plan.AddCountersTo(&stats_->counters());
  RODB_RETURN_IF_ERROR(source_.Open(plan.retained(0)));
  opened_ = true;
  return Status::OK();
}

Status RowScanner::AdvancePage() {
  while (true) {
    RODB_ASSIGN_OR_RETURN(const PageView* page, source_.Next());
    if (page == nullptr) {
      eof_ = true;
      return Status::OK();
    }
    RODB_ASSIGN_OR_RETURN(
        RowPageReader reader,
        RowPageReader::Open(*page, &table_->schema(),
                            codec_bundle_.row_codec.get()));
    next_position_ = source_.first_pos();
    // A row scan streams the full page through the cache hierarchy.
    stats_->AddSequentialBytes(table_->meta().page_size);
    page_.emplace(reader);
    tuple_in_page_ = 0;
    if (page_->count() > 0) return Status::OK();
    // Empty page: keep advancing.
  }
}

void RowScanner::ProcessCurrentPage() {
  const Schema& schema = table_->schema();
  ExecCounters& c = stats_->counters();
  const bool compressed = schema.is_compressed();
  while (!block_.full() && tuple_in_page_ < page_->count()) {
    const uint8_t* raw;
    if (compressed) {
      page_->DecodeNext(scratch_.data());
      raw = scratch_.data();
      c += per_tuple_decode_;
    } else {
      raw = page_->TupleAt(tuple_in_page_);
    }
    const uint64_t position = next_position_++;
    ++tuple_in_page_;
    c.tuples_examined += 1;
    bool pass = true;
    for (const Predicate& pred : spec_.predicates) {
      c.predicate_evals += 1;
      const uint8_t* value =
          raw + schema.attr_offset(static_cast<size_t>(pred.attr_index()));
      if (!pred.Eval(value)) {
        pass = false;
        break;
      }
    }
    if (!pass) continue;
    uint8_t* slot = block_.AppendSlot();
    const BlockLayout& layout = block_.layout();
    for (size_t i = 0; i < spec_.projection.size(); ++i) {
      const size_t attr = static_cast<size_t>(spec_.projection[i]);
      std::memcpy(slot + layout.offsets[i],
                  raw + schema.attr_offset(attr),
                  static_cast<size_t>(layout.widths[i]));
    }
    block_.set_position(block_.size() - 1, position);
    c.values_copied += spec_.projection.size();
    c.bytes_copied += static_cast<uint64_t>(projected_bytes_);
  }
}

Result<TupleBlock*> RowScanner::Next() {
  if (!opened_) return Status::InvalidArgument("RowScanner not opened");
  obs::SpanTimer scan_span(stats_->trace(), obs::TracePhase::kScan);
  block_.Clear();
  while (!block_.full() && !eof_) {
    if (!page_.has_value() || tuple_in_page_ >= page_->count()) {
      RODB_RETURN_IF_ERROR(AdvancePage());
      if (eof_) break;
    }
    ProcessCurrentPage();
  }
  if (block_.empty()) {
    stats_->FoldIo();
    return static_cast<TupleBlock*>(nullptr);
  }
  stats_->counters().blocks_emitted += 1;
  return &block_;
}

void RowScanner::Close() {
  stats_->FoldIo();
  source_.Close();
  page_.reset();
}

}  // namespace rodb
