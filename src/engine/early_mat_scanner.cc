#include "engine/early_mat_scanner.h"

#include <algorithm>
#include <cstring>

#include "common/macros.h"
#include "obs/span.h"

namespace rodb {

EarlyMatColumnScanner::EarlyMatColumnScanner(const OpenTable* table,
                                             ScanSpec spec, ExecStats* stats,
                                             BlockLayout layout)
    : table_(table), spec_(std::move(spec)), stats_(stats),
      block_(std::move(layout), spec_.block_tuples) {}

Result<OperatorPtr> EarlyMatColumnScanner::Make(const OpenTable* table,
                                                ScanSpec spec,
                                                IoBackend* backend,
                                                ExecStats* stats) {
  RODB_RETURN_IF_ERROR(
      ValidateScanSpec(table, spec, Layout::kColumn, backend, stats));
  if (!spec.range.is_all()) {
    // This scanner exists as a whole-table ablation, not a morsel worker.
    return Status::NotSupported(
        "early-materialized scans read the whole table (no ranges)");
  }
  const Schema& schema = table->schema();
  BlockLayout layout = BlockLayout::FromSchema(schema, spec.projection);
  std::unique_ptr<EarlyMatColumnScanner> scanner(new EarlyMatColumnScanner(
      table, std::move(spec), stats, std::move(layout)));
  const ScanSpec& s = scanner->spec_;
  int max_width = 1;
  for (size_t attr : ScanPipelineAttrs(s)) {
    Cursor cursor(PageSource(table, attr, s, backend, stats));
    cursor.attr = attr;
    const auto it = std::find(s.projection.begin(), s.projection.end(),
                              static_cast<int>(attr));
    cursor.out_col = it == s.projection.end()
                         ? -1
                         : static_cast<int>(it - s.projection.begin());
    for (const Predicate& pred : s.predicates) {
      if (static_cast<size_t>(pred.attr_index()) == attr) {
        cursor.preds.push_back(pred);
      }
    }
    RODB_ASSIGN_OR_RETURN(cursor.codec, table->MakeAttrCodec(attr));
    cursor.kind = cursor.codec->kind();
    cursor.width = schema.attribute(attr).width;
    max_width = std::max(max_width, cursor.width);
    scanner->cursors_.push_back(std::move(cursor));
  }
  scanner->value_scratch_.resize(static_cast<size_t>(max_width));
  return OperatorPtr(std::move(scanner));
}

Status EarlyMatColumnScanner::Open() {
  if (opened_) return Status::OK();
  const PrunePlan plan = BuildPrunePlan(*table_, spec_);
  plan.AddCountersTo(&stats_->counters());
  runs_ = plan.active ? plan.global
                      : std::vector<Run>{Run{0, table_->meta().num_tuples}};
  for (Cursor& cursor : cursors_) {
    // Lockstep iteration only visits the runs' positions, so a pruned
    // cursor streams exactly the pages of its file overlapping them.
    std::vector<Run> retained;
    if (plan.active) {
      retained = PageRunsForPositions(
          runs_, table_->meta().PageValues(cursor.attr));
    }
    RODB_RETURN_IF_ERROR(
        cursor.source.Open(plan.active ? &retained : nullptr));
  }
  opened_ = true;
  return Status::OK();
}

Status EarlyMatColumnScanner::AdvancePage(Cursor& cursor) {
  while (true) {
    RODB_ASSIGN_OR_RETURN(const PageView* page, cursor.source.Next());
    if (page == nullptr) {
      cursor.eof = true;
      return Status::OK();
    }
    RODB_ASSIGN_OR_RETURN(ColumnPageReader reader,
                          ColumnPageReader::Open(*page, cursor.codec.get()));
    // Every column streams fully under early materialization.
    stats_->AddSequentialBytes(table_->meta().page_size);
    cursor.page_start_pos = cursor.source.first_pos();
    cursor.page.emplace(reader);
    cursor.consumed_in_page = 0;
    if (cursor.page->count() > 0) return Status::OK();
    cursor.page.reset();
  }
}

Status EarlyMatColumnScanner::SeekCursor(Cursor& cursor, uint64_t pos) {
  while (!cursor.eof &&
         (!cursor.page.has_value() ||
          pos >= cursor.page_start_pos + cursor.page->count())) {
    RODB_RETURN_IF_ERROR(AdvancePage(cursor));
  }
  if (cursor.eof) {
    return Status::Corruption("column " + std::to_string(cursor.attr) +
                              " ended before position " +
                              std::to_string(pos));
  }
  RODB_CHECK(pos >= cursor.page_start_pos);
  const uint64_t in_page = pos - cursor.page_start_pos;
  RODB_CHECK(in_page >= cursor.consumed_in_page);
  const uint64_t skip = in_page - cursor.consumed_in_page;
  if (skip > 0) {
    cursor.page->SkipValues(skip);
    cursor.consumed_in_page += skip;
    // FOR-delta decodes everything it passes over.
    if (cursor.kind == CompressionKind::kForDelta) {
      CountDecode(&stats_->counters(), cursor.kind, skip);
    }
  }
  return Status::OK();
}

Result<TupleBlock*> EarlyMatColumnScanner::Next() {
  if (!opened_) {
    return Status::InvalidArgument("EarlyMatColumnScanner not opened");
  }
  obs::SpanTimer scan_span(stats_->trace(), obs::TracePhase::kScan);
  ExecCounters& c = stats_->counters();
  const BlockLayout& layout = block_.layout();
  uint8_t* value = value_scratch_.data();
  block_.Clear();
  while (!block_.full()) {
    if (run_idx_ == runs_.size()) {
      // Past the last run the driving column must hold nothing more the
      // scan should have seen: a whole-table scan of a file with values
      // beyond the catalog's num_tuples fails here.
      RODB_RETURN_IF_ERROR(cursors_[0].source.Finish());
      break;
    }
    const Run& run = runs_[run_idx_];
    if (next_position_ < run.begin) next_position_ = run.begin;
    if (next_position_ >= run.end) {
      ++run_idx_;
      continue;
    }
    const uint64_t position = next_position_++;
    c.tuples_examined += 1;
    bool pass = true;
    // Values are written directly into the next (not yet appended) slot;
    // the slot only becomes part of the block if the row qualifies.
    uint8_t* slot = block_.tuple(block_.size());
    for (Cursor& cursor : cursors_) {
      RODB_RETURN_IF_ERROR(SeekCursor(cursor, position));
      // Every selected column is decoded for every row -- the defining
      // behaviour of the single-iterator organization ("iterating over
      // entire rows, similarly to a row store").
      cursor.page->DecodeNext(value);
      cursor.consumed_in_page += 1;
      CountDecode(&c, cursor.kind, 1);
      if (pass) {
        for (const Predicate& pred : cursor.preds) {
          c.predicate_evals += 1;
          if (!pred.Eval(value)) {
            pass = false;
            break;
          }
        }
      }
      if (pass && cursor.out_col >= 0) {
        std::memcpy(
            slot + layout.offsets[static_cast<size_t>(cursor.out_col)],
            value, static_cast<size_t>(cursor.width));
        c.values_copied += 1;
        c.bytes_copied += static_cast<uint64_t>(cursor.width);
      }
    }
    if (pass) {
      block_.AppendSlot();  // slot was filled in place
      block_.set_position(block_.size() - 1, position);
    }
  }
  if (block_.empty()) {
    stats_->FoldIo();
    return static_cast<TupleBlock*>(nullptr);
  }
  c.blocks_emitted += 1;
  return &block_;
}

void EarlyMatColumnScanner::Close() {
  stats_->FoldIo();
  for (Cursor& cursor : cursors_) {
    cursor.source.Close();
    cursor.page.reset();
  }
}

}  // namespace rodb
