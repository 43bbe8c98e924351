#include "engine/pax_scanner.h"

#include <algorithm>
#include <cstring>

#include "common/bytes.h"
#include "common/macros.h"
#include "obs/span.h"

namespace rodb {

PaxScanner::PaxScanner(const OpenTable* table, ScanSpec spec,
                       IoBackend* backend, ExecStats* stats,
                       BlockLayout layout)
    : table_(table), spec_(std::move(spec)), stats_(stats),
      block_(std::move(layout), spec_.block_tuples),
      source_(table, 0, spec_, backend, stats) {}

Result<OperatorPtr> PaxScanner::Make(const OpenTable* table, ScanSpec spec,
                                     IoBackend* backend, ExecStats* stats) {
  RODB_RETURN_IF_ERROR(
      ValidateScanSpec(table, spec, Layout::kPax, backend, stats));
  const Schema& schema = table->schema();
  BlockLayout layout = BlockLayout::FromSchema(schema, spec.projection);
  std::unique_ptr<PaxScanner> scanner(new PaxScanner(
      table, std::move(spec), backend, stats, std::move(layout)));
  const ScanSpec& s = scanner->spec_;
  int max_width = 1;
  for (size_t a = 0; a < schema.num_attributes(); ++a) {
    RODB_ASSIGN_OR_RETURN(auto eval_codec, table->MakeAttrCodec(a));
    RODB_ASSIGN_OR_RETURN(auto emit_codec, table->MakeAttrCodec(a));
    scanner->eval_raw_.push_back(eval_codec.get());
    scanner->emit_raw_.push_back(emit_codec.get());
    scanner->eval_codecs_.push_back(std::move(eval_codec));
    scanner->emit_codecs_.push_back(std::move(emit_codec));
    max_width = std::max(max_width, schema.attribute(a).width);
  }
  // Group predicates per attribute in first-appearance order.
  for (const Predicate& pred : s.predicates) {
    const size_t attr = static_cast<size_t>(pred.attr_index());
    auto it = std::find_if(scanner->pred_nodes_.begin(),
                           scanner->pred_nodes_.end(),
                           [attr](const auto& node) {
                             return node.first == attr;
                           });
    if (it == scanner->pred_nodes_.end()) {
      scanner->pred_nodes_.push_back({attr, {pred}});
    } else {
      it->second.push_back(pred);
    }
  }
  // Vectorized kernel eval (ScanSpec::vectorized). Dictionary predicates
  // run in the code domain, which is compressed evaluation, so a dict
  // predicate attribute keeps the compressed_eval gate.
  scanner->try_kernel_ = s.vectorized && !scanner->pred_nodes_.empty();
  for (const auto& [attr, preds] : scanner->pred_nodes_) {
    (void)preds;
    if (scanner->eval_raw_[attr]->kind() == CompressionKind::kDict &&
        !s.compressed_eval) {
      scanner->try_kernel_ = false;
    }
  }
  RODB_ASSIGN_OR_RETURN(
      scanner->geometry_,
      PaxGeometry::Make(scanner->eval_raw_, table->meta().page_size));
  scanner->positions_.reserve(scanner->geometry_.capacity);
  scanner->emit_cursor_.assign(schema.num_attributes(), 0);
  scanner->touched_.assign(schema.num_attributes(), 0);
  scanner->value_scratch_.resize(static_cast<size_t>(max_width));
  return OperatorPtr(std::move(scanner));
}

Status PaxScanner::Open() {
  if (opened_) return Status::OK();
  const PrunePlan plan = BuildPrunePlan(*table_, spec_);
  plan.AddCountersTo(&stats_->counters());
  RODB_RETURN_IF_ERROR(source_.Open(plan.retained(0)));
  opened_ = true;
  return Status::OK();
}

void PaxScanner::AccountPage() {
  if (!eval_reader_.has_value() || page_count_ == 0) return;
  // Per-minipage, line-granular accounting (same rule as the column
  // scanner): dense minipages stream, sparse ones pay per-line misses.
  for (size_t a = 0; a < touched_.size(); ++a) {
    if (touched_[a] == 0) continue;
    AccountTouchedLines(stats_, geometry_.minipage_bytes[a], touched_[a],
                        page_count_);
    touched_[a] = 0;
  }
}

bool PaxScanner::BindEvalPreds() {
  if (bound_preds_.empty()) bound_preds_.resize(pred_nodes_.size());
  for (size_t n = 0; n < pred_nodes_.size(); ++n) {
    if (!BindPackedPredicates(*eval_raw_[pred_nodes_[n].first],
                              pred_nodes_[n].second, &bound_preds_[n])) {
      kernel_bind_failed_ = true;
      bound_preds_.clear();
      return false;
    }
  }
  return true;
}

bool PaxScanner::TryKernelEval() {
  if (!try_kernel_ || kernel_bind_failed_ || !BindEvalPreds()) return false;
  ExecCounters& c = stats_->counters();
  c.tuples_examined += page_count_;
  uint32_t keys[256];
  for (size_t n = 0; n < pred_nodes_.size(); ++n) {
    const size_t attr = pred_nodes_[n].first;
    const CompressionKind kind = eval_raw_[attr]->kind();
    const bool delta = kind == CompressionKind::kForDelta;
    if (delta) {
      // Delta minipages are sequentially dependent: decode once, compare
      // the materialized keys (word skipping cannot save the decode).
      const size_t width =
          static_cast<size_t>(table_->schema().attribute(attr).width);
      batch_scratch_.resize(static_cast<size_t>(page_count_) * width);
      eval_reader_->DecodeBatch(attr, page_count_, batch_scratch_.data());
      CountDecode(&c, kind, page_count_);
    }
    for (size_t p = 0; p < bound_preds_[n].size(); ++p) {
      const kernels::PackedPredicate& pred = bound_preds_[n][p];
      const bool first_mask = n == 0 && p == 0;
      kernels::BitVector* sel = first_mask ? &page_mask_ : &pass_mask_;
      sel->Reset(page_count_);
      if (delta) {
        for (uint32_t done = 0; done < page_count_; done += 256) {
          const size_t cnt = std::min<uint32_t>(256, page_count_ - done);
          for (size_t i = 0; i < cnt; ++i) {
            keys[i] = LoadLE32(batch_scratch_.data() + (done + i) * 4);
          }
          kernels::ScanKeys(keys, cnt, pred, sel, done);
        }
        c.kernel_batches += 1;
        c.values_scanned_vectorized += page_count_;
        if (p == 0) touched_[attr] += page_count_;
      } else if (n == 0 || p > 0) {
        // Full minipage sweep: the deepest node streams everything; an
        // additional predicate on an already-swept attribute re-scans it.
        if (p > 0) eval_reader_->Rewind(attr);
        eval_reader_->ScanNext(attr, page_count_, pred, sel, 0);
        c.kernel_batches += 1;
        c.values_scanned_vectorized += page_count_;
        if (p == 0) {
          touched_[attr] += page_count_;
          if (kind == CompressionKind::kDict) {
            c.values_code_reads += page_count_;
          }
        }
      } else {
        // Later node, first predicate: whole dead words of the running
        // mask are skipped without touching their values.
        uint64_t cursor = 0;
        uint64_t scanned = 0;
        const uint64_t* mask_words = page_mask_.words();
        for (size_t w = 0; w < page_mask_.num_words(); ++w) {
          const uint64_t word_base = static_cast<uint64_t>(w) * 64;
          const uint64_t wcount =
              std::min<uint64_t>(64, page_count_ - word_base);
          if (mask_words[w] == 0) {
            c.mask_skipped_values += wcount;
            continue;
          }
          if (word_base > cursor) {
            eval_reader_->SkipValues(attr, word_base - cursor);
          }
          eval_reader_->ScanNext(attr, wcount, pred, sel, word_base);
          cursor = word_base + wcount;
          scanned += wcount;
        }
        c.kernel_batches += 1;
        c.values_scanned_vectorized += scanned;
        touched_[attr] += scanned;
        if (kind == CompressionKind::kDict) c.values_code_reads += scanned;
      }
      if (!first_mask) page_mask_.AndWith(pass_mask_);
    }
  }
  positions_.clear();
  page_mask_.ForEachSet(
      [this](size_t i) { positions_.push_back(static_cast<uint32_t>(i)); });
  return true;
}

Status PaxScanner::AdvancePage() {
  AccountPage();
  eval_reader_.reset();
  emit_reader_.reset();
  const Schema& schema = table_->schema();
  ExecCounters& c = stats_->counters();
  while (true) {
    RODB_ASSIGN_OR_RETURN(const PageView* page, source_.Next());
    if (page == nullptr) {
      eof_ = true;
      return Status::OK();
    }
    RODB_ASSIGN_OR_RETURN(PaxPageReader eval,
                          PaxPageReader::Open(*page, &schema, eval_raw_));
    RODB_ASSIGN_OR_RETURN(PaxPageReader emit,
                          PaxPageReader::Open(*page, &schema, emit_raw_));
    page_start_pos_ = source_.first_pos();
    eval_reader_.emplace(eval);
    emit_reader_.emplace(emit);
    page_count_ = eval_reader_->count();
    std::fill(emit_cursor_.begin(), emit_cursor_.end(), 0);
    pos_idx_ = 0;
    positions_.clear();
    if (page_count_ == 0) {
      eval_reader_.reset();
      emit_reader_.reset();
      continue;
    }

    // --- evaluation pass ---
    uint8_t* value = value_scratch_.data();
    if (pred_nodes_.empty()) {
      for (uint32_t i = 0; i < page_count_; ++i) positions_.push_back(i);
      c.tuples_examined += page_count_;
    } else if (!TryKernelEval()) {
      // Deepest node: stream the whole minipage.
      {
        const auto& [attr, preds] = pred_nodes_.front();
        const CompressionKind kind = eval_raw_[attr]->kind();
        for (uint32_t i = 0; i < page_count_; ++i) {
          eval_reader_->DecodeNext(attr, value);
          CountDecode(&c, kind, 1);
          c.tuples_examined += 1;
          bool pass = true;
          for (const Predicate& pred : preds) {
            c.predicate_evals += 1;
            if (!pred.Eval(value)) {
              pass = false;
              break;
            }
          }
          if (pass) positions_.push_back(i);
        }
        touched_[attr] += page_count_;
      }
      // Later predicate attributes: only qualifying positions.
      for (size_t n = 1; n < pred_nodes_.size() && !positions_.empty();
           ++n) {
        const auto& [attr, preds] = pred_nodes_[n];
        const CompressionKind kind = eval_raw_[attr]->kind();
        uint64_t cursor = 0;
        size_t kept = 0;
        for (uint32_t pos : positions_) {
          const uint64_t skip = pos - cursor;
          if (skip > 0) {
            eval_reader_->SkipValues(attr, skip);
            if (kind == CompressionKind::kForDelta) {
              CountDecode(&c, kind, skip);
              touched_[attr] += skip;
            }
          }
          eval_reader_->DecodeNext(attr, value);
          cursor = pos + 1;
          CountDecode(&c, kind, 1);
          touched_[attr] += 1;
          c.positions_processed += 1;
          bool pass = true;
          for (const Predicate& pred : preds) {
            c.predicate_evals += 1;
            if (!pred.Eval(value)) {
              pass = false;
              break;
            }
          }
          if (pass) positions_[kept++] = pos;
        }
        positions_.resize(kept);
      }
    }
    if (!positions_.empty()) return Status::OK();
    // Fully filtered page: account it and move on.
    AccountPage();
    eval_reader_.reset();
    emit_reader_.reset();
  }
}

Result<TupleBlock*> PaxScanner::Next() {
  if (!opened_) return Status::InvalidArgument("PaxScanner not opened");
  obs::SpanTimer scan_span(stats_->trace(), obs::TracePhase::kScan);
  const Schema& schema = table_->schema();
  ExecCounters& c = stats_->counters();
  block_.Clear();
  uint8_t* value = value_scratch_.data();
  while (!block_.full() && !eof_) {
    if (!eval_reader_.has_value() || pos_idx_ >= positions_.size()) {
      RODB_RETURN_IF_ERROR(AdvancePage());
      if (eof_) break;
    }
    while (!block_.full() && pos_idx_ < positions_.size()) {
      const uint32_t pos = positions_[pos_idx_++];
      uint8_t* slot = block_.AppendSlot();
      const BlockLayout& layout = block_.layout();
      for (size_t i = 0; i < spec_.projection.size(); ++i) {
        const size_t attr = static_cast<size_t>(spec_.projection[i]);
        const CompressionKind kind = emit_raw_[attr]->kind();
        const uint64_t skip = pos - emit_cursor_[attr];
        if (skip > 0) {
          emit_reader_->SkipValues(attr, skip);
          if (kind == CompressionKind::kForDelta) {
            CountDecode(&c, kind, skip);
            touched_[attr] += skip;
          }
        }
        emit_reader_->DecodeNext(attr, value);
        emit_cursor_[attr] = pos + 1;
        CountDecode(&c, kind, 1);
        touched_[attr] += 1;
        std::memcpy(slot + layout.offsets[i], value,
                    static_cast<size_t>(layout.widths[i]));
        c.values_copied += 1;
        c.bytes_copied += static_cast<uint64_t>(layout.widths[i]);
      }
      block_.set_position(block_.size() - 1, page_start_pos_ + pos);
    }
  }
  (void)schema;
  if (block_.empty()) {
    stats_->FoldIo();
    return static_cast<TupleBlock*>(nullptr);
  }
  c.blocks_emitted += 1;
  return &block_;
}

void PaxScanner::Close() {
  AccountPage();
  stats_->FoldIo();
  source_.Close();
  eval_reader_.reset();
  emit_reader_.reset();
}

}  // namespace rodb
