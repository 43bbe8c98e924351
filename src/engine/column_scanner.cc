#include "engine/column_scanner.h"

#include <algorithm>
#include <cstring>

#include "common/bytes.h"
#include "common/macros.h"
#include "obs/span.h"

namespace rodb {

ColumnScanner::ColumnScanner(const OpenTable* table, ScanSpec spec,
                             ExecStats* stats, BlockLayout layout)
    : table_(table), spec_(std::move(spec)), stats_(stats),
      layout_(std::move(layout)) {}

Result<OperatorPtr> ColumnScanner::Make(const OpenTable* table, ScanSpec spec,
                                        IoBackend* backend,
                                        ExecStats* stats) {
  RODB_RETURN_IF_ERROR(
      ValidateScanSpec(table, spec, Layout::kColumn, backend, stats));
  const Schema& schema = table->schema();
  BlockLayout layout = BlockLayout::FromSchema(schema, spec.projection);
  std::unique_ptr<ColumnScanner> scanner(new ColumnScanner(
      table, std::move(spec), stats, std::move(layout)));
  const ScanSpec& s = scanner->spec_;

  // Pipeline order: one node per distinct predicate attribute (in
  // predicate order, deepest first), then the remaining projected columns.
  const std::vector<size_t> pipeline_attrs = ScanPipelineAttrs(s);

  int filled = 0;
  int max_value_width = 1;
  for (size_t k = 0; k < pipeline_attrs.size(); ++k) {
    Node node(PageSource(table, pipeline_attrs[k], s, backend, stats));
    node.attr = pipeline_attrs[k];
    const auto proj_it =
        std::find(s.projection.begin(), s.projection.end(),
                  static_cast<int>(node.attr));
    node.out_col = proj_it == s.projection.end()
                       ? -1
                       : static_cast<int>(proj_it - s.projection.begin());
    for (const Predicate& pred : s.predicates) {
      if (static_cast<size_t>(pred.attr_index()) == node.attr) {
        node.preds.push_back(pred);
      }
    }
    RODB_ASSIGN_OR_RETURN(node.codec, table->MakeAttrCodec(node.attr));
    node.codec_kind = node.codec->kind();
    node.value_width = schema.attribute(node.attr).width;
    // Compressed-eval fast path (ScanSpec::compressed_eval): =/!= against
    // a dictionary column become code comparisons.
    if (s.compressed_eval && node.codec->SupportsCodeDecoding() &&
        !node.preds.empty() && table->dict(node.attr) != nullptr) {
      const Dictionary* dict = table->dict(node.attr);
      bool eligible = true;
      std::vector<Node::CodePred> code_preds;
      for (const Predicate& pred : node.preds) {
        if (pred.op() != CompareOp::kEq && pred.op() != CompareOp::kNe) {
          eligible = false;
          break;
        }
        std::vector<uint8_t> operand(
            static_cast<size_t>(node.value_width), 0);
        if (pred.is_text()) {
          // Prefix-compare semantics only coincide with full-value
          // equality when the operand covers the whole attribute.
          if (pred.text_operand().size() !=
              static_cast<size_t>(node.value_width)) {
            eligible = false;
            break;
          }
          std::memcpy(operand.data(), pred.text_operand().data(),
                      operand.size());
        } else {
          if (node.value_width != 4) {
            eligible = false;
            break;
          }
          StoreLE32s(operand.data(), pred.int_operand());
        }
        Node::CodePred cp;
        cp.negate = pred.op() == CompareOp::kNe;
        auto code = dict->Encode(operand.data());
        cp.matchable = code.ok();
        cp.code = code.ok() ? *code : 0;
        code_preds.push_back(cp);
      }
      if (eligible) {
        node.use_codes = true;
        node.code_preds = std::move(code_preds);
        node.dict = dict;
      }
    }
    // Vectorized kernel path (ScanSpec::vectorized): the deepest node
    // filters whole pages into a selection mask. Dictionary predicates run
    // in the code domain -- that is compressed evaluation, so they keep
    // the compressed_eval gate.
    if (k == 0 && !node.preds.empty() && s.vectorized &&
        (node.codec_kind != CompressionKind::kDict || s.compressed_eval)) {
      node.try_kernel = true;
    }
    max_value_width = std::max(max_value_width, node.value_width);
    if (node.out_col >= 0) filled += node.value_width;
    node.filled_bytes = filled;
    // The deepest node and every predicate node rewrite tuples into their
    // own block; projection-only inner nodes fill in place.
    if (k == 0 || !node.preds.empty()) {
      node.out_block = std::make_unique<TupleBlock>(scanner->layout_,
                                                    s.block_tuples);
    }
    scanner->nodes_.push_back(std::move(node));
  }
  scanner->value_scratch_.resize(static_cast<size_t>(max_value_width));
  return OperatorPtr(std::move(scanner));
}

Status ColumnScanner::Open() {
  if (opened_) return Status::OK();
  opened_ = true;
  const uint64_t total = table_->meta().num_tuples;
  const uint64_t start = std::min(spec_.range.first_row(), total);
  end_row_ = spec_.range.num_rows() >= total - start
                 ? total
                 : start + spec_.range.num_rows();
  if (start >= end_row_) {
    // Empty position range: nothing to read.
    done_ = true;
    for (Node& node : nodes_) node.eof = true;
    return Status::OK();
  }
  // A range that ends at the table's end is bounded by the driving
  // file's end instead, like a whole-table scan.
  if (end_row_ == total) end_row_ = UINT64_MAX;
  plan_ = BuildPrunePlan(*table_, spec_);
  plan_.AddCountersTo(&stats_->counters());
  RODB_CHECK(!plan_.active || plan_.nodes.size() == nodes_.size());
  for (size_t k = 0; k < nodes_.size(); ++k) {
    if (plan_.active) nodes_[k].prune = &plan_.nodes[k];
    RODB_RETURN_IF_ERROR(nodes_[k].source.Open(plan_.retained(k)));
  }
  return Status::OK();
}

void ColumnScanner::AccountPage(Node& node) {
  if (!node.page.has_value()) return;
  const uint32_t count = node.page->count();
  if (count == 0) return;
  AccountTouchedLines(stats_, table_->meta().page_size, node.touched_in_page,
                      count);
}

Status ColumnScanner::AdvanceNodePage(Node& node) {
  AccountPage(node);
  node.page.reset();
  while (true) {
    RODB_ASSIGN_OR_RETURN(const PageView* page, node.source.Next());
    if (page == nullptr) {
      node.eof = true;
      return Status::OK();
    }
    RODB_ASSIGN_OR_RETURN(ColumnPageReader reader,
                          ColumnPageReader::Open(*page, node.codec.get()));
    node.page_start_pos = node.source.first_pos();
    node.page.emplace(reader);
    node.consumed_in_page = 0;
    node.touched_in_page = 0;
    if (node.page->count() > 0) return Status::OK();
    node.page.reset();
  }
}

Status ColumnScanner::SeekTo(Node& node, uint64_t pos) {
  while (!node.eof &&
         (!node.page.has_value() ||
          pos >= node.page_start_pos + node.page->count())) {
    RODB_RETURN_IF_ERROR(AdvanceNodePage(node));
  }
  if (node.eof) {
    return Status::Corruption("column " + std::to_string(node.attr) +
                              " shorter than the driving position stream");
  }
  if (pos < node.page_start_pos) {
    // Only reachable on a pruned stream, when the seek target fell inside
    // a skipped gap (e.g. a morsel's first_row on a pruned page): the
    // fetched page starts past it and nothing needs skipping.
    RODB_CHECK(node.prune != nullptr);
    return Status::OK();
  }
  const uint64_t target_in_page = pos - node.page_start_pos;
  RODB_CHECK(target_in_page >= node.consumed_in_page);
  const uint64_t skip = target_in_page - node.consumed_in_page;
  if (skip > 0) {
    node.page->SkipValues(skip);
    node.consumed_in_page += skip;
    if (node.codec_kind == CompressionKind::kForDelta) {
      // FOR-delta decodes everything it passes over.
      node.touched_in_page += skip;
      CountDecode(&stats_->counters(), node.codec_kind, skip);
    }
  }
  return Status::OK();
}

Status ColumnScanner::FetchValueAt(Node& node, uint64_t pos, uint8_t* out) {
  RODB_RETURN_IF_ERROR(SeekTo(node, pos));
  node.page->DecodeNext(out);
  node.consumed_in_page += 1;
  node.touched_in_page += 1;
  CountDecode(&stats_->counters(), node.codec_kind, 1);
  return Status::OK();
}

Status ColumnScanner::FetchCodeAt(Node& node, uint64_t pos, uint32_t* code) {
  RODB_RETURN_IF_ERROR(SeekTo(node, pos));
  *code = node.page->DecodeNextCode();
  node.consumed_in_page += 1;
  node.touched_in_page += 1;
  stats_->counters().values_code_reads += 1;
  return Status::OK();
}

bool ColumnScanner::EvalCodePreds(const Node& node, uint32_t code) {
  ExecCounters& c = stats_->counters();
  for (const Node::CodePred& cp : node.code_preds) {
    c.predicate_evals += 1;
    const bool eq = cp.matchable && code == cp.code;
    if (cp.negate ? eq : !eq) return false;
  }
  return true;
}

void ColumnScanner::BuildPageMask(Node& node) {
  ExecCounters& c = stats_->counters();
  const uint32_t count = node.page->count();
  const uint64_t limit =
      std::min<uint64_t>(count, end_row_ - node.page_start_pos);
  c.tuples_examined += limit;
  node.page_mask.Reset(limit);
  if (node.codec_kind == CompressionKind::kForDelta) {
    // Delta pages are sequentially dependent: decode once, then run the
    // vectorized compare over the materialized keys.
    node.batch_scratch.resize(limit * static_cast<size_t>(node.value_width));
    node.page->DecodeBatch(limit, node.batch_scratch.data());
    CountDecode(&c, node.codec_kind, limit);
    uint32_t keys[256];
    for (size_t p = 0; p < node.packed_preds.size(); ++p) {
      kernels::BitVector* sel = &node.page_mask;
      if (p > 0) {
        node.pass_mask.Reset(limit);
        sel = &node.pass_mask;
      }
      for (uint64_t done = 0; done < limit; done += 256) {
        const size_t n =
            static_cast<size_t>(std::min<uint64_t>(256, limit - done));
        for (size_t i = 0; i < n; ++i) {
          keys[i] = LoadLE32(node.batch_scratch.data() + (done + i) * 4);
        }
        kernels::ScanKeys(keys, n, node.packed_preds[p], sel, done);
      }
      c.kernel_batches += 1;
      c.values_scanned_vectorized += limit;
      if (p > 0) node.page_mask.AndWith(node.pass_mask);
    }
  } else {
    for (size_t p = 0; p < node.packed_preds.size(); ++p) {
      kernels::BitVector* sel = &node.page_mask;
      if (p > 0) {
        node.pass_mask.Reset(limit);
        sel = &node.pass_mask;
        node.page->Rewind();
      }
      node.page->ScanNext(limit, node.packed_preds[p], sel, 0);
      c.kernel_batches += 1;
      c.values_scanned_vectorized += limit;
      if (node.codec_kind == CompressionKind::kDict && p == 0) {
        // The first pass reads every code; later passes re-scan the same
        // stream and are charged only the kernel work.
        c.values_code_reads += limit;
      }
      if (p > 0) node.page_mask.AndWith(node.pass_mask);
    }
    // Leave the decode cursor at value 0 so EmitFromMask can materialize
    // survivors with skip + decode.
    node.page->Rewind();
  }
  node.touched_in_page = limit;
  c.mask_skipped_values += limit - node.page_mask.Popcount();
  node.mask_valid = true;
  node.mask_limit = limit;
  node.mask_next = 0;
}

void ColumnScanner::EmitFromMask(Node& node, TupleBlock& out) {
  ExecCounters& c = stats_->counters();
  uint8_t* value = value_scratch_.data();
  const uint64_t* words = node.page_mask.words();
  while (!out.full() && node.mask_next < node.mask_limit) {
    const size_t w = static_cast<size_t>(node.mask_next >> 6);
    const uint64_t word = words[w] >> (node.mask_next & 63);
    if (word == 0) {
      // Whole remaining word is dead: jump to the next word boundary.
      node.mask_next = (static_cast<uint64_t>(w) + 1) * 64;
      continue;
    }
    const uint64_t idx =
        node.mask_next + static_cast<uint64_t>(__builtin_ctzll(word));
    uint8_t* slot = out.AppendSlot();
    out.set_position(out.size() - 1, node.page_start_pos + idx);
    if (node.out_col >= 0) {
      if (node.codec_kind == CompressionKind::kForDelta) {
        // The page is already materialized in batch_scratch.
        std::memcpy(value,
                    node.batch_scratch.data() +
                        idx * static_cast<size_t>(node.value_width),
                    static_cast<size_t>(node.value_width));
      } else {
        const uint64_t gap = idx - node.consumed_in_page;
        if (gap > 0) node.page->SkipValues(gap);
        node.page->DecodeNext(value);
        node.consumed_in_page = idx + 1;
        CountDecode(&c, node.codec_kind, 1);
      }
      std::memcpy(slot + layout_.offsets[static_cast<size_t>(node.out_col)],
                  value, static_cast<size_t>(node.value_width));
      c.values_copied += 1;
      c.bytes_copied += static_cast<uint64_t>(node.value_width);
    }
    node.mask_next = idx + 1;
  }
}

Status ColumnScanner::ProduceBase(Node& node) {
  ExecCounters& c = stats_->counters();
  TupleBlock& out = *node.out_block;
  out.Clear();
  if (!base_positioned_) {
    base_positioned_ = true;
    if (spec_.range.first_row() > node.page_start_pos) {
      // Unaligned morsel start: skip within the first page.
      RODB_RETURN_IF_ERROR(SeekTo(node, spec_.range.first_row()));
    }
  }
  uint8_t* value = value_scratch_.data();
  while (!out.full()) {
    if (node.mask_valid) {
      EmitFromMask(node, out);
      if (node.mask_next >= node.mask_limit) {
        node.mask_valid = false;
        if (node.mask_limit < node.page->count()) {
          // The scan range ends inside this page.
          node.eof = true;
          break;
        }
        node.consumed_in_page = node.page->count();
      }
      continue;
    }
    if (!node.page.has_value() ||
        node.consumed_in_page >= node.page->count()) {
      RODB_RETURN_IF_ERROR(AdvanceNodePage(node));
      if (node.eof) break;
    }
    // Kernel path: filter the whole page into a selection mask, then emit
    // survivors. Pages entered mid-way (unaligned morsel start) and
    // unbindable predicates fall back to the scalar loop below.
    if (node.try_kernel && node.consumed_in_page == 0 &&
        node.page_start_pos < end_row_) {
      // Bindability does not depend on the page: one failure disables the
      // kernel path for the rest of the scan.
      node.try_kernel =
          BindPackedPredicates(*node.codec, node.preds, &node.packed_preds);
      if (node.try_kernel) {
        BuildPageMask(node);
        continue;
      }
    }
    const uint64_t pos = node.page_start_pos + node.consumed_in_page;
    if (pos >= end_row_) {
      node.eof = true;
      break;
    }
    c.tuples_examined += 1;
    bool pass = true;
    bool have_value = false;
    if (node.use_codes) {
      const uint32_t code = node.page->DecodeNextCode();
      node.consumed_in_page += 1;
      node.touched_in_page += 1;
      c.values_code_reads += 1;
      pass = EvalCodePreds(node, code);
      if (pass && node.out_col >= 0) {
        // Materialize only qualifying, projected values.
        std::memcpy(value, node.dict->Decode(code),
                    static_cast<size_t>(node.value_width));
        c.values_decoded_dict += 1;
        have_value = true;
      }
    } else {
      node.page->DecodeNext(value);
      node.consumed_in_page += 1;
      node.touched_in_page += 1;
      CountDecode(&c, node.codec_kind, 1);
      have_value = true;
      for (const Predicate& pred : node.preds) {
        c.predicate_evals += 1;
        if (!pred.Eval(value)) {
          pass = false;
          break;
        }
      }
    }
    if (!pass) continue;
    uint8_t* slot = out.AppendSlot();
    out.set_position(out.size() - 1, pos);
    if (node.out_col >= 0) {
      RODB_CHECK(have_value);
      std::memcpy(slot + layout_.offsets[static_cast<size_t>(node.out_col)],
                  value, static_cast<size_t>(node.value_width));
      c.values_copied += 1;
      c.bytes_copied += static_cast<uint64_t>(node.value_width);
    }
  }
  return Status::OK();
}

Result<TupleBlock*> ColumnScanner::ProcessNode(Node& node, TupleBlock* in) {
  ExecCounters& c = stats_->counters();
  uint8_t* value = value_scratch_.data();
  if (node.preds.empty()) {
    // Attach values in place, without re-writing the tuples.
    for (uint32_t i = 0; i < in->size(); ++i) {
      RODB_RETURN_IF_ERROR(FetchValueAt(node, in->position(i), value));
      c.positions_processed += 1;
      std::memcpy(in->attr(i, static_cast<size_t>(node.out_col)), value,
                  static_cast<size_t>(node.value_width));
      c.values_copied += 1;
      c.bytes_copied += static_cast<uint64_t>(node.value_width);
    }
    return in;
  }
  // Predicate node: qualifying tuples are copied forward to a new block.
  TupleBlock& out = *node.out_block;
  out.Clear();
  for (uint32_t i = 0; i < in->size(); ++i) {
    if (node.prune != nullptr &&
        !RunsContain(node.prune->accept, in->position(i))) {
      // The position's page was zone-proven predicate-free (and never
      // fetched): reject without touching the stream.
      c.prune_zone_rejects += 1;
      continue;
    }
    bool pass = true;
    bool have_value = false;
    if (node.use_codes) {
      uint32_t code = 0;
      RODB_RETURN_IF_ERROR(FetchCodeAt(node, in->position(i), &code));
      c.positions_processed += 1;
      pass = EvalCodePreds(node, code);
      if (pass && node.out_col >= 0) {
        std::memcpy(value, node.dict->Decode(code),
                    static_cast<size_t>(node.value_width));
        c.values_decoded_dict += 1;
        have_value = true;
      }
    } else {
      RODB_RETURN_IF_ERROR(FetchValueAt(node, in->position(i), value));
      have_value = true;
      c.positions_processed += 1;
      for (const Predicate& pred : node.preds) {
        c.predicate_evals += 1;
        if (!pred.Eval(value)) {
          pass = false;
          break;
        }
      }
    }
    if (!pass) continue;
    uint8_t* slot = out.AppendSlot();
    std::memcpy(slot, in->tuple(i),
                static_cast<size_t>(layout_.tuple_width));
    out.set_position(out.size() - 1, in->position(i));
    if (node.out_col >= 0) {
      RODB_CHECK(have_value);
      std::memcpy(slot + layout_.offsets[static_cast<size_t>(node.out_col)],
                  value, static_cast<size_t>(node.value_width));
    }
    c.values_copied += 1;
    c.bytes_copied += static_cast<uint64_t>(node.filled_bytes);
  }
  return &out;
}

Result<TupleBlock*> ColumnScanner::Next() {
  if (!opened_) return Status::InvalidArgument("ColumnScanner not opened");
  obs::SpanTimer scan_span(stats_->trace(), obs::TracePhase::kScan);
  if (done_) return static_cast<TupleBlock*>(nullptr);
  // Keep producing base blocks until one survives the pipeline non-empty
  // (a fully filtered-out block must not terminate the scan).
  while (true) {
    Node& base = nodes_[0];
    RODB_RETURN_IF_ERROR(ProduceBase(base));
    TupleBlock* block = base.out_block.get();
    const bool base_eof = base.eof;
    if (block->empty() && base_eof) {
      done_ = true;
      // Final memory accounting for pages left open on inner nodes.
      for (Node& node : nodes_) AccountPage(node);
      stats_->FoldIo();
      return static_cast<TupleBlock*>(nullptr);
    }
    if (!block->empty()) {
      for (size_t k = 1; k < nodes_.size(); ++k) {
        RODB_ASSIGN_OR_RETURN(block, ProcessNode(nodes_[k], block));
        if (block->empty()) break;
      }
    }
    if (!block->empty()) {
      stats_->counters().blocks_emitted += 1;
      return block;
    }
    if (base_eof) {
      done_ = true;
      for (Node& node : nodes_) AccountPage(node);
      stats_->FoldIo();
      return static_cast<TupleBlock*>(nullptr);
    }
  }
}

void ColumnScanner::Close() {
  stats_->FoldIo();
  for (Node& node : nodes_) {
    node.source.Close();
    node.page.reset();
  }
}

}  // namespace rodb
