#include "engine/zone_pruner.h"

#include <algorithm>
#include <string>

namespace rodb {

uint64_t TotalRunLength(const std::vector<Run>& runs) {
  uint64_t total = 0;
  for (const Run& r : runs) total += r.end - r.begin;
  return total;
}

bool RunsContain(const std::vector<Run>& runs, uint64_t v) {
  auto it = std::upper_bound(
      runs.begin(), runs.end(), v,
      [](uint64_t value, const Run& r) { return value < r.begin; });
  return it != runs.begin() && v < std::prev(it)->end;
}

std::vector<Run> IntersectRuns(const std::vector<Run>& a,
                               const std::vector<Run>& b) {
  std::vector<Run> out;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    const uint64_t begin = std::max(a[i].begin, b[j].begin);
    const uint64_t end = std::min(a[i].end, b[j].end);
    if (begin < end) out.push_back(Run{begin, end});
    if (a[i].end < b[j].end) {
      ++i;
    } else {
      ++j;
    }
  }
  return out;
}

namespace {

/// Appends [begin, end), merging into the previous run when they touch.
void PushRun(std::vector<Run>* runs, uint64_t begin, uint64_t end) {
  if (begin >= end) return;
  if (!runs->empty() && runs->back().end >= begin) {
    runs->back().end = std::max(runs->back().end, end);
    return;
  }
  runs->push_back(Run{begin, end});
}

}  // namespace

std::vector<Run> PageRunsForPositions(const std::vector<Run>& pos_runs,
                                      uint32_t vpp) {
  std::vector<Run> out;
  for (const Run& r : pos_runs) {
    PushRun(&out, r.begin / vpp, (r.end + vpp - 1) / vpp);
  }
  return out;
}

std::vector<Run> PositionRunsForPages(const std::vector<Run>& page_runs,
                                      uint32_t vpp, uint64_t num_tuples) {
  std::vector<Run> out;
  for (const Run& r : page_runs) {
    PushRun(&out, r.begin * vpp, std::min(r.end * vpp, num_tuples));
  }
  return out;
}

bool ZonePredicate::ZoneMayMatch(const ZoneEntry& zone) const {
  if (!zone.has_values) return false;  // no value, no match
  if (!usable) return true;
  if (empty) return negate;
  if (!negate) return zone.max_key >= lo && zone.min_key <= hi;
  // A negated predicate is false everywhere only when key membership is
  // equivalent to the underlying equality AND the whole zone sits inside
  // the forbidden interval.
  return !(exact && lo <= zone.min_key && zone.max_key <= hi);
}

bool ZonePredicate::PageMayMatch(const ZoneEntry& zone,
                                 const AttrSynopsis& synopsis,
                                 size_t page) const {
  if (!ZoneMayMatch(zone)) return false;
  if (match_bits == 0 || synopsis.bitmap_bits == 0) return true;
  const uint64_t* present = synopsis.PageBitmap(page);
  const size_t words = synopsis.WordsPerPage();
  for (size_t w = 0; w < words; ++w) {
    if (present[w] & match_codes[w]) return true;
  }
  return false;
}

ZonePredicate BuildZonePredicate(const AttributeDesc& attr,
                                 const Predicate& pred,
                                 const Dictionary* dict, size_t bitmap_bits) {
  ZonePredicate zp;
  zp.attr = static_cast<size_t>(pred.attr_index());
  constexpr uint32_t kMax = 0xFFFFFFFFu;
  if (!pred.is_text()) {
    const uint32_t k = ZoneKeyInt32(pred.int_operand());
    zp.exact = true;
    switch (pred.op()) {
      case CompareOp::kEq:
        zp.lo = zp.hi = k;
        break;
      case CompareOp::kNe:
        zp.lo = zp.hi = k;
        zp.negate = true;
        break;
      case CompareOp::kLt:
        if (k == 0) {
          zp.empty = true;
        } else {
          zp.lo = 0;
          zp.hi = k - 1;
        }
        break;
      case CompareOp::kLe:
        zp.lo = 0;
        zp.hi = k;
        break;
      case CompareOp::kGt:
        if (k == kMax) {
          zp.empty = true;
        } else {
          zp.lo = k + 1;
          zp.hi = kMax;
        }
        break;
      case CompareOp::kGe:
        zp.lo = k;
        zp.hi = kMax;
        break;
    }
  } else {
    const std::string& operand = pred.text_operand();
    const int width = attr.width;
    const size_t m = static_cast<size_t>(ZoneKeyTextPrefix(width));
    if (operand.size() > static_cast<size_t>(width)) {
      // Malformed predicate (compares past the value); never prune on it.
      zp.usable = false;
      return zp;
    }
    const auto* op_bytes = reinterpret_cast<const uint8_t*>(operand.data());
    if (operand.size() <= m) {
      // The operand fits inside the key prefix, so the key interval is
      // equivalent to the predicate's prefix comparison.
      uint8_t buf_lo[4] = {0, 0, 0, 0};
      uint8_t buf_hi[4] = {0xFF, 0xFF, 0xFF, 0xFF};
      std::copy(op_bytes, op_bytes + operand.size(), buf_lo);
      std::copy(op_bytes, op_bytes + operand.size(), buf_hi);
      const uint32_t k_lo = ZoneKeyText(buf_lo, width);
      const uint32_t k_hi = ZoneKeyText(buf_hi, width);
      zp.exact = true;
      switch (pred.op()) {
        case CompareOp::kEq:
          zp.lo = k_lo;
          zp.hi = k_hi;
          break;
        case CompareOp::kNe:
          zp.lo = k_lo;
          zp.hi = k_hi;
          zp.negate = true;
          break;
        case CompareOp::kLt:
          if (k_lo == 0) {
            zp.empty = true;
          } else {
            zp.lo = 0;
            zp.hi = k_lo - 1;
          }
          break;
        case CompareOp::kLe:
          zp.lo = 0;
          zp.hi = k_hi;
          break;
        case CompareOp::kGt:
          if (k_hi == kMax) {
            zp.empty = true;
          } else {
            zp.lo = k_hi + 1;
            zp.hi = kMax;
          }
          break;
        case CompareOp::kGe:
          zp.lo = k_lo;
          zp.hi = kMax;
          break;
      }
    } else {
      // Only the operand's first m bytes are visible in the key domain;
      // the interval is a superset of the match set ("may match"), never
      // exact, and inequality cannot prune at all.
      const uint32_t k = ZoneKeyText(op_bytes, width);
      switch (pred.op()) {
        case CompareOp::kEq:
          zp.lo = zp.hi = k;
          break;
        case CompareOp::kNe:
          zp.usable = false;
          break;
        case CompareOp::kLt:
        case CompareOp::kLe:
          zp.lo = 0;
          zp.hi = k;
          break;
        case CompareOp::kGt:
        case CompareOp::kGe:
          zp.lo = k;
          zp.hi = kMax;
          break;
      }
    }
  }
  // Dictionary presence refinement: evaluate the predicate exactly over
  // the (small) code domain once; pages then just AND bitmaps.
  if (dict != nullptr && bitmap_bits > 0) {
    const size_t n = std::min<size_t>(bitmap_bits, dict->size());
    zp.match_codes.assign((bitmap_bits + 63) / 64, 0);
    zp.match_bits = bitmap_bits;
    for (size_t code = 0; code < n; ++code) {
      const uint8_t* entry = dict->Decode(static_cast<uint32_t>(code));
      if (entry != nullptr && pred.Eval(entry)) {
        zp.match_codes[code / 64] |= uint64_t{1} << (code % 64);
      }
    }
  }
  return zp;
}

void PrunePlan::AddCountersTo(ExecCounters* c) const {
  if (active) {
    c->prune_plans += 1;
    c->pages_pruned += pages_pruned;
    c->pages_retained += pages_retained;
  }
  if (declined) c->prune_declined += 1;
  if (corrupt) c->synopsis_corrupt += 1;
}

double PruneSurvivingFraction(const PrunePlan& plan, uint64_t num_tuples) {
  if (!plan.active || num_tuples == 0) return 1.0;
  return static_cast<double>(TotalRunLength(plan.global)) /
         static_cast<double>(num_tuples);
}

namespace {

/// Pairs a lowered predicate with the synopsis of its attribute's file.
struct BoundZonePredicate {
  ZonePredicate zp;
  const AttrSynopsis* synopsis = nullptr;
};

/// Page-index runs of `file` whose zones may satisfy every predicate in
/// `preds`, restricted to pages [first_page, end_page). Tallies
/// pruned/retained pages into the plan.
std::vector<Run> SurvivingPages(const std::vector<BoundZonePredicate>& preds,
                                uint64_t first_page, uint64_t end_page,
                                PrunePlan* plan) {
  std::vector<Run> out;
  for (uint64_t p = first_page; p < end_page; ++p) {
    bool survive = true;
    for (const BoundZonePredicate& bp : preds) {
      if (!bp.zp.PageMayMatch(bp.synopsis->pages[p], *bp.synopsis, p)) {
        survive = false;
        break;
      }
    }
    if (survive) {
      plan->pages_retained += 1;
      PushRun(&out, p, p + 1);
    } else {
      plan->pages_pruned += 1;
    }
  }
  return out;
}

PrunePlan Declined(PrunePlan plan, bool corrupt = false) {
  plan.declined = true;
  plan.corrupt = corrupt;
  plan.active = false;
  plan.nodes.clear();
  plan.global.clear();
  plan.pages_pruned = plan.pages_retained = 0;
  return plan;
}

}  // namespace

PrunePlan BuildPrunePlan(const OpenTable& table, const ScanSpec& spec) {
  PrunePlan plan;
  // A predicate-free scan has nothing to prune with: not requested.
  plan.requested = spec.prune && !spec.predicates.empty();
  if (!plan.requested) return plan;
  const TableMeta& meta = table.meta();
  if (meta.num_tuples == 0) {
    // Not an error, but surfaced as a decline so `--trace` explains why
    // a pruned scan read everything.
    return Declined(std::move(plan));
  }
  if (table.synopsis_corrupt()) {
    return Declined(std::move(plan), /*corrupt=*/true);
  }
  const TableSynopsis* syn = table.synopsis();
  if (syn == nullptr) return Declined(std::move(plan));
  const Schema& schema = meta.schema;
  for (const Predicate& pred : spec.predicates) {
    const size_t attr = static_cast<size_t>(pred.attr_index());
    if (attr >= schema.num_attributes()) return Declined(std::move(plan));
    // kCharPack columns have no packed key/code the pruner (or the
    // vectorized path) understands; always decline and scan fully.
    if (schema.attribute(attr).codec.kind == CompressionKind::kCharPack) {
      return Declined(std::move(plan));
    }
  }

  const bool column = meta.layout == Layout::kColumn;
  const std::vector<size_t> pipeline =
      column ? ScanPipelineAttrs(spec) : std::vector<size_t>{0};
  for (size_t attr : pipeline) {
    const size_t file = column ? attr : 0;
    // Position <-> page arithmetic (and morsel carving) needs uniform
    // pages in every file the scan touches.
    if (meta.PageValues(file) == 0) return Declined(std::move(plan));
  }

  // The scan's position range (count fields may be UINT64_MAX, so clamp
  // before any arithmetic that could overflow).
  uint64_t first_row = 0;
  uint64_t end_row = meta.num_tuples;
  if (!spec.range.is_all()) {
    if (spec.range.unit == ScanRange::Unit::kPages) {
      if (column) return Declined(std::move(plan));
      const uint32_t vpp = meta.PageValues(0);
      const uint64_t total_pages = meta.file_pages[0];
      const uint64_t fp = std::min(spec.range.first_page(), total_pages);
      const uint64_t np = std::min(spec.range.num_pages(), total_pages - fp);
      first_row = fp * vpp;
      end_row = std::min((fp + np) * vpp, meta.num_tuples);
    } else {
      if (!column) return Declined(std::move(plan));
      first_row = std::min(spec.range.first_row(), meta.num_tuples);
      end_row = first_row + std::min(spec.range.num_rows(),
                                     meta.num_tuples - first_row);
    }
    if (first_row >= end_row) return Declined(std::move(plan));
  }

  // Lower every predicate against its file's synopsis.
  std::vector<BoundZonePredicate> preds;
  for (const Predicate& pred : spec.predicates) {
    const size_t attr = static_cast<size_t>(pred.attr_index());
    const size_t file = column ? attr : 0;
    if (file >= syn->files.size()) return Declined(std::move(plan));
    const AttrSynopsis* attr_syn = syn->files[file].Find(attr);
    if (attr_syn == nullptr ||
        attr_syn->pages.size() != meta.file_pages[file]) {
      return Declined(std::move(plan));
    }
    BoundZonePredicate bp;
    bp.zp = BuildZonePredicate(schema.attribute(attr), pred,
                               table.dict(attr), attr_syn->bitmap_bits);
    bp.synopsis = attr_syn;
    preds.push_back(std::move(bp));
  }

  if (!column) {
    // Row/PAX: one physical file, all predicates gate the same pages.
    NodePrunePlan node;
    node.attr = 0;
    node.file = 0;
    node.vpp = meta.PageValues(0);
    node.has_preds = true;
    const uint64_t first_page = first_row / node.vpp;
    const uint64_t end_page = std::min<uint64_t>(
        (end_row + node.vpp - 1) / node.vpp, meta.file_pages[0]);
    node.page_runs = SurvivingPages(preds, first_page, end_page, &plan);
    node.pages = TotalRunLength(node.page_runs);
    node.accept = PositionRunsForPages(node.page_runs, node.vpp,
                                       meta.num_tuples);
    plan.global = IntersectRuns(node.accept, {Run{first_row, end_row}});
    plan.nodes.push_back(std::move(node));
  } else {
    // Column pipeline: predicate nodes form a prefix of the pipeline.
    // Node k fetches the pages of its file overlapping the positions
    // still alive after the zones of nodes 0..k; positions outside its
    // own accept runs are zone-rejected at evaluation time without
    // fetching (sound: their pages were proven predicate-free).
    std::vector<Run> alive = {Run{first_row, end_row}};
    for (size_t attr : pipeline) {
      NodePrunePlan node;
      node.attr = attr;
      node.file = attr;
      node.vpp = meta.PageValues(attr);
      std::vector<BoundZonePredicate> node_preds;
      for (size_t i = 0; i < preds.size(); ++i) {
        if (preds[i].zp.attr == attr) node_preds.push_back(preds[i]);
      }
      node.has_preds = !node_preds.empty();
      if (node.has_preds) {
        const std::vector<Run> surviving = SurvivingPages(
            node_preds, 0, meta.file_pages[attr], &plan);
        node.accept =
            PositionRunsForPages(surviving, node.vpp, meta.num_tuples);
        alive = IntersectRuns(alive, node.accept);
        node.page_runs = PageRunsForPositions(alive, node.vpp);
        node.pages = TotalRunLength(node.page_runs);
      }
      plan.nodes.push_back(std::move(node));
    }
    plan.global = alive;
    // Projection-only nodes fetch exactly the pages the surviving
    // positions touch.
    for (NodePrunePlan& node : plan.nodes) {
      if (node.has_preds) continue;
      node.page_runs = PageRunsForPositions(plan.global, node.vpp);
      node.pages = TotalRunLength(node.page_runs);
    }
  }

  // An honored plan that skips nothing is reported inactive: the scan
  // runs the untouched (and counter-identical) unpruned path.
  plan.active = plan.pages_pruned > 0;
  if (!plan.active) {
    plan.nodes.clear();
    plan.global.clear();
    plan.pages_pruned = plan.pages_retained = 0;
  }
  return plan;
}

uint64_t EstimateScanWorkingSet(const OpenTable& table, const ScanSpec& spec) {
  const TableMeta& meta = table.meta();
  const bool column = meta.layout == Layout::kColumn;
  const PrunePlan plan = BuildPrunePlan(table, spec);
  uint64_t total = 0;
  if (plan.active) {
    for (const NodePrunePlan& node : plan.nodes) {
      for (const ByteRun& run : ByteRunsForPages(
               node.page_runs, meta.page_size, table.FileBytes(node.attr))) {
        total += run.length;
      }
    }
    return total;
  }
  for (size_t attr :
       (column ? ScanPipelineAttrs(spec) : std::vector<size_t>{0})) {
    total += table.FileBytes(attr);
  }
  return total;
}

std::vector<ByteRun> ByteRunsForPages(const std::vector<Run>& page_runs,
                                      size_t page_size, uint64_t file_bytes) {
  std::vector<ByteRun> out;
  for (const Run& r : page_runs) {
    ByteRun b;
    b.offset = r.begin * page_size;
    if (b.offset >= file_bytes) continue;
    b.length = std::min((r.end - r.begin) * page_size, file_bytes - b.offset);
    out.push_back(b);
  }
  return out;
}

}  // namespace rodb
