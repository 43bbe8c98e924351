#ifndef RODB_ENGINE_ZONE_PRUNER_H_
#define RODB_ENGINE_ZONE_PRUNER_H_

#include <cstdint>
#include <vector>

#include "engine/scan_spec.h"
#include "hwmodel/cpu_model.h"
#include "storage/catalog.h"
#include "storage/synopsis.h"

namespace rodb {

/// Zone-map pruning (DESIGN.md 5g): turns a table's synopsis
/// (storage/synopsis.h) plus a scan's predicate conjunction into a
/// *prune plan* -- the exact set of pages each scanner stream must fetch
/// -- before any I/O is issued. The plan is sound by construction: a page
/// is only skipped when its zone proves no value in it can satisfy a
/// predicate, so pruned and unpruned scans return identical tuples.
///
/// Everything here reuses PackedPredicate's canonical trick of comparing
/// in an unsigned key domain; BuildZonePredicate lowers each engine
/// Predicate into one inclusive key interval (or a dictionary-code match
/// bitmap) that is a *superset* of the true match set, which is what
/// makes skipping safe for every codec and both value types.

/// One half-open interval [begin, end), used both for position runs and
/// page-index runs.
struct Run {
  uint64_t begin = 0;
  uint64_t end = 0;
};

/// Sum of run lengths.
uint64_t TotalRunLength(const std::vector<Run>& runs);

/// True when `v` falls inside one of the (sorted, disjoint) runs.
bool RunsContain(const std::vector<Run>& runs, uint64_t v);

/// Intersection of two sorted disjoint run lists.
std::vector<Run> IntersectRuns(const std::vector<Run>& a,
                               const std::vector<Run>& b);

/// Page-index runs covering every position in `pos_runs` of a file whose
/// full pages hold `vpp` values.
std::vector<Run> PageRunsForPositions(const std::vector<Run>& pos_runs,
                                      uint32_t vpp);

/// Position runs spanned by page-index runs (the last page's short tail
/// is clamped to `num_tuples`).
std::vector<Run> PositionRunsForPages(const std::vector<Run>& page_runs,
                                      uint32_t vpp, uint64_t num_tuples);

/// A Predicate lowered into the zone key domain: an inclusive interval
/// [lo, hi] that contains the key of every matching value (negate flips
/// the sense for kNe), plus an optional dictionary-code match bitmap.
struct ZonePredicate {
  size_t attr = 0;
  uint32_t lo = 0;
  uint32_t hi = 0;
  /// Predicate true outside the interval (kNe). Pruning on a negated
  /// predicate additionally requires `exact`.
  bool negate = false;
  /// Key membership in [lo, hi] is *equivalent* to the (non-negated)
  /// predicate, not merely necessary: int32 always; text only when the
  /// operand fits inside the key prefix.
  bool exact = false;
  /// The predicate matches nothing (e.g. `< INT32_MIN`): prune all pages.
  bool empty = false;
  /// False when this predicate cannot prune at all (its interval had to
  /// widen to the whole domain).
  bool usable = true;
  /// kDict columns: bit c set iff the predicate holds for dictionary
  /// code c, sized to the synopsis bitmap width. Empty = no bitmap test.
  std::vector<uint64_t> match_codes;
  size_t match_bits = 0;

  /// May any value whose key lies in `zone` satisfy this predicate?
  bool ZoneMayMatch(const ZoneEntry& zone) const;
  /// Refinement for kDict pages with presence bitmaps.
  bool PageMayMatch(const ZoneEntry& zone, const AttrSynopsis& synopsis,
                    size_t page) const;
};

/// Lowers one predicate. `dict`/`bitmap_bits` feed the code bitmap and
/// may be null/0.
ZonePredicate BuildZonePredicate(const AttributeDesc& attr,
                                 const Predicate& pred,
                                 const Dictionary* dict, size_t bitmap_bits);

/// Per-pipeline-node slice of a plan: which pages of the node's physical
/// file to fetch, and which positions the node's own predicates
/// zone-accept (positions outside `accept` are rejected without fetching
/// anything -- their pages were proven predicate-free).
struct NodePrunePlan {
  size_t attr = 0;   ///< table attribute (0 for the row/PAX single file)
  size_t file = 0;   ///< physical file index
  uint32_t vpp = 0;  ///< values per full page of that file
  bool has_preds = false;
  std::vector<Run> page_runs;  ///< page indices this node fetches
  std::vector<Run> accept;     ///< zone-accepted positions (preds only)
  uint64_t pages = 0;          ///< TotalRunLength(page_runs)
};

/// The complete pruning decision for one scan. `active == false` means
/// "scan exactly as if spec.prune were off" -- either pruning was not
/// requested, was declined (no/stale synopsis, kCharPack predicate
/// column, non-uniform pages, ...), or would not skip a single page.
struct PrunePlan {
  bool requested = false;
  bool active = false;
  bool declined = false;  ///< requested but could not be honored
  bool corrupt = false;   ///< synopsis present but failed CRC/staleness
  uint64_t pages_pruned = 0;
  uint64_t pages_retained = 0;
  /// Column scans: parallel to ScanPipelineAttrs(spec). Row/PAX scans:
  /// one node for the single file.
  std::vector<NodePrunePlan> nodes;
  /// Surviving positions (every zone-accept intersected, clamped to the
  /// spec's range): what the scan can possibly emit, and the domain
  /// early-materialized scans and morsel carving iterate.
  std::vector<Run> global;

  /// Folds the plan's outcome into the scan's counters at Open time.
  void AddCountersTo(ExecCounters* c) const;

  /// Node `k`'s retained page runs, or null when the plan is inactive
  /// (the scan then reads its whole range): what a scanner hands its
  /// PageSource.
  const std::vector<Run>* retained(size_t k) const {
    return active ? &nodes[k].page_runs : nullptr;
  }
};

/// Builds the plan for scanning `table` under `spec`. Never fails:
/// every reason not to prune comes back as an inactive plan.
PrunePlan BuildPrunePlan(const OpenTable& table, const ScanSpec& spec);

/// Fraction of the table's tuples the plan's global runs retain (1.0 for
/// inactive plans). Admission control scales a scan's declared working
/// set by this before reserving memory.
double PruneSurvivingFraction(const PrunePlan& plan, uint64_t num_tuples);

/// Admission sizing: the backend bytes the scan will actually fetch --
/// every file the spec touches, shrunk to the prune plan's byte runs when
/// pruning is active. Pass the result to AdmissionController::Admit so a
/// selective pruned scan reserves its post-prune working set instead of
/// the whole table.
uint64_t EstimateScanWorkingSet(const OpenTable& table, const ScanSpec& spec);

/// One contiguous byte range of a file to stream.
struct ByteRun {
  uint64_t offset = 0;
  uint64_t length = 0;
};

/// Byte ranges covering `page_runs` (the final page's tail clamps to
/// `file_bytes`).
std::vector<ByteRun> ByteRunsForPages(const std::vector<Run>& page_runs,
                                      size_t page_size, uint64_t file_bytes);

}  // namespace rodb

#endif  // RODB_ENGINE_ZONE_PRUNER_H_
