#ifndef RODB_ENGINE_SCAN_SPEC_H_
#define RODB_ENGINE_SCAN_SPEC_H_

#include <algorithm>
#include <utility>
#include <vector>

#include "engine/predicate.h"
#include "engine/scan_range.h"
#include "engine/tuple_block.h"
#include "io/read_options.h"

namespace rodb {

/// What a table scan computes: `select <projection> from T where
/// <predicates>` -- the query template the whole performance study varies
/// (Section 4). Predicate attribute indices refer to the table schema.
///
/// Predicates are a conjunction, evaluated in the given order; the column
/// scanner builds one pipelined scan node per distinct predicate attribute
/// in that order, deepest first ("we push scan nodes that yield few
/// qualifying tuples as deep as possible"), followed by one node per
/// remaining projected column.
struct ScanSpec {
  /// Table attr indices, output order. Scanners need it non-empty;
  /// QueryEngine::Execute reads an empty projection as every attribute.
  std::vector<int> projection;
  std::vector<Predicate> predicates; ///< conjunctive SARGable predicates
  /// How to read: I/O unit size, prefetch depth, checksum verification,
  /// optional block cache. The same struct IoOptions carries, so these
  /// knobs flow to the backend without per-field copying. A stats sink
  /// set here is ignored by scanners (they substitute their own ExecStats
  /// record; see ReadOptions::stats).
  ReadOptions read;
  /// Which slice of the table to scan (page range for row/PAX, position
  /// range for column, default everything); see engine/scan_range.h.
  ScanRange range;
  /// Output tuples per block; must be positive.
  uint32_t block_tuples = kDefaultBlockTuples;
  /// Evaluate =/!= predicates on dictionary columns directly against the
  /// compressed codes, materializing values only for qualifying tuples
  /// that the projection needs ("operating directly on compressed data",
  /// the column-store advantage the paper's conclusion cites). Currently
  /// honored by the pipelined ColumnScanner.
  bool compressed_eval = true;
  /// Run SARGable predicates through the batched scan kernels
  /// (src/kernels/): whole pages are filtered into a selection mask
  /// without materializing values, and later predicates skip masked-out
  /// words entirely. Predicates a codec cannot bind (and pages entered
  /// mid-way by an unaligned morsel) fall back to the scalar path; set
  /// false to force value-at-a-time evaluation everywhere. Dictionary
  /// predicates additionally require `compressed_eval` (the kernel
  /// compares codes, which IS compressed evaluation).
  bool vectorized = true;
  /// Consult the table's zone-map synopsis (storage/synopsis.h) through
  /// engine/zone_pruner.h and skip whole pages -- before their I/O is
  /// ever issued -- whose min/max zones (or dictionary presence bitmaps)
  /// prove no tuple can satisfy the predicate conjunction. Pruned and
  /// unpruned scans return identical tuples; only the I/O and parse
  /// counters shrink, so it is on by default. A predicate-free scan has
  /// nothing to prune with and counts as not requested; tables without a
  /// (valid) synopsis, kCharPack predicate columns and non-uniform page
  /// files decline pruning and scan normally. Runs that reproduce the
  /// paper's engine (which has no zone maps) turn it off.
  bool prune = true;
};

/// The distinct table attributes a column scan must read, in pipeline
/// order: predicate attributes first (in predicate order), then the
/// remaining projected attributes. Also the set of column files the scan
/// opens, which drives the I/O model's stream list.
inline std::vector<size_t> ScanPipelineAttrs(const ScanSpec& spec) {
  // Order-preserving dedup in O(n log n): tag each mention with its
  // first-occurrence index, sort by attribute to find duplicates, keep
  // the earliest mention of each, then restore pipeline order.
  std::vector<std::pair<size_t, size_t>> mentions;  // (attr, position)
  mentions.reserve(spec.predicates.size() + spec.projection.size());
  for (const Predicate& pred : spec.predicates) {
    mentions.emplace_back(static_cast<size_t>(pred.attr_index()),
                          mentions.size());
  }
  for (int attr : spec.projection) {
    mentions.emplace_back(static_cast<size_t>(attr), mentions.size());
  }
  std::sort(mentions.begin(), mentions.end());
  size_t kept = 0;
  for (size_t i = 0; i < mentions.size(); ++i) {
    if (i == 0 || mentions[i].first != mentions[kept - 1].first) {
      mentions[kept++] = mentions[i];
    }
  }
  mentions.resize(kept);
  std::sort(mentions.begin(), mentions.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  std::vector<size_t> attrs;
  attrs.reserve(mentions.size());
  for (const auto& mention : mentions) attrs.push_back(mention.first);
  return attrs;
}

}  // namespace rodb

#endif  // RODB_ENGINE_SCAN_SPEC_H_
