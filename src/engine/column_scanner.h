#ifndef RODB_ENGINE_COLUMN_SCANNER_H_
#define RODB_ENGINE_COLUMN_SCANNER_H_

#include <memory>
#include <optional>
#include <vector>

#include "engine/exec_stats.h"
#include "engine/operator.h"
#include "compression/dictionary.h"
#include "engine/page_source.h"
#include "engine/scan_spec.h"
#include "io/io.h"
#include "storage/catalog.h"
#include "storage/column_page.h"

namespace rodb {

/// Scans a column-layout table with the paper's pipelined scan-node
/// architecture (Section 2.2.2, Figure 4).
///
/// The deepest node reads the first predicate's column and creates
/// {position, value} pairs for qualifying tuples. Each subsequent node is
/// driven by the positions arriving from below: it advances its own column
/// stream to each position (skipping in O(1) for fixed-width codecs,
/// decoding every skipped value for FOR-delta), evaluates its predicates,
/// and either rewrites qualifying tuples into its own block (predicate
/// nodes) or attaches values in place (projection-only nodes). Blocks are
/// reused; no memory is allocated during execution.
class ColumnScanner final : public Operator {
 public:
  /// `table`, `backend`, `stats` are borrowed and must outlive the scanner.
  static Result<OperatorPtr> Make(const OpenTable* table, ScanSpec spec,
                                  IoBackend* backend, ExecStats* stats);

  Status Open() override;
  Result<TupleBlock*> Next() override;
  void Close() override;
  const BlockLayout& output_layout() const override { return layout_; }

  /// Number of pipelined scan nodes (== column files read by this query).
  size_t num_nodes() const { return nodes_.size(); }

 private:
  struct Node {
    explicit Node(PageSource page_source) : source(std::move(page_source)) {}

    size_t attr = 0;                  ///< table attribute index
    int out_col = -1;                 ///< column in the output block, or -1
    std::vector<Predicate> preds;     ///< predicates evaluated at this node
    std::unique_ptr<AttributeCodec> codec;
    CompressionKind codec_kind = CompressionKind::kNone;
    int value_width = 0;

    /// The node's column file: the prune plan's retained runs for it or
    /// the pages the spec's position range covers.
    PageSource source;
    std::optional<ColumnPageReader> page;
    uint64_t page_start_pos = 0;  ///< absolute index of first value in page
    uint64_t consumed_in_page = 0;
    uint64_t touched_in_page = 0;
    bool eof = false;

    /// This node's slice of the scan's prune plan (null when pruning is
    /// inactive): ProcessNode zone-rejects positions outside
    /// prune->accept without touching the stream.
    const NodePrunePlan* prune = nullptr;

    /// Compressed-eval fast path: =/!= predicates on dictionary columns
    /// compare codes and materialize values only when needed.
    struct CodePred {
      bool negate = false;     ///< true for !=
      bool matchable = false;  ///< operand exists in the dictionary
      uint32_t code = 0;
    };
    std::vector<CodePred> code_preds;
    bool use_codes = false;
    const Dictionary* dict = nullptr;

    /// Vectorized kernel state (ScanSpec::vectorized, base node only):
    /// the page's selection mask, computed with one ScanBatch pass per
    /// predicate and consumed incrementally as output blocks fill.
    bool try_kernel = false;
    std::vector<kernels::PackedPredicate> packed_preds;
    kernels::BitVector page_mask;
    kernels::BitVector pass_mask;  ///< scratch for 2nd..nth predicate
    bool mask_valid = false;
    uint64_t mask_limit = 0;       ///< values covered by the mask
    uint64_t mask_next = 0;        ///< next in-page index to deliver
    /// FOR-delta only: the page decoded once up front (DecodeBatch), so
    /// the mask pass compares plain keys and emission is a memcpy.
    std::vector<uint8_t> batch_scratch;

    /// Output block for predicate nodes and the deepest node; projection-
    /// only nodes fill the incoming block in place.
    std::unique_ptr<TupleBlock> out_block;
    /// Bytes of each tuple filled once this node has run (for copy-cost
    /// accounting).
    int filled_bytes = 0;
  };

  ColumnScanner(const OpenTable* table, ScanSpec spec, ExecStats* stats,
                BlockLayout layout);

  /// Finishes memory accounting for the node's current page and loads the
  /// next one. Sets node.eof past the last page.
  Status AdvanceNodePage(Node& node);
  void AccountPage(Node& node);
  /// Positions the node's column stream just before `pos`.
  Status SeekTo(Node& node, uint64_t pos);
  /// Positions the node's column stream at `pos` and decodes that value.
  Status FetchValueAt(Node& node, uint64_t pos, uint8_t* out);
  /// Same, but reads only the dictionary code (use_codes nodes).
  Status FetchCodeAt(Node& node, uint64_t pos, uint32_t* code);
  /// Evaluates a node's code predicates against `code`.
  bool EvalCodePreds(const Node& node, uint32_t code);

  /// Evaluates the node's packed predicates over the freshly opened page
  /// into node.page_mask; leaves the page reader rewound to value 0.
  void BuildPageMask(Node& node);
  /// Copies mask survivors into `out` until the block fills or the mask
  /// is exhausted, decoding only projected survivors.
  void EmitFromMask(Node& node, TupleBlock& out);

  /// Runs the deepest node: fills its out_block with qualifying
  /// {position, value} pairs.
  Status ProduceBase(Node& node);
  /// Runs an inner node over `in`; returns the block flowing upward.
  Result<TupleBlock*> ProcessNode(Node& node, TupleBlock* in);

  const OpenTable* table_;
  ScanSpec spec_;
  ExecStats* stats_;
  BlockLayout layout_;
  std::vector<Node> nodes_;
  std::vector<uint8_t> value_scratch_;
  bool opened_ = false;
  bool done_ = false;
  /// Scan stops at this absolute position (set from the spec's position
  /// range in Open). A range that ends at the table's end (a whole-table
  /// scan included) is bounded by the driving file's end instead, where
  /// its PageSource checks the file ends at the catalog's num_tuples.
  uint64_t end_row_ = UINT64_MAX;
  /// Whether the deepest node has skipped ahead to spec_.range.first_row().
  bool base_positioned_ = false;
  /// Zone-map prune plan; nodes_[k].prune points into plan_.nodes when
  /// active.
  PrunePlan plan_;
};

}  // namespace rodb

#endif  // RODB_ENGINE_COLUMN_SCANNER_H_
