#ifndef RODB_ENGINE_EARLY_MAT_SCANNER_H_
#define RODB_ENGINE_EARLY_MAT_SCANNER_H_

#include <memory>
#include <optional>
#include <vector>

#include "engine/exec_stats.h"
#include "engine/operator.h"
#include "engine/page_source.h"
#include "engine/scan_spec.h"
#include "io/io.h"
#include "storage/catalog.h"
#include "storage/column_page.h"

namespace rodb {

/// The non-pipelined, single-iterator column scanner the paper sketches
/// in Section 4.2 but does not build: it "fetches disk pages from all
/// scanned columns into memory, then uses memory offsets to access all
/// attributes within the same row, iterating over entire rows, similarly
/// to a row store" (the PAX / MonetDB organization).
///
/// Compared to the pipelined ColumnScanner it trades the per-node
/// {position, value} machinery for row-at-a-time iteration across all
/// column cursors in lockstep: no position-list overhead, but every
/// selected column is streamed and decoded (or skipped value-by-value)
/// for every row, regardless of selectivity. Reads exactly the same
/// files, so I/O behaviour is identical; only the CPU profile differs --
/// which is why it serves as the ablation for the pipelined design
/// (bench/ablation_early_mat).
class EarlyMatColumnScanner final : public Operator {
 public:
  static Result<OperatorPtr> Make(const OpenTable* table, ScanSpec spec,
                                  IoBackend* backend, ExecStats* stats);

  Status Open() override;
  Result<TupleBlock*> Next() override;
  void Close() override;
  const BlockLayout& output_layout() const override {
    return block_.layout();
  }

 private:
  struct Cursor {
    explicit Cursor(PageSource page_source)
        : source(std::move(page_source)) {}

    size_t attr = 0;
    int out_col = -1;                 ///< output block column, or -1
    std::vector<Predicate> preds;
    std::unique_ptr<AttributeCodec> codec;
    CompressionKind kind = CompressionKind::kNone;
    int width = 0;

    /// The cursor's column file: the pages overlapping the scan's
    /// position runs.
    PageSource source;
    std::optional<ColumnPageReader> page;
    uint64_t page_start_pos = 0;  ///< absolute position of first value
    uint64_t consumed_in_page = 0;
    bool eof = false;
  };

  EarlyMatColumnScanner(const OpenTable* table, ScanSpec spec,
                        ExecStats* stats, BlockLayout layout);

  /// Loads the cursor's next non-empty page; sets eof past the last one.
  Status AdvancePage(Cursor& cursor);
  /// Positions the cursor at absolute position `pos` (advancing pages and
  /// skipping within the page as needed).
  Status SeekCursor(Cursor& cursor, uint64_t pos);

  const OpenTable* table_;
  ScanSpec spec_;
  ExecStats* stats_;
  TupleBlock block_;
  std::vector<Cursor> cursors_;
  std::vector<uint8_t> value_scratch_;
  bool opened_ = false;
  /// The positions the lockstep loop visits: the prune plan's surviving
  /// runs, or the single run [0, num_tuples) of an unpruned scan.
  /// Positions outside them are zone-proven to fail a predicate.
  std::vector<Run> runs_;
  size_t run_idx_ = 0;          ///< current run in runs_
  uint64_t next_position_ = 0;  ///< next position to visit
};

}  // namespace rodb

#endif  // RODB_ENGINE_EARLY_MAT_SCANNER_H_
