#ifndef RODB_ENGINE_ROW_SCANNER_H_
#define RODB_ENGINE_ROW_SCANNER_H_

#include <memory>
#include <optional>
#include <vector>

#include "engine/exec_stats.h"
#include "engine/operator.h"
#include "engine/page_source.h"
#include "engine/scan_spec.h"
#include "io/io.h"
#include "storage/catalog.h"
#include "storage/row_page.h"

namespace rodb {

/// Scans a row-layout table (Section 2.2.2): iterates over the pages of
/// the single row file, applies the predicates to each tuple, projects the
/// selected attributes into the output block. Reads every byte of the
/// relation regardless of the projection -- the defining property the
/// study contrasts with column scans.
class RowScanner final : public Operator {
 public:
  /// `table`, `backend`, `stats` are borrowed and must outlive the scanner.
  static Result<OperatorPtr> Make(const OpenTable* table, ScanSpec spec,
                                  IoBackend* backend, ExecStats* stats);

  Status Open() override;
  Result<TupleBlock*> Next() override;
  void Close() override;
  const BlockLayout& output_layout() const override {
    return block_.layout();
  }

 private:
  RowScanner(const OpenTable* table, ScanSpec spec, IoBackend* backend,
             ExecStats* stats, BlockLayout layout);

  /// Advances to the next non-empty page. Sets eof_ when done.
  Status AdvancePage();
  /// Processes tuples of the current page into block_ until the block is
  /// full or the page is exhausted.
  void ProcessCurrentPage();

  const OpenTable* table_;
  ScanSpec spec_;
  ExecStats* stats_;
  TupleBlock block_;
  /// The row file's pages: the prune plan's retained runs or the spec's
  /// page range.
  PageSource source_;

  OpenTable::RowCodecBundle codec_bundle_;
  std::optional<RowPageReader> page_;
  uint32_t tuple_in_page_ = 0;
  uint64_t next_position_ = 0;  ///< absolute row id of the next tuple
  bool eof_ = false;
  bool opened_ = false;

  std::vector<uint8_t> scratch_;          ///< decoded tuple (compressed path)
  ExecCounters per_tuple_decode_;         ///< decode counters per tuple
  int projected_bytes_ = 0;               ///< bytes copied per emitted tuple
};

}  // namespace rodb

#endif  // RODB_ENGINE_ROW_SCANNER_H_
