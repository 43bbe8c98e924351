#ifndef RODB_ENGINE_PAX_SCANNER_H_
#define RODB_ENGINE_PAX_SCANNER_H_

#include <memory>
#include <optional>
#include <vector>

#include "engine/exec_stats.h"
#include "engine/operator.h"
#include "engine/page_source.h"
#include "engine/scan_spec.h"
#include "io/io.h"
#include "storage/catalog.h"
#include "storage/pax_page.h"

namespace rodb {

/// Scans a PAX-layout table: row-store I/O (one file, every page carries
/// whole tuples) with column-store CPU/cache behaviour (per-page
/// minipages; only the minipages of predicate and projected attributes
/// are touched).
///
/// Per page the scan runs in two passes: an evaluation pass streams the
/// predicate attributes' minipages and collects qualifying in-page
/// positions; an emission pass then fetches the projected attributes at
/// those positions (skipping in O(1) for fixed-width codecs, decoding
/// through for FOR-delta). This is the "single-iterator" organization the
/// paper attributes to PAX and MonetDB in Section 4.2.
class PaxScanner final : public Operator {
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
  PaxScanner(const OpenTable* table, ScanSpec spec, IoBackend* backend,
             ExecStats* stats, BlockLayout layout);

  /// Loads the next page, runs the evaluation pass, fills positions_.
  Status AdvancePage();
  /// Binds every predicate node's predicates into packed form for the
  /// current page (FOR re-binds per page). False -> scalar fallback.
  bool BindEvalPreds();
  /// Kernel evaluation pass: per predicate node one masked ScanNext sweep
  /// over its minipage; later nodes skip whole dead mask words. Returns
  /// false (having touched nothing) when kernels cannot run this page.
  bool TryKernelEval();
  void AccountPage();

  const OpenTable* table_;
  ScanSpec spec_;
  ExecStats* stats_;
  TupleBlock block_;
  /// The PAX file's pages: the prune plan's retained runs or the spec's
  /// page range. Each page is parsed once and read by both passes.
  PageSource source_;

  /// Independent codec sets for the two passes (both are stateful).
  std::vector<std::unique_ptr<AttributeCodec>> eval_codecs_;
  std::vector<std::unique_ptr<AttributeCodec>> emit_codecs_;
  std::vector<AttributeCodec*> eval_raw_;
  std::vector<AttributeCodec*> emit_raw_;
  /// Predicates grouped per attribute, in pipeline order.
  std::vector<std::pair<size_t, std::vector<Predicate>>> pred_nodes_;

  std::optional<PaxPageReader> eval_reader_;
  std::optional<PaxPageReader> emit_reader_;
  PaxGeometry geometry_;

  std::vector<uint32_t> positions_;     ///< qualifying in-page positions
  size_t pos_idx_ = 0;
  uint64_t page_start_pos_ = 0;         ///< global row id of page start
  uint32_t page_count_ = 0;
  std::vector<uint64_t> emit_cursor_;   ///< per-attr values consumed (emit)
  std::vector<uint64_t> touched_;       ///< per-attr touched values (page)
  std::vector<uint8_t> value_scratch_;
  bool eof_ = false;
  bool opened_ = false;

  /// Vectorized kernel eval state (ScanSpec::vectorized): the bound packed
  /// predicates per pred node, plus reusable mask/decode scratch.
  bool try_kernel_ = false;
  bool kernel_bind_failed_ = false;
  std::vector<std::vector<kernels::PackedPredicate>> bound_preds_;
  kernels::BitVector page_mask_;
  kernels::BitVector pass_mask_;
  std::vector<uint8_t> batch_scratch_;  ///< FOR-delta minipage decode
};

}  // namespace rodb

#endif  // RODB_ENGINE_PAX_SCANNER_H_
