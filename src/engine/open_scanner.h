#ifndef RODB_ENGINE_OPEN_SCANNER_H_
#define RODB_ENGINE_OPEN_SCANNER_H_

#include "engine/exec_stats.h"
#include "engine/operator.h"
#include "engine/scan_spec.h"
#include "io/io.h"
#include "storage/catalog.h"

namespace rodb {

/// Which scanner implementation OpenScanner picks.
enum class ScannerImpl {
  /// The layout's natural scanner: RowScanner, pipelined ColumnScanner,
  /// or PaxScanner (the configurations the paper benchmarks).
  kAuto,
  /// The early-materialized (single-iterator, non-pipelined) column
  /// scanner -- the Section 4.2 ablation. Column tables only.
  kEarlyMat,
};

/// The one place a ScanSpec meets a physical table: picks the scanner
/// matching the catalog layout, validates the spec against it, and wires
/// the block cache when the spec carries one. Every scan in the system
/// -- QueryEngine's plans, morsel workers, shared scans, the fuzz
/// harness, benches, rodbctl -- goes through here instead of hand-wiring
/// per-layout constructors; operators stack above it through their Make.
///
/// `table`, `backend` and `stats` are borrowed and must outlive the
/// returned operator.
Result<OperatorPtr> OpenScanner(const OpenTable& table, ScanSpec spec,
                                IoBackend* backend, ExecStats* stats,
                                ScannerImpl impl = ScannerImpl::kAuto);

}  // namespace rodb

#endif  // RODB_ENGINE_OPEN_SCANNER_H_
