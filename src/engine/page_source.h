#ifndef RODB_ENGINE_PAGE_SOURCE_H_
#define RODB_ENGINE_PAGE_SOURCE_H_

#include <memory>
#include <optional>
#include <vector>

#include "engine/exec_stats.h"
#include "engine/predicate.h"
#include "engine/scan_spec.h"
#include "engine/zone_pruner.h"
#include "io/io.h"
#include "storage/catalog.h"
#include "storage/page.h"

namespace rodb {

/// The one check every scanner's Make runs before building anything:
/// dependencies present, `table` stored in `layout`, ValidateScanAttrs,
/// an I/O unit of whole pages, and a range the layout can partition by
/// (column position ranges also need uniform pages in every file the
/// pipeline reads, so each node can map positions to pages in O(1)).
Status ValidateScanSpec(const OpenTable* table, const ScanSpec& spec,
                        Layout layout, const IoBackend* backend,
                        const ExecStats* stats);

/// What a spec must satisfy against any table of `schema`: a non-empty
/// projection and a positive block size (else InvalidArgument), and
/// projection and predicate attributes inside the schema (else
/// OutOfRange). QueryEngine applies it to every request before choosing
/// a mode, so all modes fail a bad request with the same status.
Status ValidateScanAttrs(const Schema& schema, const ScanSpec& spec);

/// The scan core under all four scanners: one file of one scan, read the
/// way the paper reads every file (Section 2.2.2-2.2.3) -- fixed I/O
/// units of dense pages, prefetched ahead of the consumer -- and handed
/// out as a sequence of parsed pages, each with the absolute position of
/// its first value. The scanners differ only in the CPU work they do per
/// page; everything about reading lives here:
///  - the per-query backend stack: engine -> Caching -> Retrying ->
///    inner. Transient failures are retried below the cache (a miss that
///    recovers fills the cache normally; hits never pay retry
///    bookkeeping), and the retry loop observes the query's cancellation
///    and deadline through the context's AliveCheck;
///  - which pages to fetch: a prune node's retained runs (one stream per
///    run, opened lazily on first demand -- a FileBackend stream longer
///    than one I/O unit holds a ring and a prefetch thread, so eagerly
///    opening many runs would hold them all at once) or the pages the
///    spec's range covers (one stream, opened by Open());
///  - the page-boundary liveness check and the `io` span around each
///    stream read;
///  - cutting I/O units into pages (a unit shorter than one page is
///    Corruption) and parsing each page exactly once, honouring
///    ReadOptions::verify_checksums; a parse failure names the file and
///    the page's index in it; pages_parsed is counted here;
///  - the size check, applied when each stream opens: the file must be
///    exactly the bytes the catalog records, so a tail the scan would
///    never reach (bytes past the last page, or pages past the end an
///    early-stopping consumer needs) fails instead of going unread;
///  - the completeness rule, applied when the stream ends: every
///    expected page must have arrived, and when the range ends at the
///    table's end (a whole-table scan, or a morsel's last range) the
///    file must end at position num_tuples -- the range's first
///    position plus the values read. A file truncated underneath the
///    scan, or a catalog that lies about the cardinality, fails instead
///    of returning a short or long answer.
///
/// Called once per page: per-value work (seeks, decodes, predicate
/// evaluation) stays in the scanners.
class PageSource {
 public:
  /// Reads file `file` of `table` (the attribute index for the column
  /// layout, 0 for the single row/PAX file) under `spec`'s read options
  /// and range. All pointers are borrowed and must outlive the source.
  PageSource(const OpenTable* table, size_t file, const ScanSpec& spec,
             IoBackend* backend, ExecStats* stats);

  /// Starts the source on `retained` -- a prune plan's page runs for this
  /// file -- or, when null, on the pages the spec's range covers.
  Status Open(const std::vector<Run>* retained);

  /// The next page, or nullptr once the stream has ended and passed the
  /// completeness rule (asked again, it re-reads the end and re-checks).
  /// The view stays valid until the next call.
  Result<const PageView*> Next();
  /// Absolute position of the first value of the page Next() returned.
  /// Retained runs recover it from the page's file offset (the stream
  /// has gaps); a contiguous range counts forward from its first page.
  uint64_t first_pos() const { return first_pos_; }

  /// For consumers whose own bound stopped them before the stream ended:
  /// reads on to the end and applies the completeness rule, so pages
  /// past what the consumer needed still fail a whole-table scan.
  Status Finish();
  /// Releases the stream (and any block-cache pin it holds).
  void Close() { stream_.reset(); }

 private:
  /// Opens a stream over runs_[next_run_].
  Status OpenNextRun();
  /// Next I/O unit across the runs, opening each on first demand.
  Result<IoView> NextView();
  Status CheckComplete() const;

  const OpenTable* table_;
  size_t file_;
  ScanRange range_;
  ExecStats* stats_;
  IoBackend* backend_;
  /// Decorators of the backend stack, owned for the source's lifetime.
  std::vector<std::unique_ptr<IoBackend>> owned_backends_;
  IoOptions options_;
  size_t page_size_;

  std::vector<ByteRun> runs_;
  size_t next_run_ = 0;
  bool pruned_ = false;
  std::unique_ptr<SequentialStream> stream_;
  IoView view_{};
  size_t page_in_view_ = 0;
  size_t pages_in_view_ = 0;
  std::optional<PageView> page_;
  uint64_t first_pos_ = 0;
  uint64_t next_pos_ = 0;

  /// Completeness bookkeeping: what arrived vs what the catalog promised.
  uint64_t pages_ = 0;
  uint64_t values_ = 0;
  uint64_t expected_pages_ = 0;
  /// Set when the range ends at the table's end: the file must then end
  /// at position num_tuples, first_range_pos_ + values_.
  bool check_end_ = false;
  uint64_t first_range_pos_ = 0;
};

// --- Per-page helpers shared by the scanners ------------------------------

/// Counts `n` decoded values of a `kind` column into the matching
/// values_decoded_* counter (kNone decodes nothing). Inline: the scanners
/// call it once per decoded value.
inline void CountDecode(ExecCounters* c, CompressionKind kind, uint64_t n) {
  switch (kind) {
    case CompressionKind::kBitPack:
      c->values_decoded_bitpack += n;
      break;
    case CompressionKind::kDict:
    case CompressionKind::kCharPack:
      c->values_decoded_dict += n;
      break;
    case CompressionKind::kFor:
      c->values_decoded_for += n;
      break;
    case CompressionKind::kForDelta:
      c->values_decoded_fordelta += n;
      break;
    case CompressionKind::kNone:
      break;
  }
}

/// Binds `preds` into packed kernel form through `codec` for the page it
/// currently decodes. Binding is page-invariant except for FOR, whose
/// key domain shifts with the per-page base, so a non-empty `packed` list
/// is kept unless the codec is FOR. Returns false (leaving `packed`
/// empty) when a predicate cannot run packed; bindability does not
/// depend on the page, so callers stop probing after that.
bool BindPackedPredicates(const AttributeCodec& codec,
                          const std::vector<Predicate>& preds,
                          std::vector<kernels::PackedPredicate>* packed);

/// Memory accounting for one page or minipage of `bytes` holding `count`
/// values of which `touched` were read, at cache-line granularity
/// (DESIGN.md substitution #2): with v values per 128-byte line,
/// touching a fraction t of the values touches ~1-(1-t)^v of the lines.
/// When most lines are touched the hardware prefetcher sees a dense
/// sequential pattern and the bytes stream; otherwise each touched line
/// is a random miss.
void AccountTouchedLines(ExecStats* stats, uint64_t bytes, uint64_t touched,
                         uint32_t count);

}  // namespace rodb

#endif  // RODB_ENGINE_PAGE_SOURCE_H_
