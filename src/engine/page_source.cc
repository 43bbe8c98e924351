#include "engine/page_source.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/bytes.h"
#include "common/macros.h"
#include "io/block_cache.h"
#include "io/retry_backend.h"
#include "obs/span.h"

namespace rodb {

Status ValidateScanSpec(const OpenTable* table, const ScanSpec& spec,
                        Layout layout, const IoBackend* backend,
                        const ExecStats* stats) {
  if (table == nullptr || backend == nullptr || stats == nullptr) {
    return Status::InvalidArgument("scanner: null dependency");
  }
  const TableMeta& meta = table->meta();
  if (meta.layout != layout) {
    return Status::InvalidArgument("scanner requires a " +
                                   std::string(LayoutName(layout)) +
                                   "-layout table");
  }
  RODB_RETURN_IF_ERROR(ValidateScanAttrs(table->schema(), spec));
  if (spec.read.io_unit_bytes % meta.page_size != 0) {
    return Status::InvalidArgument(
        "I/O unit must be a multiple of the page size");
  }
  RODB_RETURN_IF_ERROR(spec.range.Validate(layout));
  if (layout == Layout::kColumn && !spec.range.is_all()) {
    // Codecs can end pages early; the bulk loader records whether they
    // did, and a position range needs every involved file uniform.
    for (size_t attr : ScanPipelineAttrs(spec)) {
      if (meta.PageValues(attr) == 0) {
        return Status::NotSupported(
            "position-range scan needs uniform page value counts "
            "(attribute " + std::to_string(attr) + " is non-uniform)");
      }
    }
  }
  return Status::OK();
}

Status ValidateScanAttrs(const Schema& schema, const ScanSpec& spec) {
  const size_t num_attrs = schema.num_attributes();
  if (spec.projection.empty()) {
    return Status::InvalidArgument("scan projection must not be empty");
  }
  for (int attr : spec.projection) {
    if (attr < 0 || static_cast<size_t>(attr) >= num_attrs) {
      return Status::OutOfRange("projection attribute out of range");
    }
  }
  for (const Predicate& pred : spec.predicates) {
    if (pred.attr_index() < 0 ||
        static_cast<size_t>(pred.attr_index()) >= num_attrs) {
      return Status::OutOfRange("predicate attribute out of range");
    }
  }
  if (spec.block_tuples == 0) {
    return Status::InvalidArgument("block_tuples must be positive");
  }
  return Status::OK();
}

PageSource::PageSource(const OpenTable* table, size_t file,
                       const ScanSpec& spec, IoBackend* backend,
                       ExecStats* stats)
    : table_(table), file_(file), range_(spec.range), stats_(stats),
      backend_(backend), page_size_(table->meta().page_size) {
  const QueryContext* ctx = stats->context();
  if (ctx != nullptr && ctx->retry_policy().enabled()) {
    owned_backends_.push_back(std::make_unique<RetryingBackend>(
        backend_, ctx->retry_policy(), ctx->MakeAliveCheck()));
    backend_ = owned_backends_.back().get();
  }
  if (spec.read.cache != nullptr) {
    owned_backends_.push_back(
        std::make_unique<CachingBackend>(backend_, spec.read.cache));
    backend_ = owned_backends_.back().get();
  }
  // The spec's ReadOptions with the stats sink swapped for this scan's
  // own ExecStats record (the IoStats single-writer contract; see
  // io/io.h), the per-query trace threaded through for decorator spans
  // (io.retry), and the file identity filled in for cache keying.
  options_.read = spec.read;
  options_.read.stats = stats->io_stats();
  options_.read.trace = stats->trace();
  options_.file_id = table->FileId(file);
}

Status PageSource::Open(const std::vector<Run>* retained) {
  const TableMeta& meta = table_->meta();
  if (retained != nullptr) {
    pruned_ = true;
    runs_ = ByteRunsForPages(*retained, page_size_, table_->FileBytes(file_));
    expected_pages_ = TotalRunLength(*retained);
    return Status::OK();
  }
  const uint64_t file_pages =
      file_ < meta.file_pages.size() ? meta.file_pages[file_] : 0;
  uint64_t first_page = range_.first_page();
  uint64_t num_pages = range_.num_pages();  // UINT64_MAX: to end of file
  // Whether the range ends at the table's end: a whole-table scan, a
  // position range reaching num_tuples, or a page range reaching the
  // file's last page.
  bool to_end = range_.is_all() ||
                (first_page < file_pages &&
                 num_pages >= file_pages - first_page);
  if (range_.unit == ScanRange::Unit::kRows) {
    // A position range maps onto this file's own pages (files disagree on
    // values per page across codecs); ValidateScanSpec ensured uniform
    // pages, and the column scanner never opens an empty range.
    const uint64_t total = meta.num_tuples;
    const uint64_t start = std::min(range_.first_row(), total);
    const uint64_t end = range_.num_rows() >= total - start
                             ? total
                             : start + range_.num_rows();
    to_end = end == total;
    if (start > 0 || end < total) {
      const uint64_t vpp = meta.PageValues(file_);
      first_page = start / vpp;
      // A range that ends at the table's end reads through the file's
      // last page as the catalog records it, so values stored past
      // num_tuples reach the completeness rule.
      const uint64_t end_page = to_end ? file_pages : (end - 1) / vpp + 1;
      num_pages = end_page > first_page ? end_page - first_page : 0;
    }
  }
  expected_pages_ = std::min(
      num_pages, first_page < file_pages ? file_pages - first_page : 0);
  // Absolute positions when the page->tuple mapping is known; otherwise
  // (non-uniform pages) morsel-local ones, which never feed the output
  // checksum.
  next_pos_ = first_page * meta.PageValues(file_);
  // A range that ends at the table's end is checked like a whole-table
  // scan (the one that starts at position 0): its file must end at
  // position num_tuples, which needs the range's first position.
  check_end_ = to_end && (first_page == 0 || meta.PageValues(file_) != 0);
  first_range_pos_ = next_pos_;
  runs_ = {ByteRun{first_page * page_size_,
                   num_pages == UINT64_MAX ? UINT64_MAX
                                           : num_pages * page_size_}};
  return OpenNextRun();
}

Status PageSource::OpenNextRun() {
  IoOptions options = options_;
  options.start_offset = runs_[next_run_].offset;
  options.length = runs_[next_run_].length;
  const std::string path = table_->FilePath(file_);
  RODB_ASSIGN_OR_RETURN(std::unique_ptr<SequentialStream> stream,
                        backend_->OpenStream(path, options));
  // A file of another size than the catalog records holds bytes the
  // catalog does not account for, or lost some; a scan that stops short
  // of the end (or drops a tail shorter than a page) would miss either.
  if (stream->file_size() != table_->FileBytes(file_)) {
    return Status::Corruption(path + ": size " +
                              std::to_string(stream->file_size()) +
                              " != catalog " +
                              std::to_string(table_->FileBytes(file_)));
  }
  stream_ = std::move(stream);
  ++next_run_;
  return Status::OK();
}

Result<IoView> PageSource::NextView() {
  while (true) {
    if (stream_ == nullptr) {
      if (next_run_ >= runs_.size()) return IoView{};
      RODB_RETURN_IF_ERROR(OpenNextRun());
    }
    RODB_ASSIGN_OR_RETURN(IoView view, stream_->Next());
    // A retained run's stream is dropped at its end; the range stream
    // stays open (and keeps answering end-of-file) until Close().
    if (view.size > 0 || !pruned_) return view;
    stream_.reset();
  }
}

Result<const PageView*> PageSource::Next() {
  // Page-boundary liveness check: a cancelled or expired query stops
  // within one page's worth of work.
  RODB_RETURN_IF_ERROR(stats_->CheckAlive());
  if (page_in_view_ >= pages_in_view_) {
    {
      obs::SpanTimer io_span(stats_->trace(), obs::TracePhase::kIo);
      RODB_ASSIGN_OR_RETURN(view_, NextView());
    }
    if (view_.size == 0) {
      RODB_RETURN_IF_ERROR(CheckComplete());
      return static_cast<const PageView*>(nullptr);
    }
    pages_in_view_ = view_.size / page_size_;
    page_in_view_ = 0;
    if (pages_in_view_ == 0) {
      return Status::Corruption("I/O unit smaller than one page");
    }
  }
  const uint64_t page_index = view_.file_offset / page_size_ + page_in_view_;
  first_pos_ = pruned_ ? page_index * table_->meta().PageValues(file_)
                       : next_pos_;
  const uint8_t* data = view_.data + page_in_view_ * page_size_;
  ++page_in_view_;
  Result<PageView> page =
      PageView::Parse(data, page_size_, options_.read.verify_checksums);
  if (!page.ok()) {
    return Status(page.status().code(),
                  table_->FilePath(file_) + " page " +
                      std::to_string(page_index) + ": " +
                      page.status().message());
  }
  page_.emplace(*page);
  stats_->counters().pages_parsed += 1;
  pages_ += 1;
  values_ += page->count();
  next_pos_ = first_pos_ + page->count();
  return &*page_;
}

Status PageSource::Finish() {
  while (true) {
    RODB_ASSIGN_OR_RETURN(const PageView* page, Next());
    if (page == nullptr) return Status::OK();
  }
}

Status PageSource::CheckComplete() const {
  if (pages_ != expected_pages_) {
    return Status::Corruption(
        table_->FilePath(file_) + ": read " + std::to_string(pages_) +
        " pages, expected " + std::to_string(expected_pages_));
  }
  const uint64_t num_tuples = table_->meta().num_tuples;
  if (check_end_ && first_range_pos_ + values_ != num_tuples) {
    return Status::Corruption(
        table_->FilePath(file_) + " holds " +
        std::to_string(first_range_pos_ + values_) +
        " values but the catalog claims " + std::to_string(num_tuples));
  }
  return Status::OK();
}

bool BindPackedPredicates(const AttributeCodec& codec,
                          const std::vector<Predicate>& preds,
                          std::vector<kernels::PackedPredicate>* packed) {
  if (!packed->empty() && codec.kind() != CompressionKind::kFor) return true;
  packed->clear();
  packed->reserve(preds.size());
  for (const Predicate& pred : preds) {
    kernels::PackedPredicate bound;
    bool ok;
    if (pred.is_text()) {
      ok = codec.BindPredicate(
          pred.op(),
          reinterpret_cast<const uint8_t*>(pred.text_operand().data()),
          pred.text_operand().size(), /*is_text=*/true, &bound);
    } else {
      uint8_t operand[4];
      StoreLE32s(operand, pred.int_operand());
      ok = codec.BindPredicate(pred.op(), operand, sizeof(operand),
                               /*is_text=*/false, &bound);
    }
    if (!ok) {
      packed->clear();
      return false;
    }
    packed->push_back(std::move(bound));
  }
  return true;
}

void AccountTouchedLines(ExecStats* stats, uint64_t bytes, uint64_t touched,
                         uint32_t count) {
  const double lines = std::max(1.0, static_cast<double>(bytes) / 128.0);
  const double t =
      std::min(1.0, static_cast<double>(touched) / static_cast<double>(count));
  const double values_per_line = static_cast<double>(count) / lines;
  const double touched_lines =
      lines * (1.0 - std::pow(1.0 - t, values_per_line));
  if (touched_lines >= 0.5 * lines) {
    stats->AddSequentialBytes(bytes);
  } else {
    stats->AddRandomTouches(static_cast<uint64_t>(touched_lines));
  }
}

}  // namespace rodb
