#include "server/query_request.h"

#include <limits>
#include <utility>

#include "common/macros.h"
#include "engine/executor.h"

namespace rodb {

namespace {

/// Budget step of a collected-row buffer.
constexpr uint64_t kRowReserveStep = 256 * 1024;

/// FNV-1a's 64-bit prime (Fnv1aExtend's multiplier).
constexpr uint64_t kFnv1aPrime = 1099511628211ULL;

}  // namespace

ResultFold::ResultFold(const QueryRequest& request, const QueryContext* ctx,
                       QueryResult* out)
    : ctx_(ctx), out_(out),
      collect_limit_(!request.collect_rows ? 0
                     : request.limit_rows == 0
                         ? std::numeric_limits<uint64_t>::max()
                         : request.limit_rows) {
  out_->output_checksum = kFnv1aSeed;
}

Status ResultFold::Add(const uint8_t* tuples, uint32_t count) {
  const size_t width = static_cast<size_t>(out_->row_layout.tuple_width);
  out_->blocks += 1;
  out_->rows += count;
  // One pass over each tuple's bytes feeds both FNV-1a chains: the
  // block-spanning output_checksum and the tuple's own hash summed into
  // row_digest. The two chains are independent, so they overlap.
  uint64_t checksum = out_->output_checksum;
  uint64_t digest = out_->row_digest;
  for (uint32_t i = 0; i < count; ++i) {
    const uint8_t* tuple = tuples + static_cast<size_t>(i) * width;
    uint64_t row = kFnv1aSeed;
    for (size_t b = 0; b < width; ++b) {
      checksum = (checksum ^ tuple[b]) * kFnv1aPrime;
      row = (row ^ tuple[b]) * kFnv1aPrime;
    }
    digest += row;
  }
  out_->output_checksum = checksum;
  out_->row_digest = digest;
  for (uint32_t i = 0; i < count && out_->rows_collected < collect_limit_;
       ++i) {
    const uint8_t* tuple = tuples + static_cast<size_t>(i) * width;
    if (out_->row_data.size() + width > reserved_bytes_) {
      RODB_ASSIGN_OR_RETURN(MemoryReservation hold,
                            ctx_->ReserveMemory(kRowReserveStep));
      reservations_.push_back(std::move(hold));
      reserved_bytes_ += kRowReserveStep;
    }
    out_->row_data.insert(out_->row_data.end(), tuple, tuple + width);
    ++out_->rows_collected;
  }
  return Status::OK();
}

}  // namespace rodb
