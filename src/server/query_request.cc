#include "server/query_request.h"

#include <limits>
#include <utility>

#include "common/macros.h"
#include "engine/executor.h"

namespace rodb {

namespace {

/// Budget step of a collected-row buffer.
constexpr uint64_t kRowReserveStep = 256 * 1024;

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
  out_->output_checksum = Fnv1aExtend(out_->output_checksum, tuples,
                                      static_cast<size_t>(count) * width);
  for (uint32_t i = 0; i < count; ++i) {
    const uint8_t* tuple = tuples + static_cast<size_t>(i) * width;
    out_->row_digest += Fnv1aExtend(kFnv1aSeed, tuple, width);
    ++out_->rows;
    if (out_->rows_collected >= collect_limit_) continue;
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
