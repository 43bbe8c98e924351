// The write path of Figure 1: writes land in the write-optimized store
// and periodically merge -- in bulk, sorted on the clustering key -- into
// a fresh read-optimized generation, which the ordinary scanners then
// serve. Each wave goes through Database::Ingest, is frozen into a
// sorted segment, and is merged into the next generation.
//
//   build/examples/bulk_load_pipeline [directory]

#include <cstdio>
#include <filesystem>

#include "common/bytes.h"
#include "common/macros.h"
#include "server/query_engine.h"
#include "storage/database.h"
#include "wos/ingest_store.h"
#include "wos/manifest.h"

using namespace rodb;  // NOLINT

namespace {

constexpr char kTable[] = "events";
constexpr int32_t kWaveTuples = 10000;

Status Run(const std::string& dir) {
  RODB_ASSIGN_OR_RETURN(
      Schema schema,
      Schema::Make({
          AttributeDesc::Int32("event_id", CodecSpec::ForDelta(16)),
          AttributeDesc::Int32("amount", CodecSpec::BitPack(10)),
      }));
  // Every run starts the table over: without its manifest, the ingest
  // store sweeps the previous run's generations as crash leftovers.
  if (IngestManifestExists(dir, kTable)) {
    RODB_RETURN_IF_ERROR(RemoveIngestManifest(dir, kTable));
  }
  RODB_ASSIGN_OR_RETURN(Database db, Database::Open(dir));

  // Three load waves; each arrives unsorted and merges into a new
  // generation of the read store.
  int32_t next_id = 1;
  for (int wave = 1; wave <= 3; ++wave) {
    IngestRequest request;
    request.table = kTable;
    schema.AppendTo(&request.schema_text);
    request.layout = Layout::kColumn;
    request.sort_attr = 0;
    request.freeze = true;
    request.count = kWaveTuples;
    request.data.resize(static_cast<size_t>(kWaveTuples) * 8);
    // Events of this wave arrive shuffled.
    uint8_t* tuple = request.data.data();
    for (int32_t i = kWaveTuples - 1; i >= 0; --i, tuple += 8) {
      StoreLE32s(tuple, next_id + i);
      StoreLE32s(tuple + 4, (next_id + i) % 1000);
    }
    next_id += kWaveTuples;
    RODB_ASSIGN_OR_RETURN(IngestResult ingested, db.Ingest(request));
    std::printf("wave %d: %llu tuples appended so far, %llu frozen segment\n",
                wave, static_cast<unsigned long long>(ingested.appended_total),
                static_cast<unsigned long long>(ingested.frozen_segments));
    std::shared_ptr<IngestStore> store = db.ingest(kTable);
    RODB_RETURN_IF_ERROR(store->Merge());
    const Snapshot snapshot = store->Acquire();
    const TableMeta& merged = snapshot.ros()->meta();
    std::printf("  merged into %s: %llu tuples, %llu bytes on disk\n",
                merged.name.c_str(),
                static_cast<unsigned long long>(merged.num_tuples),
                static_cast<unsigned long long>(merged.TotalBytes()));
  }

  // Query the table through the ordinary read path.
  QueryRequest query;
  query.table = kTable;
  query.scan.projection = {0, 1};
  query.scan.predicates = {Predicate::Int32(1, CompareOp::kLt, 10)};
  RODB_ASSIGN_OR_RETURN(QueryResult result, db.Execute(query));
  std::printf("\nscan of %s: %llu of %llu tuples qualify (amount < 10)\n",
              kTable, static_cast<unsigned long long>(result.rows),
              static_cast<unsigned long long>(result.snapshot_tuples));
  // Verify clustering survived the merges: in table order the ids must
  // be sorted.
  QueryRequest ids;
  ids.table = kTable;
  ids.scan.projection = {0};
  ids.ordered = true;
  ids.collect_rows = true;
  RODB_ASSIGN_OR_RETURN(QueryResult all, db.Execute(ids));
  int32_t prev = 0;
  for (uint64_t i = 0; i < all.rows_collected; ++i) {
    const int32_t id = LoadLE32s(all.collected_tuple(i));
    if (id < prev) return Status::Internal("clustering violated");
    prev = id;
  }
  if (all.rows_collected != static_cast<uint64_t>(next_id - 1)) {
    return Status::Internal("merged generation lost tuples");
  }
  std::printf("clustering key verified sorted across all %llu tuples.\n",
              static_cast<unsigned long long>(all.rows_collected));
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string dir = argc > 1 ? argv[1] : "bulk_load_data";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const Status status = Run(dir);
  if (!status.ok()) {
    std::fprintf(stderr, "bulk_load_pipeline failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  return 0;
}
