// Quickstart: define a schema, bulk-load a table in both physical
// layouts, and run the same scan query against each.
//
//   build/examples/quickstart [directory]
//
// Covers the core public API: Schema / TableWriter / Database::Execute
// with a QueryRequest.

#include <cstdio>
#include <filesystem>

#include "common/macros.h"
#include "common/bytes.h"
#include "server/query_engine.h"
#include "storage/database.h"
#include "storage/table_files.h"

using namespace rodb;  // NOLINT

namespace {

Status Run(const std::string& dir) {
  // 1. A schema: fixed-width attributes, optionally with light-weight
  //    compression per attribute.
  RODB_ASSIGN_OR_RETURN(
      Schema schema,
      Schema::Make({
          AttributeDesc::Int32("sale_id", CodecSpec::ForDelta(8)),
          AttributeDesc::Int32("amount"),
          AttributeDesc::Text("region", 8, CodecSpec::Dict(3)),
      }));
  std::printf("schema: %d attributes, %d bytes per raw tuple\n",
              static_cast<int>(schema.num_attributes()),
              schema.raw_tuple_width());

  // 2. Bulk-load the same data as a row table and as a column table.
  const char* regions[] = {"north   ", "south   ", "east    ", "west    "};
  for (Layout layout : {Layout::kRow, Layout::kColumn}) {
    const std::string name =
        layout == Layout::kRow ? "sales_row" : "sales_col";
    RODB_ASSIGN_OR_RETURN(auto writer,
                          TableWriter::Create(dir, name, schema, layout));
    uint8_t tuple[16];
    for (int i = 0; i < 100000; ++i) {
      StoreLE32s(tuple, 1000 + i);               // sorted: FOR-delta friendly
      StoreLE32s(tuple + 4, (i * 7919) % 500);   // pseudo-random amount
      std::memcpy(tuple + 8, regions[i % 4], 8);
      RODB_RETURN_IF_ERROR(writer->Append(tuple));
    }
    RODB_RETURN_IF_ERROR(writer->Finish());
    RODB_ASSIGN_OR_RETURN(OpenTable table, OpenTable::Open(dir, name));
    std::printf("loaded %-9s: %llu tuples, %llu bytes on disk\n",
                name.c_str(),
                static_cast<unsigned long long>(table.meta().num_tuples),
                static_cast<unsigned long long>(table.meta().TotalBytes()));
  }

  // 3. The same query against both layouts:
  //      select sale_id, amount from sales where amount < 50
  //    Database::Execute picks the scanner matching each table's layout,
  //    and the engine's shared BlockCache turns the second (warm) run of
  //    each scan into memory traffic instead of backend reads.
  RODB_ASSIGN_OR_RETURN(Database db, Database::Open(dir));
  EngineOptions engine_options;
  engine_options.cache_bytes = 64 << 20;
  db.ConfigureEngine(engine_options);
  QueryRequest query;
  query.scan.projection = {0, 1};
  query.scan.predicates = {Predicate::Int32(1, CompareOp::kLt, 50)};
  // Exclusive mode = one private scan per query, so the per-query I/O
  // counters below show the cold/warm cache difference. (The default
  // kAuto would join the table's shared circulating scan, whose I/O is
  // reported on rodb.server.* metrics instead.)
  query.mode = QueryMode::kExclusive;
  for (const char* name : {"sales_row", "sales_col"}) {
    query.table = name;
    for (const char* pass : {"cold", "warm"}) {
      RODB_ASSIGN_OR_RETURN(QueryResult result, db.Execute(query));
      std::printf("%-9s %-4s: %llu qualifying tuples, %.1f MB from disk, "
                  "%.1f MB from cache, checksum %016llx\n",
                  name, pass, static_cast<unsigned long long>(result.rows),
                  static_cast<double>(result.counters.io_bytes_read) / 1e6,
                  static_cast<double>(
                      result.counters.io_bytes_from_cache) / 1e6,
                  static_cast<unsigned long long>(result.output_checksum));
    }
  }
  std::printf("\nnote the column scan read only the two selected columns, "
              "the warm runs read nothing from disk, and identical "
              "checksums mean identical results (cache hit rate %.0f%%).\n",
              db.engine()->cache()->stats().hit_rate() * 100);
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  std::string dir = argc > 1 ? argv[1] : "quickstart_data";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const Status status = Run(dir);
  if (!status.ok()) {
    std::fprintf(stderr, "quickstart failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  return 0;
}
