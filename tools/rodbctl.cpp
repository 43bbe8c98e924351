// rodbctl: command-line inspection of a rodb database directory.
//
//   rodbctl tables <dir>
//       list every table in the catalog with layout, cardinality, bytes
//   rodbctl describe <dir> <table>
//       schema, compression specs, per-file page counts
//   rodbctl verify <dir> <table>
//       re-read every page of every file with checksum verification and
//       decode every tuple (one Database::Execute scan, like `scan`)
//   rodbctl scan <dir> <table> [limit [attr op value]] [--trace]
//       print tuples (optionally filtered by one predicate); `op` is one
//       of = != < <= > >=; --trace prints the span tree plus the
//       predicted-vs-measured model comparison. The scan goes through
//       Database::Execute (the same QueryRequest facade the server
//       runs): zone-map pruning, deadlines, retries and the memory
//       budget all map onto request/engine options. --no-prune forces
//       the full scan (output is identical either way).
//   rodbctl query --connect HOST:PORT <table> [limit [attr op value]]
//       run one query against a running rodb_server over the socket
//       protocol. `attr` is a zero-based attribute index (the client
//       has no schema); an integer value makes an int32 predicate,
//       anything else a text predicate. --shared / --exclusive pin the
//       execution mode (default auto = join the circulating scan).
//   rodbctl advise <dir> <table>
//       run the compression advisor over a sample of the stored data
//   rodbctl ingest <dir> <table> [csv] --schema=SPEC [--batch=N] [--rate=N]
//   rodbctl ingest --connect HOST:PORT <table> [csv] --schema=SPEC ...
//       stream CSV rows (file, or stdin when omitted/"-") into a
//       continuous-ingest table, batched and optionally rate-limited,
//       either through the embedded engine or against a running
//       rodb_server over kIngest frames. SPEC is comma-separated
//       name:int32 / name:textN attributes; --freeze-every=N freezes
//       after every Nth batch, --merge triggers a background merge with
//       the final batch.

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "advisor/compression_advisor.h"
#include "common/bytes.h"
#include "common/macros.h"
#include "engine/executor.h"
#include "engine/zone_pruner.h"
#include "io/block_cache.h"
#include "kernels/scan_kernels.h"
#include "obs/model_comparison.h"
#include "obs/scan_physics.h"
#include "obs/span.h"
#include "server/client.h"
#include "server/query_engine.h"
#include "storage/catalog.h"
#include "storage/database.h"
#include "storage/table_files.h"
#include "wos/ingest_store.h"
#include "wos/manifest.h"

using namespace rodb;  // NOLINT

namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "rodbctl: %s\n", status.ToString().c_str());
  return 1;
}

Status CmdTables(const std::string& dir) {
  std::printf("%-24s %-7s %12s %14s %6s\n", "table", "layout", "tuples",
              "bytes", "files");
  std::error_code ec;
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string file = entry.path().filename().string();
    if (file.size() > 5 && file.substr(file.size() - 5) == ".meta") {
      names.push_back(file.substr(0, file.size() - 5));
    }
  }
  if (ec) return Status::IoError("cannot list " + dir);
  std::sort(names.begin(), names.end());
  for (const std::string& name : names) {
    RODB_ASSIGN_OR_RETURN(TableMeta meta, Catalog::LoadTableMeta(dir, name));
    std::printf("%-24s %-7s %12llu %14llu %6zu\n", meta.name.c_str(),
                std::string(LayoutName(meta.layout)).c_str(),
                static_cast<unsigned long long>(meta.num_tuples),
                static_cast<unsigned long long>(meta.TotalBytes()),
                meta.file_pages.size());
  }
  return Status::OK();
}

Status CmdDescribe(const std::string& dir, const std::string& name) {
  RODB_ASSIGN_OR_RETURN(OpenTable table, OpenTable::Open(dir, name));
  const TableMeta& meta = table.meta();
  std::printf("table      : %s\n", meta.name.c_str());
  std::printf("layout     : %s\n", std::string(LayoutName(meta.layout)).c_str());
  std::printf("tuples     : %llu\n",
              static_cast<unsigned long long>(meta.num_tuples));
  std::printf("page size  : %zu\n", meta.page_size);
  std::printf("raw width  : %d bytes/tuple\n",
              meta.schema.raw_tuple_width());
  std::printf("attributes :\n");
  for (size_t a = 0; a < meta.schema.num_attributes(); ++a) {
    const AttributeDesc& attr = meta.schema.attribute(a);
    char codec[64] = "-";
    if (attr.codec.kind != CompressionKind::kNone) {
      std::snprintf(codec, sizeof(codec), "%s:%d%s",
                    std::string(CompressionKindName(attr.codec.kind)).c_str(),
                    attr.codec.bits,
                    attr.codec.kind == CompressionKind::kDict &&
                            table.dict(a) != nullptr
                        ? (" (" + std::to_string(table.dict(a)->size()) +
                           " entries)")
                              .c_str()
                        : "");
    }
    char stats[64] = "";
    if (a < meta.column_stats.size() && meta.column_stats[a].valid) {
      const ColumnStats& s = meta.column_stats[a];
      std::snprintf(stats, sizeof(stats), "  [%d..%d] ndv%s%llu", s.min,
                    s.max, s.ndv > ColumnStats::kNdvCap ? ">" : "=",
                    static_cast<unsigned long long>(
                        std::min<uint64_t>(s.ndv, ColumnStats::kNdvCap)));
    }
    std::printf("  %2zu %-18s %-6s %3dB  %s%s\n", a + 1, attr.name.c_str(),
                std::string(AttrTypeName(attr.type)).c_str(), attr.width,
                codec, stats);
  }
  std::printf("files      :\n");
  const size_t n_files = meta.file_pages.size();
  for (size_t f = 0; f < n_files; ++f) {
    std::printf("  %-40s %8llu pages %12llu bytes\n",
                table.FilePath(n_files == 1 ? 0 : f).c_str(),
                static_cast<unsigned long long>(meta.file_pages[f]),
                static_cast<unsigned long long>(meta.file_bytes[f]));
  }
  return Status::OK();
}

/// The full-table request `scan`, `verify` and `advise` share: every
/// attribute in schema order (a block tuple is the raw tuple), I/O units
/// of 32 pages, and table order, which also runs it exclusive -- a
/// private scan that reads and checks every page itself.
QueryRequest FullTableRequest(const std::string& name, const TableMeta& meta) {
  QueryRequest request;
  request.table = name;
  request.scan.projection.resize(meta.schema.num_attributes());
  std::iota(request.scan.projection.begin(), request.scan.projection.end(),
            0);
  request.scan.read.io_unit_bytes = 32 * meta.page_size;
  request.ordered = true;
  return request;
}

/// Re-reads every page of every file with checksum verification and
/// decodes every tuple through the table's codecs. The scan's size
/// check, per-page parse and completeness rule locate what is wrong.
Status CmdVerify(const std::string& dir, const std::string& name) {
  RODB_ASSIGN_OR_RETURN(Database db, Database::Open(dir));
  RODB_ASSIGN_OR_RETURN(TableMeta meta, db.Meta(name));
  QueryRequest request = FullTableRequest(name, meta);
  request.scan.read.verify_checksums = true;
  RODB_ASSIGN_OR_RETURN(QueryResult result, db.Execute(request));
  std::printf("%s: OK -- %llu pages verified, %llu tuples decoded\n",
              name.c_str(),
              static_cast<unsigned long long>(result.counters.pages_parsed),
              static_cast<unsigned long long>(result.rows));
  return Status::OK();
}

void PrintValue(const AttributeDesc& attr, const uint8_t* value) {
  if (attr.type == AttrType::kInt32) {
    std::printf("%11d", LoadLE32s(value));
    return;
  }
  std::printf("\"%.*s\"", attr.width, reinterpret_cast<const char*>(value));
}

/// Per-scan resilience knobs (see docs/RESILIENCE.md). Zero = off.
struct ResilienceFlags {
  int deadline_ms = 0;
  int max_retries = 0;
  int mem_budget_mb = 0;
};

/// Parses the `attr op value` positional triple into one predicate,
/// resolving `attr` against `schema`.
Result<Predicate> ParsePredicate(const Schema& schema, const char* where_attr,
                                 const char* where_op,
                                 const char* where_value) {
  const int attr = schema.FindAttribute(where_attr);
  if (attr < 0) {
    return Status::NotFound(std::string("no attribute named ") + where_attr);
  }
  CompareOp op;
  const std::string ops = where_op;
  if (ops == "=") {
    op = CompareOp::kEq;
  } else if (ops == "!=") {
    op = CompareOp::kNe;
  } else if (ops == "<") {
    op = CompareOp::kLt;
  } else if (ops == "<=") {
    op = CompareOp::kLe;
  } else if (ops == ">") {
    op = CompareOp::kGt;
  } else if (ops == ">=") {
    op = CompareOp::kGe;
  } else {
    return Status::InvalidArgument("unknown operator " + ops);
  }
  const AttributeDesc& desc = schema.attribute(static_cast<size_t>(attr));
  return desc.type == AttrType::kInt32
             ? Predicate::Int32(attr, op, std::atoi(where_value))
             : Predicate::Text(attr, op, where_value);
}

Status CmdScan(const std::string& dir, const std::string& name,
               uint64_t limit, const char* where_attr, const char* where_op,
               const char* where_value, int cache_mb, bool trace,
               bool no_prune, const ResilienceFlags& resilience) {
  RODB_ASSIGN_OR_RETURN(Database db, Database::Open(dir));
  // An ingest table is a manifest, not a catalog entry; recover its
  // schema from a persisted part (the manifest stores names only) and
  // attach the lifecycle so Execute reads an epoch-pinned snapshot.
  const bool is_ingest = IngestManifestExists(dir, name);
  TableMeta meta;
  if (is_ingest) {
    RODB_ASSIGN_OR_RETURN(IngestManifest manifest,
                          LoadIngestManifest(dir, name));
    const std::string source = !manifest.ros_table.empty()
                                   ? manifest.ros_table
                                   : (!manifest.frozen.empty()
                                          ? manifest.frozen.front()
                                          : "");
    if (source.empty()) {
      return Status::NotFound("ingest table '" + name +
                              "' has no persisted segments yet");
    }
    RODB_ASSIGN_OR_RETURN(meta, db.Meta(source));
  } else {
    RODB_ASSIGN_OR_RETURN(meta, db.Meta(name));
  }
  const Schema& schema = meta.schema;

  EngineOptions engine_options;
  if (cache_mb > 0) {
    engine_options.cache_bytes = static_cast<uint64_t>(cache_mb) << 20;
  }
  if (resilience.mem_budget_mb > 0) {
    engine_options.exclusive.memory_budget_bytes =
        static_cast<uint64_t>(resilience.mem_budget_mb) << 20;
  }
  db.ConfigureEngine(engine_options);
  if (is_ingest) {
    IngestOptions ingest_options;
    ingest_options.layout = meta.layout;
    RODB_RETURN_IF_ERROR(db.EnsureIngest(name, schema, ingest_options));
  }

  // Every attribute in schema order is how the rows print, and what the
  // model comparison below predicts from.
  QueryRequest request = FullTableRequest(name, meta);
  if (where_attr != nullptr) {
    RODB_ASSIGN_OR_RETURN(
        Predicate pred,
        ParsePredicate(schema, where_attr, where_op, where_value));
    request.scan.predicates.push_back(std::move(pred));
  }
  // Zone-map pruning defaults on for predicated scans; the synopsis layer
  // makes the pruned scan return exactly the unpruned tuples.
  request.scan.prune = !no_prune;
  // Table order (from FullTableRequest) also keeps the traced run
  // exclusive, so the span tree covers a private scan.
  request.collect_rows = true;
  request.limit_rows = limit;
  if (resilience.deadline_ms > 0) {
    request.timeout = std::chrono::milliseconds(resilience.deadline_ms);
  }
  request.max_retries = resilience.max_retries;
  obs::QueryTrace qtrace;
  if (trace) request.trace = &qtrace;

  RODB_ASSIGN_OR_RETURN(QueryResult result, db.Execute(request));

  for (uint64_t i = 0; i < result.rows_collected; ++i) {
    const uint8_t* tuple = result.collected_tuple(i);
    std::printf("[%6llu] ", static_cast<unsigned long long>(i));
    for (size_t a = 0; a < schema.num_attributes(); ++a) {
      if (a > 0) std::printf("  ");
      PrintValue(schema.attribute(a), tuple + result.row_layout.offsets[a]);
    }
    std::printf("\n");
  }
  std::printf("(%llu tuples shown of %llu qualifying)\n",
              static_cast<unsigned long long>(result.rows_collected),
              static_cast<unsigned long long>(result.rows));
  if (db.engine()->cache() != nullptr) {
    const BlockCache::Stats cs = db.engine()->cache()->stats();
    std::printf("cache: %llu hits, %llu misses (%.0f%% hit rate), "
                "%llu bytes from cache, %llu bytes from disk\n",
                static_cast<unsigned long long>(cs.hits),
                static_cast<unsigned long long>(cs.misses),
                cs.hit_rate() * 100,
                static_cast<unsigned long long>(
                    result.counters.io_bytes_from_cache),
                static_cast<unsigned long long>(
                    result.counters.io_bytes_read));
  }
  if (trace) {
    std::printf("\ntrace:\n%s", qtrace.ToText().c_str());
    const ExecCounters& cc = result.counters;
    if (cc.kernel_batches > 0) {
      std::printf("vectorized: isa=%s batches=%llu values=%llu "
                  "mask_skipped=%llu\n",
                  std::string(kernels::ActiveKernelIsa()).c_str(),
                  static_cast<unsigned long long>(cc.kernel_batches),
                  static_cast<unsigned long long>(
                      cc.values_scanned_vectorized),
                  static_cast<unsigned long long>(cc.mask_skipped_values));
    }
    if (cc.prune_plans > 0 || cc.prune_declined > 0 ||
        cc.synopsis_corrupt > 0) {
      std::printf("pruning: plans=%llu declined=%llu pages_pruned=%llu "
                  "pages_retained=%llu zone_rejects=%llu "
                  "synopsis_corrupt=%llu\n",
                  static_cast<unsigned long long>(cc.prune_plans),
                  static_cast<unsigned long long>(cc.prune_declined),
                  static_cast<unsigned long long>(cc.pages_pruned),
                  static_cast<unsigned long long>(cc.pages_retained),
                  static_cast<unsigned long long>(cc.prune_zone_rejects),
                  static_cast<unsigned long long>(cc.synopsis_corrupt));
    }
    if (is_ingest) {
      // The physics model wants one physical table; a snapshot spans
      // ROS + segments + the in-memory tail.
      std::printf("\nmodel comparison unavailable for ingest tables\n");
      return Status::OK();
    }
    // The model comparison predicts from the physical table + the scan
    // that ran; the handle here is display-only (the engine keeps its
    // own).
    RODB_ASSIGN_OR_RETURN(OpenTable table, OpenTable::Open(dir, name));
    const ScanSpec& spec = request.scan;
    const PrunePlan prune_plan = BuildPrunePlan(table, spec);
    const auto physics = obs::PredictScanPhysics(
        table, spec, ScannerImpl::kAuto, obs::ScanPhysicsHints{},
        &prune_plan);
    if (physics.ok()) {
      const HardwareConfig hw = HardwareConfig::Paper2006();
      const ModeledTiming timing = ModelQueryTiming(
          result.counters, hw, spec.read.prefetch_depth,
          CacheAdjustedStreams(ScanStreams(table, spec), result.counters));
      const obs::ModelComparison cmp = obs::BuildModelComparison(
          *physics, result.counters, qtrace, timing, result.wall_seconds,
          hw);
      std::printf("\nmodel vs measured:\n%s", cmp.ToText().c_str());
    } else {
      std::printf("\nmodel comparison unavailable: %s\n",
                  physics.status().ToString().c_str());
    }
  }
  return Status::OK();
}

/// `rodbctl query --connect HOST:PORT ...`: one query over the socket
/// protocol against a running rodb_server.
Status CmdQuery(const std::string& endpoint, const std::string& table,
                uint64_t limit, const char* where_attr, const char* where_op,
                const char* where_value, QueryMode mode) {
  const size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos) {
    return Status::InvalidArgument("--connect expects HOST:PORT");
  }
  const std::string host = endpoint.substr(0, colon);
  const int port = std::atoi(endpoint.c_str() + colon + 1);
  if (port <= 0 || port > 65535) {
    return Status::InvalidArgument("bad port in --connect");
  }

  QueryRequest request;
  request.table = table;
  request.mode = mode;
  request.collect_rows = limit > 0;
  request.limit_rows = limit;
  if (where_attr != nullptr) {
    // No schema on this side of the socket: `attr` is a zero-based
    // index, and the value's shape picks the predicate type.
    char* end = nullptr;
    const long attr = std::strtol(where_attr, &end, 10);
    if (end == where_attr || *end != '\0' || attr < 0) {
      return Status::InvalidArgument(
          "query predicates use a zero-based attribute index");
    }
    CompareOp op;
    const std::string ops = where_op;
    if (ops == "=") {
      op = CompareOp::kEq;
    } else if (ops == "!=") {
      op = CompareOp::kNe;
    } else if (ops == "<") {
      op = CompareOp::kLt;
    } else if (ops == "<=") {
      op = CompareOp::kLe;
    } else if (ops == ">") {
      op = CompareOp::kGt;
    } else if (ops == ">=") {
      op = CompareOp::kGe;
    } else {
      return Status::InvalidArgument("unknown operator " + ops);
    }
    const long value = std::strtol(where_value, &end, 10);
    request.scan.predicates.push_back(
        end != where_value && *end == '\0'
            ? Predicate::Int32(static_cast<int>(attr), op,
                               static_cast<int32_t>(value))
            : Predicate::Text(static_cast<int>(attr), op, where_value));
  }

  QueryClient client;
  RODB_RETURN_IF_ERROR(client.Connect(host, port));
  RODB_ASSIGN_OR_RETURN(QueryResult result, client.Execute(request));

  for (uint64_t i = 0; i < result.rows_collected; ++i) {
    const uint8_t* tuple = result.collected_tuple(i);
    std::printf("[%6llu] ", static_cast<unsigned long long>(i));
    for (size_t a = 0; a < result.row_layout.num_attrs(); ++a) {
      if (a > 0) std::printf("  ");
      const uint8_t* value = tuple + result.row_layout.offsets[a];
      // Width 4 prints as int32, anything else as text -- the wire
      // carries no schema.
      if (result.row_layout.widths[a] == 4) {
        std::printf("%11d", LoadLE32s(value));
      } else {
        std::printf("\"%.*s\"", result.row_layout.widths[a],
                    reinterpret_cast<const char*>(value));
      }
    }
    std::printf("\n");
  }
  std::printf("%llu rows, checksum %016llx, digest %016llx\n",
              static_cast<unsigned long long>(result.rows),
              static_cast<unsigned long long>(result.output_checksum),
              static_cast<unsigned long long>(result.row_digest));
  std::printf("%s, wall %.3f ms\n",
              result.shared
                  ? ("shared scan (attached at tuple " +
                     std::to_string(result.attach_position) + ", lap " +
                     std::to_string(result.attach_lap) + ")")
                        .c_str()
                  : "exclusive scan",
              result.wall_seconds * 1e3);
  return Status::OK();
}

/// Parses "--schema=id:int32,name:text12" into a Schema.
Result<Schema> ParseSchemaSpec(const std::string& spec) {
  std::vector<AttributeDesc> attrs;
  size_t start = 0;
  while (start <= spec.size()) {
    size_t comma = spec.find(',', start);
    if (comma == std::string::npos) comma = spec.size();
    const std::string field = spec.substr(start, comma - start);
    start = comma + 1;
    if (field.empty()) continue;
    const size_t colon = field.find(':');
    if (colon == std::string::npos || colon == 0) {
      return Status::InvalidArgument("schema field needs name:type -- " +
                                     field);
    }
    const std::string name = field.substr(0, colon);
    const std::string type = field.substr(colon + 1);
    if (type == "int32") {
      attrs.push_back(AttributeDesc::Int32(name));
    } else if (type.rfind("text", 0) == 0) {
      const int width = std::atoi(type.c_str() + 4);
      if (width <= 0) {
        return Status::InvalidArgument("bad text width in " + field);
      }
      attrs.push_back(AttributeDesc::Text(name, width));
    } else {
      return Status::InvalidArgument("unknown attribute type " + type +
                                     " (int32 or textN)");
    }
  }
  return Schema::Make(std::move(attrs));
}

/// Encodes one CSV line as a raw tuple of `schema`. Fields are comma
/// separated, positional, unquoted; text is zero-padded/truncated to
/// the attribute width. Strict: the field count must match the schema
/// exactly and an int32 field must be a whole integer, so a malformed
/// row is reported by line and field instead of being half-parsed.
Status EncodeCsvTuple(const Schema& schema, const std::string& line,
                      uint64_t line_no, uint8_t* out) {
  const auto bad = [&](size_t field, const std::string& what) {
    return Status::InvalidArgument(
        "line " + std::to_string(line_no) + ", field " +
        std::to_string(field + 1) + ": " + what + " -- \"" + line + "\"");
  };
  size_t start = 0;
  for (size_t a = 0; a < schema.num_attributes(); ++a) {
    if (start > line.size()) {
      return bad(a, "missing field (schema has " +
                        std::to_string(schema.num_attributes()) + ")");
    }
    size_t comma = line.find(',', start);
    if (comma == std::string::npos) comma = line.size();
    const AttributeDesc& attr = schema.attribute(a);
    uint8_t* dst = out + schema.attr_offset(a);
    if (attr.type == AttrType::kInt32) {
      char* end = nullptr;
      errno = 0;
      const long value = std::strtol(line.c_str() + start, &end, 10);
      if (end == line.c_str() + start) {
        return bad(a, "not an int32");
      }
      if (end != line.c_str() + comma) {
        return bad(a, "trailing garbage after int32");
      }
      if (errno == ERANGE || value < INT32_MIN || value > INT32_MAX) {
        return bad(a, "int32 out of range");
      }
      StoreLE32s(dst, static_cast<int32_t>(value));
    } else {
      const size_t len = std::min(comma - start,
                                  static_cast<size_t>(attr.width));
      std::memcpy(dst, line.data() + start, len);
      std::memset(dst + len, 0, static_cast<size_t>(attr.width) - len);
    }
    start = comma + 1;
  }
  if (start <= line.size()) {
    return bad(schema.num_attributes() - 1,
               "extra fields beyond the schema's " +
                   std::to_string(schema.num_attributes()));
  }
  return Status::OK();
}

/// Batch/rate/freeze knobs of `rodbctl ingest`.
struct IngestFlags {
  std::string schema_spec;
  uint64_t batch = 1024;
  uint64_t rate = 0;          ///< tuples/sec; 0 = unthrottled
  uint64_t freeze_every = 0;  ///< freeze after every Nth batch; 0 = never
  bool merge_at_end = false;
  int sort_attr = 0;
  Layout layout = Layout::kRow;
};

/// Streams CSV tuples from `in` through `sink` (the embedded engine or
/// a connected server -- both speak IngestRequest).
Status RunIngest(
    const std::string& table, const IngestFlags& flags, std::istream& in,
    const std::function<Result<IngestResult>(const IngestRequest&)>& sink) {
  if (flags.schema_spec.empty()) {
    return Status::InvalidArgument("ingest needs --schema=name:type,...");
  }
  RODB_ASSIGN_OR_RETURN(Schema schema, ParseSchemaSpec(flags.schema_spec));
  const size_t width = static_cast<size_t>(schema.raw_tuple_width());
  if (flags.sort_attr < 0 ||
      static_cast<size_t>(flags.sort_attr) >= schema.num_attributes() ||
      schema.attribute(static_cast<size_t>(flags.sort_attr)).type !=
          AttrType::kInt32) {
    return Status::InvalidArgument("--sort-attr must name an int32 attribute");
  }

  IngestRequest request;
  request.table = table;
  schema.AppendTo(&request.schema_text);  // attach on the first batch
  request.layout = flags.layout;
  request.sort_attr = flags.sort_attr;

  const auto start = std::chrono::steady_clock::now();
  uint64_t tuples = 0, batches = 0, line_no = 0;
  IngestResult last;
  bool done = false;
  std::string line;
  while (!done) {
    request.count = 0;
    request.data.clear();
    while (request.count < flags.batch) {
      if (!std::getline(in, line)) {
        done = true;
        break;
      }
      ++line_no;
      if (line.empty()) continue;
      request.data.resize(request.data.size() + width);
      RODB_RETURN_IF_ERROR(EncodeCsvTuple(
          schema, line, line_no, request.data.data() + request.count * width));
      ++request.count;
    }
    if (request.count == 0) break;
    ++batches;
    request.freeze =
        flags.freeze_every > 0 && batches % flags.freeze_every == 0;
    RODB_ASSIGN_OR_RETURN(last, sink(request));
    request.schema_text.clear();
    tuples += request.count;
    if (flags.rate > 0) {
      // Closed-loop throttle: sleep until the sent total matches the
      // target rate.
      const auto due = start + std::chrono::duration_cast<
                                   std::chrono::steady_clock::duration>(
                                   std::chrono::duration<double>(
                                       static_cast<double>(tuples) /
                                       static_cast<double>(flags.rate)));
      std::this_thread::sleep_until(due);
    }
  }
  if (flags.merge_at_end && batches > 0) {
    // A zero-count batch is a pure lifecycle nudge: nothing appends,
    // the merge flag starts the background fold.
    request.count = 0;
    request.data.clear();
    request.freeze = false;
    request.merge = true;
    RODB_ASSIGN_OR_RETURN(last, sink(request));
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  std::printf("%llu tuples in %llu batches (%.0f tuples/s); "
              "table total %llu, epoch %llu, %llu frozen segments\n",
              static_cast<unsigned long long>(tuples),
              static_cast<unsigned long long>(batches),
              seconds > 0 ? static_cast<double>(tuples) / seconds : 0.0,
              static_cast<unsigned long long>(last.appended_total),
              static_cast<unsigned long long>(last.epoch),
              static_cast<unsigned long long>(last.frozen_segments));
  return Status::OK();
}

Status CmdAdvise(const std::string& dir, const std::string& name) {
  RODB_ASSIGN_OR_RETURN(Database db, Database::Open(dir));
  RODB_ASSIGN_OR_RETURN(TableMeta meta, db.Meta(name));
  // The advisor samples the table's first tuples.
  QueryRequest request = FullTableRequest(name, meta);
  request.collect_rows = true;
  request.limit_rows = 20000;
  RODB_ASSIGN_OR_RETURN(QueryResult result, db.Execute(request));
  const size_t width = static_cast<size_t>(result.row_layout.tuple_width);
  std::vector<std::vector<uint8_t>> tuples;
  tuples.reserve(result.rows_collected);
  for (uint64_t i = 0; i < result.rows_collected; ++i) {
    tuples.emplace_back(result.collected_tuple(i),
                        result.collected_tuple(i) + width);
  }
  CompressionAdvisor advisor;
  RODB_ASSIGN_OR_RETURN(Schema advised,
                        advisor.AdviseSchema(meta.schema, tuples));
  std::printf("%-18s %-10s %-14s\n", "attribute", "current", "advised");
  for (size_t a = 0; a < advised.num_attributes(); ++a) {
    const CodecSpec current = meta.schema.attribute(a).codec;
    const CodecSpec next = advised.attribute(a).codec;
    char cur_s[32], next_s[32];
    std::snprintf(cur_s, sizeof(cur_s), "%s:%d",
                  std::string(CompressionKindName(current.kind)).c_str(),
                  current.bits);
    std::snprintf(next_s, sizeof(next_s), "%s:%d",
                  std::string(CompressionKindName(next.kind)).c_str(),
                  next.bits);
    std::printf("%-18s %-10s %-14s\n",
                advised.attribute(a).name.c_str(), cur_s, next_s);
  }
  return Status::OK();
}

void Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  rodbctl tables <dir>\n"
               "  rodbctl describe <dir> <table>\n"
               "  rodbctl verify <dir> <table>\n"
               "  rodbctl scan <dir> <table> [limit [attr op value]]"
               " [--cache-mb=N] [--trace]\n"
               "              [--no-prune] [--deadline-ms=N]"
               " [--max-retries=N] [--mem-budget-mb=N]\n"
               "  rodbctl query --connect HOST:PORT <table>"
               " [limit [attr-index op value]]\n"
               "              [--shared|--exclusive]\n"
               "  rodbctl advise <dir> <table>\n"
               "  rodbctl ingest <dir> <table> [csv|-]"
               " --schema=name:int32,name:textN,...\n"
               "              [--batch=N] [--rate=TUPLES_PER_SEC]"
               " [--freeze-every=BATCHES]\n"
               "              [--merge] [--layout=row|column|pax]"
               " [--sort-attr=N]\n"
               "  rodbctl ingest --connect HOST:PORT <table> [csv|-]"
               " --schema=... [...]\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    Usage();
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "query") {
    std::string endpoint;
    QueryMode mode = QueryMode::kAuto;
    std::vector<const char*> pos;
    for (int i = 2; i < argc; ++i) {
      if (std::strncmp(argv[i], "--connect=", 10) == 0) {
        endpoint = argv[i] + 10;
      } else if (std::strcmp(argv[i], "--connect") == 0 && i + 1 < argc) {
        endpoint = argv[++i];
      } else if (std::strcmp(argv[i], "--shared") == 0) {
        mode = QueryMode::kShared;
      } else if (std::strcmp(argv[i], "--exclusive") == 0) {
        mode = QueryMode::kExclusive;
      } else {
        pos.push_back(argv[i]);
      }
    }
    if (endpoint.empty() || pos.empty()) {
      Usage();
      return 2;
    }
    const std::string table = pos[0];
    const uint64_t limit =
        pos.size() > 1 ? static_cast<uint64_t>(std::atoll(pos[1])) : 20;
    const char* attr = pos.size() > 4 ? pos[2] : nullptr;
    const char* op = pos.size() > 4 ? pos[3] : nullptr;
    const char* value = pos.size() > 4 ? pos[4] : nullptr;
    const Status s = CmdQuery(endpoint, table, limit, attr, op, value, mode);
    return s.ok() ? 0 : Fail(s);
  }
  if (cmd == "ingest") {
    std::string endpoint;
    IngestFlags flags;
    std::vector<const char*> pos;
    for (int i = 2; i < argc; ++i) {
      std::string value;
      if (std::strncmp(argv[i], "--connect=", 10) == 0) {
        endpoint = argv[i] + 10;
      } else if (std::strcmp(argv[i], "--connect") == 0 && i + 1 < argc) {
        endpoint = argv[++i];
      } else if (std::strncmp(argv[i], "--schema=", 9) == 0) {
        flags.schema_spec = argv[i] + 9;
      } else if (std::strncmp(argv[i], "--batch=", 8) == 0) {
        flags.batch = static_cast<uint64_t>(std::atoll(argv[i] + 8));
      } else if (std::strncmp(argv[i], "--rate=", 7) == 0) {
        flags.rate = static_cast<uint64_t>(std::atoll(argv[i] + 7));
      } else if (std::strncmp(argv[i], "--freeze-every=", 15) == 0) {
        flags.freeze_every = static_cast<uint64_t>(std::atoll(argv[i] + 15));
      } else if (std::strcmp(argv[i], "--merge") == 0) {
        flags.merge_at_end = true;
      } else if (std::strncmp(argv[i], "--sort-attr=", 12) == 0) {
        flags.sort_attr = std::atoi(argv[i] + 12);
      } else if (std::strncmp(argv[i], "--layout=", 9) == 0) {
        const std::string layout = argv[i] + 9;
        if (layout == "row") {
          flags.layout = Layout::kRow;
        } else if (layout == "column") {
          flags.layout = Layout::kColumn;
        } else if (layout == "pax") {
          flags.layout = Layout::kPax;
        } else {
          return Fail(Status::InvalidArgument("bad --layout " + layout));
        }
      } else {
        pos.push_back(argv[i]);
      }
    }
    if (flags.batch == 0) {
      return Fail(Status::InvalidArgument("--batch must be positive"));
    }
    // Embedded form: <dir> <table> [csv]. Remote: <table> [csv].
    const size_t min_pos = endpoint.empty() ? 2 : 1;
    if (pos.size() < min_pos || pos.size() > min_pos + 1) {
      Usage();
      return 2;
    }
    const std::string table = pos[min_pos - 1];
    const char* csv = pos.size() > min_pos ? pos[min_pos] : nullptr;
    std::ifstream file;
    if (csv != nullptr && std::strcmp(csv, "-") != 0) {
      file.open(csv);
      if (!file.is_open()) {
        return Fail(Status::IoError(std::string("cannot open ") + csv));
      }
    }
    std::istream& in = file.is_open() ? file : std::cin;

    Status s;
    if (endpoint.empty()) {
      const std::string ingest_dir = pos[0];
      std::error_code ec;
      std::filesystem::create_directories(ingest_dir, ec);
      auto db = Database::Open(ingest_dir);
      if (!db.ok()) return Fail(db.status());
      s = RunIngest(table, flags, in, [&](const IngestRequest& request) {
        return db->Ingest(request);
      });
      // An embedded --merge runs in the background; the engine teardown
      // below waits for it, so the generation is committed on exit.
      db->ConfigureEngine(EngineOptions());
    } else {
      const size_t colon = endpoint.rfind(':');
      const int port =
          colon == std::string::npos ? 0 : std::atoi(endpoint.c_str() + colon + 1);
      if (colon == std::string::npos || port <= 0 || port > 65535) {
        return Fail(Status::InvalidArgument("--connect expects HOST:PORT"));
      }
      QueryClient client;
      const Status connected =
          client.Connect(endpoint.substr(0, colon), port);
      if (!connected.ok()) return Fail(connected);
      s = RunIngest(table, flags, in, [&](const IngestRequest& request) {
        return client.Ingest(request);
      });
    }
    return s.ok() ? 0 : Fail(s);
  }
  const std::string dir = argv[2];
  if (cmd == "tables") {
    const Status s = CmdTables(dir);
    return s.ok() ? 0 : Fail(s);
  }
  if (argc < 4) {
    Usage();
    return 2;
  }
  const std::string table = argv[3];
  if (cmd == "describe") {
    const Status s = CmdDescribe(dir, table);
    return s.ok() ? 0 : Fail(s);
  }
  if (cmd == "verify") {
    const Status s = CmdVerify(dir, table);
    return s.ok() ? 0 : Fail(s);
  }
  if (cmd == "advise") {
    const Status s = CmdAdvise(dir, table);
    return s.ok() ? 0 : Fail(s);
  }
  if (cmd == "scan") {
    // Split out --cache-mb=N and --trace (anywhere after <table>) from
    // the positional [limit [attr op value]] arguments.
    int cache_mb = 0;
    bool trace = false;
    bool no_prune = false;
    ResilienceFlags resilience;
    // Positive-integer --flag=N parser shared by the resilience knobs.
    const auto parse_int_flag = [](const char* arg, const char* flag,
                                   int* out) {
      const size_t n = std::strlen(flag);
      if (std::strncmp(arg, flag, n) != 0) return false;
      *out = std::atoi(arg + n);
      if (*out <= 0) {
        std::fprintf(stderr, "rodbctl: bad %.*s value: %s\n",
                     static_cast<int>(n - 1), flag, arg + n);
        std::exit(2);
      }
      return true;
    };
    std::vector<const char*> pos;
    for (int i = 4; i < argc; ++i) {
      if (parse_int_flag(argv[i], "--cache-mb=", &cache_mb) ||
          parse_int_flag(argv[i], "--deadline-ms=",
                         &resilience.deadline_ms) ||
          parse_int_flag(argv[i], "--max-retries=",
                         &resilience.max_retries) ||
          parse_int_flag(argv[i], "--mem-budget-mb=",
                         &resilience.mem_budget_mb)) {
        continue;
      }
      if (std::strcmp(argv[i], "--trace") == 0) {
        trace = true;
      } else if (std::strcmp(argv[i], "--no-prune") == 0) {
        no_prune = true;
      } else {
        pos.push_back(argv[i]);
      }
    }
    const uint64_t limit =
        !pos.empty() ? static_cast<uint64_t>(std::atoll(pos[0])) : 20;
    const char* attr = pos.size() > 3 ? pos[1] : nullptr;
    const char* op = pos.size() > 3 ? pos[2] : nullptr;
    const char* value = pos.size() > 3 ? pos[3] : nullptr;
    const Status s = CmdScan(dir, table, limit, attr, op, value, cache_mb,
                             trace, no_prune, resilience);
    return s.ok() ? 0 : Fail(s);
  }
  Usage();
  return 2;
}
