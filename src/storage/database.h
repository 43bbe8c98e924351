#ifndef RODB_STORAGE_DATABASE_H_
#define RODB_STORAGE_DATABASE_H_

#include <memory>
#include <string>
#include <vector>

#include "storage/catalog.h"

namespace rodb {

// The execution facade lives a layer up (src/server/); the types are
// forward-declared so this header stays free of engine dependencies.
// Database::Execute is implemented in server/database_exec.cc and
// resolves through the rodb umbrella target.
struct QueryRequest;
struct QueryResult;
struct IngestRequest;
struct IngestResult;
struct IngestOptions;
class IngestStore;
struct EngineOptions;
class QueryEngine;

/// A database is a directory of bulk-loaded tables. This handle
/// enumerates the catalog and opens/drops tables; loading goes through
/// TableWriter (or Ingest()), reading through Execute() (or, for
/// code that needs raw operators, the scanners).
class Database {
 public:
  /// Scans `dir` for catalog entries. The directory must exist.
  static Result<Database> Open(const std::string& dir);

  const std::string& dir() const { return dir_; }
  const std::vector<std::string>& table_names() const { return tables_; }
  bool Contains(const std::string& name) const;

  Result<OpenTable> OpenTableNamed(const std::string& name) const;
  Result<TableMeta> Meta(const std::string& name) const;

  /// Removes a table's files and catalog entry. Fails with NotFound for
  /// unknown tables; refreshes the in-memory listing on success.
  Status DropTable(const std::string& name);

  /// Re-reads the directory (e.g. after an external load).
  Status Refresh();

  /// Runs one query through the database's QueryEngine (created lazily
  /// with default EngineOptions on first use; see ConfigureEngine).
  /// This is the public read API: it subsumes hand-wiring OpenScanner +
  /// Execute and ParallelExecute. Thread-safe; copies of
  /// this Database share one engine.
  Result<QueryResult> Execute(const QueryRequest& request);

  /// Replaces the engine with one built from `options`. Call before the
  /// first Execute (an existing engine is shut down and dropped).
  void ConfigureEngine(const EngineOptions& options);

  /// Attaches the continuous-ingest lifecycle for `table` (idempotent);
  /// queries against the name then read epoch-pinned snapshots. See
  /// QueryEngine::EnsureIngest.
  Status EnsureIngest(const std::string& table, const Schema& schema,
                      const IngestOptions& options);
  /// Appends one batch to an ingest table (attaching it first when the
  /// request carries a schema). See QueryEngine::Ingest.
  Result<IngestResult> Ingest(const IngestRequest& request);
  /// The table's ingest store (lifecycle control for tests/tools), or
  /// null if not attached.
  std::shared_ptr<IngestStore> ingest(const std::string& table);

  /// The engine backing Execute(), or null if none has been created.
  QueryEngine* engine() const { return engine_.get(); }

 private:
  std::string dir_;
  std::vector<std::string> tables_;
  /// Lazily created by Execute(); shared so Database stays copyable.
  std::shared_ptr<QueryEngine> engine_;
};

}  // namespace rodb

#endif  // RODB_STORAGE_DATABASE_H_
