/// The continuous-ingest fuzz axis: seeded lifecycle schedules driven
/// through the public engine API (EnsureIngest / Ingest / Execute plus
/// the store's Freeze/Merge controls), cross-checked three ways:
///
///   1. Prefix oracle -- the driver is the only writer, so every
///      snapshot must see exactly the append log so far; queries replay
///      predicates/projections over that prefix.
///   2. Counter reconciliation -- the rodb.ingest.* counters are
///      modeled op by op and their process-wide deltas must match the
///      model exactly at the end of every iteration.
///   3. Crash recovery -- fault iterations arm lifecycle fail points,
///      tear the engine down mid-schedule and reopen: recovery must
///      land on the last committed manifest state (an append-order
///      prefix), and planted orphan segment/generation tables must be
///      swept away -- recover-to-last-good-generation, never a corrupt
///      manifest.

#include "ingest_fuzz.h"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/macros.h"
#include "common/random.h"
#include "engine/executor.h"
#include "obs/metrics.h"
#include "server/query_engine.h"
#include "storage/catalog.h"
#include "storage/database.h"
#include "storage/table_files.h"
#include "wos/ingest_store.h"

namespace rodb::fuzz {

namespace {

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a + 0x9e3779b97f4a7c15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t FoldU64(uint64_t hash, uint64_t v) {
  uint8_t buf[8];
  StoreLE64(buf, v);
  return Fnv1aExtend(hash, buf, sizeof(buf));
}

/// Snapshot of every rodb.ingest.* counter (and the one gauge the
/// driver can predict); deltas between two samples are reconciled
/// against the schedule model.
struct MetricsSample {
  uint64_t appends = 0;
  uint64_t batches = 0;
  uint64_t freezes = 0;
  uint64_t frozen_tuples = 0;
  uint64_t merges = 0;
  uint64_t merged_tuples = 0;
  uint64_t merge_failures = 0;
  uint64_t snapshots = 0;
  uint64_t tables_retired = 0;
  int64_t frozen_segments_gauge = 0;

  static MetricsSample Take() {
    auto& reg = obs::MetricsRegistry::Default();
    MetricsSample s;
    s.appends = reg.GetCounter("rodb.ingest.appends")->Value();
    s.batches = reg.GetCounter("rodb.ingest.batches")->Value();
    s.freezes = reg.GetCounter("rodb.ingest.freezes")->Value();
    s.frozen_tuples = reg.GetCounter("rodb.ingest.frozen_tuples")->Value();
    s.merges = reg.GetCounter("rodb.ingest.merges")->Value();
    s.merged_tuples = reg.GetCounter("rodb.ingest.merged_tuples")->Value();
    s.merge_failures = reg.GetCounter("rodb.ingest.merge_failures")->Value();
    s.snapshots = reg.GetCounter("rodb.ingest.snapshots")->Value();
    s.tables_retired = reg.GetCounter("rodb.ingest.tables_retired")->Value();
    s.frozen_segments_gauge =
        reg.GetGauge("rodb.ingest.frozen_segments")->Value();
    return s;
  }
};

/// Exact model of one store's lifecycle: what every rodb.ingest.*
/// counter must have done and what shape (active / sealed / frozen /
/// ROS) the store must be in. The driver is single-threaded and merges
/// run synchronously, so the model is deterministic.
struct Model {
  // Expected counter deltas.
  uint64_t appends = 0;
  uint64_t batches = 0;
  uint64_t freezes = 0;
  uint64_t frozen_tuples = 0;
  uint64_t merges = 0;
  uint64_t merged_tuples = 0;
  uint64_t merge_failures = 0;
  uint64_t snapshots = 0;
  uint64_t tables_retired = 0;

  // Live lifecycle shape.
  uint64_t freeze_tuples = 0;  ///< auto-freeze threshold (0 = manual)
  uint64_t active = 0;
  std::vector<uint64_t> sealed;      ///< tuple counts, oldest first
  std::vector<uint64_t> frozen_now;  ///< tuple counts, oldest first
  uint64_t ros = 0;
  bool has_ros = false;
  uint64_t epoch = 0;

  uint64_t persisted() const {
    uint64_t total = ros;
    for (uint64_t c : frozen_now) total += c;
    return total;
  }

  void PersistAllSealed() {
    for (uint64_t c : sealed) {
      freezes += 1;
      frozen_tuples += c;
      epoch += 1;
      frozen_now.push_back(c);
    }
    sealed.clear();
  }

  /// One tuple through Append(), auto-freeze included.
  void ModelAppend() {
    appends += 1;
    active += 1;
    if (freeze_tuples > 0 && active >= freeze_tuples) {
      sealed.push_back(active);
      active = 0;
      PersistAllSealed();
    }
  }

  void ModelFreezeSuccess() {
    if (active > 0) {
      sealed.push_back(active);
      active = 0;
    }
    PersistAllSealed();
  }

  /// Freeze with a fault armed at freeze.write/freeze.commit: the
  /// active segment still seals, but the first persist dies and the
  /// whole sealed queue stays in memory.
  void ModelFreezeFailure() {
    if (active > 0) {
      sealed.push_back(active);
      active = 0;
    }
  }

  void ModelMergeSuccess() {
    uint64_t inputs = ros;
    for (uint64_t c : frozen_now) inputs += c;
    merged_tuples += inputs;
    merges += 1;
    tables_retired += frozen_now.size() + (has_ros ? 1 : 0);
    ros = inputs;
    has_ros = true;
    frozen_now.clear();
    epoch += 1;
  }

  void ModelMergeFailure() { merge_failures += 1; }

  /// Crash: the volatile tail (active + sealed) is gone; the committed
  /// prefix survives.
  uint64_t ModelCrash() {
    uint64_t lost = active;
    for (uint64_t c : sealed) lost += c;
    active = 0;
    sealed.clear();
    return lost;
  }
};

/// Arms one lifecycle fail point for exactly one hit. The driver and
/// the synchronous merge both run on the calling thread, so plain
/// members suffice.
struct FailControl {
  std::string point;
  int remaining = 0;
  uint64_t hits = 0;

  void Arm(std::string at) {
    point = std::move(at);
    remaining = 1;
  }
  void Disarm() { remaining = 0; }
  bool armed() const { return remaining > 0; }
};

/// The append log: tuple i is the i-th tuple ever appended (and still
/// committed -- a crash truncates it back to the persisted prefix).
using Reference = std::vector<std::vector<uint8_t>>;

struct OracleAnswer {
  uint64_t rows = 0;
  uint64_t digest = 0;
  Reference projected;
};

OracleAnswer Oracle(const Reference& ref, const Schema& schema,
                    const QueryRequest& request) {
  std::vector<int> projection = request.scan.projection;
  if (projection.empty()) {
    for (size_t a = 0; a < schema.num_attributes(); ++a) {
      projection.push_back(static_cast<int>(a));
    }
  }
  OracleAnswer answer;
  std::vector<uint8_t> out;
  for (const auto& row : ref) {
    const uint8_t* tuple = row.data();
    bool pass = true;
    for (const Predicate& pred : request.scan.predicates) {
      if (!pred.Eval(tuple + schema.attr_offset(
                                 static_cast<size_t>(pred.attr_index())))) {
        pass = false;
        break;
      }
    }
    if (!pass) continue;
    out.clear();
    for (int attr : projection) {
      const int offset = schema.attr_offset(static_cast<size_t>(attr));
      const int width = schema.attribute(static_cast<size_t>(attr)).width;
      out.insert(out.end(), tuple + offset, tuple + offset + width);
    }
    ++answer.rows;
    answer.digest += Fnv1aExtend(kFnv1aSeed, out.data(), out.size());
    answer.projected.push_back(out);
  }
  return answer;
}

struct Runner {
  explicit Runner(const IngestFuzzOptions& opts) : options(opts) {}

  IngestFuzzOptions options;
  IngestFuzzStats stats;
  std::string root_dir;

  void Log(const std::string& line) {
    if (options.out != nullptr) *options.out << line << "\n";
  }

  void Fail(const std::string& what) {
    ++stats.mismatches;
    if (stats.failures.size() < 32) stats.failures.push_back(what);
  }

  Status RunIteration(uint64_t iter);
};

Status Runner::RunIteration(uint64_t iter) {
  const uint64_t iter_seed = Mix(options.seed, iter);
  Random rng(iter_seed);
  const std::string ctx_base =
      "seed=" + std::to_string(options.seed) + " iter=" + std::to_string(iter);

  // --- Draw the iteration's configuration. -------------------------
  const size_t num_attrs = 2 + rng.Uniform(3);  // 2..4 int32 attributes
  std::vector<AttributeDesc> attrs;
  for (size_t a = 0; a < num_attrs; ++a) {
    const std::string name = "a" + std::to_string(a);
    // Values stay in [0, 999], so BitPack(10) always encodes.
    attrs.push_back(rng.Bernoulli(0.5)
                        ? AttributeDesc::Int32(name, CodecSpec::BitPack(10))
                        : AttributeDesc::Int32(name));
  }
  RODB_ASSIGN_OR_RETURN(Schema schema, Schema::Make(attrs));
  const size_t width = static_cast<size_t>(schema.raw_tuple_width());

  const Layout layouts[] = {Layout::kRow, Layout::kColumn, Layout::kPax};
  IngestOptions ingest_options;
  ingest_options.layout = layouts[rng.Uniform(3)];
  ingest_options.page_size = size_t{512} << rng.Uniform(3);  // 512/1024/2048
  ingest_options.sort_attr = static_cast<int>(rng.Uniform(num_attrs));
  ingest_options.merge_segments = 0;  // merges are driven synchronously

  // Fault iterations drive the lifecycle manually so every armed fault
  // lands on a driver-issued freeze/merge; clean iterations may let
  // appends auto-freeze inline.
  const bool fault_mode = rng.Bernoulli(0.4);
  Model model;
  if (!fault_mode && rng.Bernoulli(0.5)) {
    model.freeze_tuples = 24 + rng.Uniform(40);
  }
  ingest_options.freeze_tuples = model.freeze_tuples;

  auto control = std::make_shared<FailControl>();
  ingest_options.fail_point = [control](std::string_view at) {
    if (control->remaining > 0 && at == control->point) {
      control->remaining -= 1;
      control->hits += 1;
      return Status::IoError("injected fault at " + std::string(at));
    }
    return Status::OK();
  };

  const std::string dir = root_dir + "/iter" + std::to_string(iter);
  std::error_code ec;
  std::filesystem::create_directory(dir, ec);
  if (ec) return Status::IoError("cannot create " + dir);
  const std::string table = "stream";

  RODB_ASSIGN_OR_RETURN(Database db, Database::Open(dir));
  const MetricsSample before = MetricsSample::Take();
  RODB_RETURN_IF_ERROR(db.EnsureIngest(table, schema, ingest_options));

  Reference ref;

  const auto make_row = [&]() {
    std::vector<uint8_t> row(width);
    for (size_t a = 0; a < num_attrs; ++a) {
      StoreLE32s(row.data() + 4 * a,
                 static_cast<int32_t>(rng.Uniform(1000)));
    }
    return row;
  };

  // One engine-level ingest batch (the RPC shape), with the model run
  // tuple by tuple so inline auto-freezes are accounted exactly.
  const auto do_batch = [&](bool freeze_after) -> Status {
    const uint64_t n = 1 + rng.Uniform(options.max_batch);
    IngestRequest request;
    request.table = table;
    request.count = n;
    request.freeze = freeze_after;
    for (uint64_t i = 0; i < n; ++i) {
      std::vector<uint8_t> row = make_row();
      request.data.insert(request.data.end(), row.begin(), row.end());
      stats.state_hash = Fnv1aExtend(stats.state_hash, row.data(), row.size());
      ref.push_back(std::move(row));
    }
    RODB_ASSIGN_OR_RETURN(IngestResult result, db.Ingest(request));
    for (uint64_t i = 0; i < n; ++i) model.ModelAppend();
    model.batches += 1;
    if (freeze_after) model.ModelFreezeSuccess();
    model.snapshots += 1;  // Ingest() acquires once for frozen_segments
    stats.appended_tuples += n;
    stats.batches += 1;
    if (result.appended_total != ref.size() || result.epoch != model.epoch ||
        result.frozen_segments != model.frozen_now.size()) {
      Fail(ctx_base + ": IngestResult {" +
           std::to_string(result.appended_total) + "," +
           std::to_string(result.epoch) + "," +
           std::to_string(result.frozen_segments) + "} != model {" +
           std::to_string(ref.size()) + "," + std::to_string(model.epoch) +
           "," + std::to_string(model.frozen_now.size()) + "}");
    }
    return Status::OK();
  };

  const auto check_query = [&](bool collect, const std::string& ctx) {
    QueryRequest request;
    request.table = table;
    switch (rng.Uniform(4)) {  // projection variety
      case 0:
        request.scan.projection = {static_cast<int>(rng.Uniform(num_attrs))};
        break;
      case 1:
        request.scan.projection = {static_cast<int>(num_attrs) - 1, 0};
        break;
      default:
        break;  // empty = all
    }
    switch (rng.Uniform(3)) {  // predicate variety
      case 0:
        request.scan.predicates = {Predicate::Int32(
            static_cast<int>(rng.Uniform(num_attrs)), CompareOp::kLt,
            static_cast<int32_t>(rng.Uniform(1000)))};
        break;
      case 1:
        request.scan.predicates = {
            Predicate::Int32(ingest_options.sort_attr, CompareOp::kGe,
                             static_cast<int32_t>(rng.Uniform(1000))),
            Predicate::Int32(static_cast<int>(rng.Uniform(num_attrs)),
                             CompareOp::kLt,
                             static_cast<int32_t>(rng.Uniform(1000)))};
        break;
      default:
        break;  // full scan
    }
    request.collect_rows = collect;
    Result<QueryResult> result = db.Execute(request);
    model.snapshots += 1;  // the engine pins one snapshot per query
    ++stats.queries;
    if (!result.ok()) {
      Fail(ctx + ": query failed: " + result.status().ToString());
      return;
    }
    if (result->snapshot_tuples != ref.size()) {
      Fail(ctx + ": snapshot saw " + std::to_string(result->snapshot_tuples) +
           " tuples, append log has " + std::to_string(ref.size()));
      return;
    }
    const OracleAnswer oracle = Oracle(ref, schema, request);
    if (result->rows != oracle.rows || result->row_digest != oracle.digest) {
      Fail(ctx + ": rows/digest {" + std::to_string(result->rows) + "," +
           std::to_string(result->row_digest) + "} != oracle {" +
           std::to_string(oracle.rows) + "," + std::to_string(oracle.digest) +
           "}");
    }
    if (collect) {
      Reference got;
      const int tuple_width = result->row_layout.tuple_width;
      for (uint64_t i = 0; i < result->rows_collected; ++i) {
        const uint8_t* t = result->collected_tuple(i);
        got.emplace_back(t, t + tuple_width);
      }
      Reference want = oracle.projected;
      std::sort(got.begin(), got.end());
      std::sort(want.begin(), want.end());
      if (got != want) {
        Fail(ctx + ": collected rows are not the oracle multiset");
      }
    }
    stats.state_hash = FoldU64(stats.state_hash, result->rows);
    stats.state_hash = FoldU64(stats.state_hash, result->row_digest);
  };

  // Driver-issued freeze, optionally with an armed fault.
  const auto do_freeze = [&](const std::string& ctx) {
    const bool arm = fault_mode && rng.Bernoulli(0.5);
    if (arm) {
      control->Arm(rng.Bernoulli(0.5) ? "freeze.write" : "freeze.commit");
    }
    const bool will_persist = model.active > 0 || !model.sealed.empty();
    const Status s = db.ingest(table)->Freeze();
    if (arm && will_persist) {
      model.ModelFreezeFailure();
      ++stats.failed_freezes;
      ++stats.injected_faults;
      if (s.ok()) Fail(ctx + ": freeze survived an armed fault");
      if (control->armed()) Fail(ctx + ": armed freeze fault never fired");
    } else {
      control->Disarm();  // nothing to persist, the fault never fires
      model.ModelFreezeSuccess();
      if (!s.ok()) Fail(ctx + ": freeze failed: " + s.ToString());
    }
    stats.state_hash = FoldU64(stats.state_hash, s.ok() ? 0 : 1);
  };

  // Driver-issued synchronous merge, optionally with an armed fault.
  const auto do_merge = [&](const std::string& ctx) {
    const bool arm = fault_mode && rng.Bernoulli(0.5);
    if (arm) {
      const char* points[] = {"merge.read", "merge.write", "merge.commit"};
      control->Arm(points[rng.Uniform(3)]);
    }
    const bool noop = model.frozen_now.empty();
    const Status s = db.ingest(table)->Merge();
    if (noop) {
      control->Disarm();  // the empty-input early-out skips fail points
      ++stats.noop_merges;
      if (!s.ok()) Fail(ctx + ": no-op merge failed: " + s.ToString());
    } else if (arm) {
      model.ModelMergeFailure();
      ++stats.failed_merges;
      ++stats.injected_faults;
      if (s.ok()) Fail(ctx + ": merge survived an armed fault");
      if (control->armed()) Fail(ctx + ": armed merge fault never fired");
    } else {
      model.ModelMergeSuccess();
      ++stats.merges;
      if (!s.ok()) Fail(ctx + ": merge failed: " + s.ToString());
    }
    stats.state_hash = FoldU64(stats.state_hash, s.ok() ? 0 : 1);
  };

  // Crash: plant an orphan lifecycle table (a freeze/merge that "died"
  // after writing its files but before its manifest commit), tear the
  // engine down, reopen, and verify recovery landed on the committed
  // prefix with the orphan swept.
  const auto do_crash = [&](const std::string& ctx) -> Status {
    const std::string orphan =
        table + (rng.Bernoulli(0.5) ? "__seg7777" : "__gen7777");
    {
      RODB_ASSIGN_OR_RETURN(
          auto writer,
          TableWriter::Create(dir, orphan, schema, ingest_options.layout,
                              ingest_options.page_size));
      for (int i = 0; i < 3; ++i) {
        std::vector<uint8_t> row = make_row();
        RODB_RETURN_IF_ERROR(writer->Append(row.data()));
      }
      RODB_RETURN_IF_ERROR(writer->Finish());
    }

    db.ConfigureEngine(EngineOptions());  // drops the store: the "crash"
    const uint64_t lost = model.ModelCrash();
    stats.lost_tail_tuples += lost;
    ref.resize(model.persisted());
    RODB_RETURN_IF_ERROR(db.EnsureIngest(table, schema, ingest_options));
    ++stats.crash_recoveries;
    stats.recovered_tuples += ref.size();

    if (OpenTable::Open(dir, orphan).ok()) {
      Fail(ctx + ": orphan " + orphan + " survived recovery");
    } else {
      ++stats.orphans_swept;
    }

    std::shared_ptr<IngestStore> store = db.ingest(table);
    if (store->appended() != model.persisted()) {
      Fail(ctx + ": recovered appended()=" + std::to_string(store->appended()) +
           ", committed prefix is " + std::to_string(model.persisted()));
    }
    if (store->epoch() != model.epoch) {
      Fail(ctx + ": recovered epoch " + std::to_string(store->epoch()) +
           " != committed epoch " + std::to_string(model.epoch));
    }
    const Snapshot snap = store->Acquire();
    model.snapshots += 1;
    if (snap.num_frozen() != model.frozen_now.size() ||
        (snap.ros() != nullptr) != model.has_ros ||
        snap.visible_tuples() != model.persisted()) {
      Fail(ctx + ": recovered shape {frozen=" +
           std::to_string(snap.num_frozen()) +
           ",ros=" + std::to_string(snap.ros() != nullptr) + ",visible=" +
           std::to_string(snap.visible_tuples()) + "} != model {frozen=" +
           std::to_string(model.frozen_now.size()) +
           ",ros=" + std::to_string(model.has_ros) +
           ",visible=" + std::to_string(model.persisted()) + "}");
    }
    stats.state_hash = FoldU64(stats.state_hash, model.persisted());
    check_query(/*collect=*/true, ctx + " post-recovery");
    return Status::OK();
  };

  // --- The schedule. -----------------------------------------------
  const int steps =
      options.min_steps +
      static_cast<int>(rng.Uniform(
          static_cast<uint64_t>(options.max_steps - options.min_steps + 1)));
  const int crash_step =
      fault_mode ? static_cast<int>(rng.Uniform(
                       static_cast<uint64_t>(steps)))
                 : -1;
  for (int step = 0; step < steps; ++step) {
    const std::string ctx = ctx_base + " step=" + std::to_string(step);
    RODB_RETURN_IF_ERROR(
        do_batch(/*freeze_after=*/!fault_mode && rng.Bernoulli(0.3)));
    if (rng.Bernoulli(0.35)) do_freeze(ctx);
    if (rng.Bernoulli(0.3)) do_merge(ctx);
    check_query(/*collect=*/step % 3 == 2, ctx);
    if (step == crash_step) RODB_RETURN_IF_ERROR(do_crash(ctx));
  }

  // Final flush: disarm, freeze + merge everything, read it back.
  control->Disarm();
  {
    const std::string ctx = ctx_base + " final";
    const Status frozen = db.ingest(table)->Freeze();
    model.ModelFreezeSuccess();
    if (!frozen.ok()) Fail(ctx + ": final freeze: " + frozen.ToString());
    const bool noop = model.frozen_now.empty();
    const Status merged = db.ingest(table)->Merge();
    if (noop) {
      ++stats.noop_merges;
    } else {
      model.ModelMergeSuccess();
      ++stats.merges;
    }
    if (!merged.ok()) Fail(ctx + ": final merge: " + merged.ToString());
    check_query(/*collect=*/true, ctx);
    if (model.persisted() != ref.size()) {
      Fail(ctx + ": model persisted " + std::to_string(model.persisted()) +
           " != append log " + std::to_string(ref.size()));
    }
  }

  // --- Counter reconciliation. -------------------------------------
  // The gauge reflects the store's last publish; read it before the
  // engine (and with it the store) is torn down.
  const int64_t gauge_now =
      obs::MetricsRegistry::Default().GetGauge("rodb.ingest.frozen_segments")
          ->Value();
  if (gauge_now != static_cast<int64_t>(model.frozen_now.size())) {
    Fail(ctx_base + ": frozen_segments gauge " + std::to_string(gauge_now) +
         " != model " + std::to_string(model.frozen_now.size()));
  }
  // Tear down through the destructor path (waits out the store) so
  // retirement of obsolete leases has definitely happened.
  db.ConfigureEngine(EngineOptions());
  const MetricsSample after = MetricsSample::Take();
  const auto reconcile = [&](const char* name, uint64_t got, uint64_t want) {
    if (got != want) {
      Fail(ctx_base + ": rodb.ingest." + name + " delta " +
           std::to_string(got) + " != model " + std::to_string(want));
    }
  };
  reconcile("appends", after.appends - before.appends, model.appends);
  reconcile("batches", after.batches - before.batches, model.batches);
  reconcile("freezes", after.freezes - before.freezes, model.freezes);
  reconcile("frozen_tuples", after.frozen_tuples - before.frozen_tuples,
            model.frozen_tuples);
  reconcile("merges", after.merges - before.merges, model.merges);
  reconcile("merged_tuples", after.merged_tuples - before.merged_tuples,
            model.merged_tuples);
  reconcile("merge_failures", after.merge_failures - before.merge_failures,
            model.merge_failures);
  reconcile("snapshots", after.snapshots - before.snapshots, model.snapshots);
  reconcile("tables_retired", after.tables_retired - before.tables_retired,
            model.tables_retired);
  ++stats.counter_checks;
  stats.freezes += model.freezes;  // reconciled: segments actually persisted
  stats.state_hash = FoldU64(stats.state_hash, model.epoch);

  std::filesystem::remove_all(dir, ec);
  ++stats.iterations;
  if (options.verbose) {
    Log("iter " + std::to_string(iter) + ": " + std::to_string(ref.size()) +
        " tuples, " + std::to_string(num_attrs) + " attrs, " +
        (fault_mode ? "faulted" : "clean") +
        ", mismatches=" + std::to_string(stats.mismatches));
  }
  return Status::OK();
}

}  // namespace

Result<IngestFuzzStats> RunIngestFuzz(const IngestFuzzOptions& options) {
  if (options.iterations < 0 || options.min_steps <= 0 ||
      options.min_steps > options.max_steps || options.max_batch == 0) {
    return Status::InvalidArgument("bad ingest fuzz options");
  }
  Runner runner(options);
  std::string tmpl =
      (std::filesystem::temp_directory_path() / "rodb_ingest_fuzz_XXXXXX")
          .string();
  if (::mkdtemp(tmpl.data()) == nullptr) {
    return Status::IoError("mkdtemp failed for " + tmpl);
  }
  runner.root_dir = tmpl;
  Status status;
  for (int i = 0; i < options.iterations; ++i) {
    status = runner.RunIteration(static_cast<uint64_t>(i));
    if (!status.ok()) break;
  }
  std::error_code ec;
  std::filesystem::remove_all(runner.root_dir, ec);
  RODB_RETURN_IF_ERROR(status);
  runner.Log(
      "ingest fuzz: " + std::to_string(runner.stats.iterations) +
      " iterations, " + std::to_string(runner.stats.queries) + " queries, " +
      std::to_string(runner.stats.appended_tuples) + " tuples, " +
      std::to_string(runner.stats.merges) + " merges, " +
      std::to_string(runner.stats.injected_faults) + " faults, " +
      std::to_string(runner.stats.crash_recoveries) + " recoveries, " +
      std::to_string(runner.stats.mismatches) + " mismatches");
  return runner.stats;
}

}  // namespace rodb::fuzz
