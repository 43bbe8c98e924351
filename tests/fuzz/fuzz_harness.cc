#include "fuzz_harness.h"

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include <chrono>

#include "common/bytes.h"
#include "common/file_util.h"
#include "common/macros.h"
#include "common/random.h"
#include "engine/aggregate.h"
#include "engine/executor.h"
#include "engine/open_scanner.h"
#include "engine/parallel_executor.h"
#include "engine/query_context.h"
#include "engine/reference_eval.h"
#include "engine/zone_pruner.h"
#include "io/block_cache.h"
#include "io/fault_injection.h"
#include "io/file_backend.h"
#include "io/retry_backend.h"
#include "storage/catalog.h"
#include "storage/synopsis.h"
#include "storage/table_files.h"

namespace rodb::fuzz {

namespace {

uint64_t Mix(uint64_t a, uint64_t b) {
  // splitmix64-style finalizer over the pair.
  uint64_t z = a + 0x9e3779b97f4a7c15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t FoldBytes(uint64_t hash, const uint8_t* data, size_t size) {
  return Fnv1aExtend(hash, data, size);
}

uint64_t FoldU64(uint64_t hash, uint64_t v) {
  uint8_t buf[8];
  StoreLE64(buf, v);
  return FoldBytes(hash, buf, sizeof(buf));
}

/// How one attribute's values are generated (and which codec encodes
/// them). The value ranges respect the codec constraints so every
/// generated tuple is encodable.
struct AttrGen {
  AttributeDesc desc;
  enum Kind { kPlain, kBitPack, kFor, kForDelta, kDictWord, kCharText } kind;
  int bits = 0;
  int32_t running = 0;          ///< FOR base drift / FOR-delta running value
  int char_count = 0;           ///< kCharText: packed character count
  std::vector<std::string> words;  ///< kDictWord pool
};

constexpr char kCharPackAlphabet[] = "abcdefghijklmno";  // sans the pad ' '

/// One generated relation: compressed schema, its uncompressed twin
/// (same types and widths, all codecs None) and the raw tuples.
struct Dataset {
  Schema compressed;
  Schema plain;
  std::vector<std::vector<uint8_t>> tuples;
  size_t page_size = 0;
  size_t io_unit = 0;
  uint64_t bytes_hash = 0;  ///< digest of schema text + tuple bytes
};

/// One generated query: a scan spec plus an optional aggregation over the
/// scan's output columns.
struct Query {
  ScanSpec spec;
  bool has_agg = false;
  AggPlan agg;
};

Result<Dataset> GenerateDataset(Random& rng, uint32_t min_tuples,
                                uint32_t max_tuples) {
  const size_t num_attrs = 2 + rng.Uniform(4);  // 2..5
  std::vector<AttrGen> gens;
  std::vector<AttributeDesc> comp_attrs;
  std::vector<AttributeDesc> plain_attrs;
  for (size_t a = 0; a < num_attrs; ++a) {
    AttrGen gen;
    const std::string name = "a" + std::to_string(a);
    switch (rng.Uniform(6)) {
      case 0:
        gen.kind = AttrGen::kPlain;
        gen.desc = AttributeDesc::Int32(name);
        break;
      case 1:
        gen.kind = AttrGen::kBitPack;
        gen.bits = 4 + static_cast<int>(rng.Uniform(7));  // 4..10
        gen.desc = AttributeDesc::Int32(name, CodecSpec::BitPack(gen.bits));
        break;
      case 2:
        gen.kind = AttrGen::kFor;
        gen.desc = AttributeDesc::Int32(name, CodecSpec::For(16));
        gen.running = static_cast<int32_t>(rng.UniformRange(-50000, 50000));
        break;
      case 3:
        gen.kind = AttrGen::kForDelta;
        gen.desc = AttributeDesc::Int32(name, CodecSpec::ForDelta(8));
        gen.running = static_cast<int32_t>(rng.UniformRange(-1000, 1000));
        break;
      case 4: {
        gen.kind = AttrGen::kDictWord;
        gen.desc = AttributeDesc::Text(name, 8, CodecSpec::Dict(3));
        // Pool of exactly 8 distinct 8-char words (Dict(3) capacity);
        // the index-derived last character guarantees distinctness.
        for (int w = 0; w < 8; ++w) {
          gen.words.push_back(
              rng.String(7, "abcdefghijklmnopqrstuvwxyz") +
              static_cast<char>('a' + w));
        }
        break;
      }
      default: {
        gen.kind = AttrGen::kCharText;
        const int width = 4 + static_cast<int>(rng.Uniform(5));  // 4..8
        gen.char_count = 1 + static_cast<int>(rng.Uniform(width));
        gen.desc = AttributeDesc::Text(name, width,
                                       CodecSpec::CharPack(4, gen.char_count));
        break;
      }
    }
    comp_attrs.push_back(gen.desc);
    AttributeDesc plain_desc = gen.desc;
    plain_desc.codec = CodecSpec::None();
    plain_attrs.push_back(plain_desc);
    gens.push_back(std::move(gen));
  }

  Dataset dataset;
  RODB_ASSIGN_OR_RETURN(dataset.compressed,
                        Schema::Make(std::move(comp_attrs)));
  RODB_ASSIGN_OR_RETURN(dataset.plain, Schema::Make(std::move(plain_attrs)));

  const uint32_t num_tuples =
      min_tuples +
      static_cast<uint32_t>(rng.Uniform(max_tuples - min_tuples + 1));
  const size_t width = static_cast<size_t>(dataset.plain.raw_tuple_width());
  for (uint32_t i = 0; i < num_tuples; ++i) {
    std::vector<uint8_t> tuple(width, 0);
    for (size_t a = 0; a < gens.size(); ++a) {
      AttrGen& gen = gens[a];
      uint8_t* out =
          tuple.data() + static_cast<size_t>(dataset.plain.attr_offset(a));
      switch (gen.kind) {
        case AttrGen::kPlain:
          StoreLE32s(out,
                     static_cast<int32_t>(rng.UniformRange(-100000, 100000)));
          break;
        case AttrGen::kBitPack:
          StoreLE32s(out,
                     static_cast<int32_t>(rng.Uniform(1ULL << gen.bits)));
          break;
        case AttrGen::kFor:
          // Values stay within 2^16 of any page base; pages that close
          // early on a backward jump just re-base (allowed).
          StoreLE32s(out, gen.running + static_cast<int32_t>(
                                            rng.Uniform(20000)));
          break;
        case AttrGen::kForDelta:
          gen.running += static_cast<int32_t>(rng.Uniform(100));
          StoreLE32s(out, gen.running);
          break;
        case AttrGen::kDictWord: {
          const std::string& word = gen.words[rng.Uniform(gen.words.size())];
          std::memcpy(out, word.data(), word.size());
          break;
        }
        case AttrGen::kCharText: {
          const std::string text =
              rng.String(static_cast<size_t>(gen.char_count),
                         kCharPackAlphabet);
          std::memcpy(out, text.data(), text.size());
          std::memset(out + gen.char_count, ' ',
                      static_cast<size_t>(gen.desc.width - gen.char_count));
          break;
        }
      }
    }
    dataset.tuples.push_back(std::move(tuple));
  }

  const size_t page_sizes[] = {512, 1024, 2048};
  dataset.page_size = page_sizes[rng.Uniform(3)];
  dataset.io_unit = dataset.page_size << rng.Uniform(3);  // 1x/2x/4x

  std::string schema_text;
  dataset.compressed.AppendTo(&schema_text);
  uint64_t hash = kFnv1aSeed;
  hash = FoldBytes(hash,
                   reinterpret_cast<const uint8_t*>(schema_text.data()),
                   schema_text.size());
  for (const auto& tuple : dataset.tuples) {
    hash = FoldBytes(hash, tuple.data(), tuple.size());
  }
  hash = FoldU64(hash, dataset.page_size);
  hash = FoldU64(hash, dataset.io_unit);
  dataset.bytes_hash = hash;
  return dataset;
}

Query GenerateQuery(Random& rng, const Dataset& dataset, int force_prune) {
  const Schema& schema = dataset.plain;
  const size_t num_attrs = schema.num_attributes();
  Query query;

  // Projection: random non-empty subset in random order, no duplicates.
  std::vector<int> attrs(num_attrs);
  for (size_t a = 0; a < num_attrs; ++a) attrs[a] = static_cast<int>(a);
  for (size_t a = num_attrs; a > 1; --a) {
    std::swap(attrs[a - 1], attrs[rng.Uniform(a)]);
  }
  const size_t keep = 1 + rng.Uniform(num_attrs);
  query.spec.projection.assign(attrs.begin(), attrs.begin() + keep);

  // 0-2 predicates; operands are sampled from the data so selectivities
  // are non-degenerate.
  const size_t num_preds = rng.Uniform(3);
  for (size_t p = 0; p < num_preds; ++p) {
    const size_t attr = rng.Uniform(num_attrs);
    const CompareOp op = static_cast<CompareOp>(rng.Uniform(6));
    const std::vector<uint8_t>& sample =
        dataset.tuples[rng.Uniform(dataset.tuples.size())];
    const uint8_t* value = sample.data() + schema.attr_offset(attr);
    if (schema.attribute(attr).type == AttrType::kInt32) {
      query.spec.predicates.push_back(
          Predicate::Int32(static_cast<int>(attr), op, LoadLE32s(value)));
    } else {
      query.spec.predicates.push_back(Predicate::Text(
          static_cast<int>(attr), op,
          std::string(reinterpret_cast<const char*>(value),
                      static_cast<size_t>(schema.attribute(attr).width))));
    }
  }

  query.spec.read.io_unit_bytes = dataset.io_unit;
  query.spec.block_tuples = 16 + static_cast<uint32_t>(rng.Uniform(140));

  // Vectorized-kernel axis: half the queries take the batched selection-
  // mask kernels, half the value-at-a-time engine. Results, faults and
  // resilience behavior must be identical either way.
  query.spec.vectorized = rng.Bernoulli(0.5);

  // Zone-map pruning axis: half the queries ask the scanners to skip
  // pages their synopses rule out. The draw is consumed even when
  // force_prune pins the flag, so every other random choice -- datasets,
  // predicates, fault seeds -- is identical across the CI prune matrix.
  const bool prune_draw = rng.Bernoulli(0.5);
  query.spec.prune = force_prune < 0 ? prune_draw : force_prune != 0;

  // Half the queries aggregate on top of the scan. Group/input columns
  // address the scan's output layout and must be int32.
  if (rng.Bernoulli(0.5)) {
    std::vector<int> int_cols;
    for (size_t i = 0; i < query.spec.projection.size(); ++i) {
      const size_t attr = static_cast<size_t>(query.spec.projection[i]);
      if (schema.attribute(attr).type == AttrType::kInt32) {
        int_cols.push_back(static_cast<int>(i));
      }
    }
    query.has_agg = true;
    query.agg.group_column =
        !int_cols.empty() && rng.Bernoulli(0.6)
            ? int_cols[rng.Uniform(int_cols.size())]
            : -1;
    const size_t num_aggs = 1 + rng.Uniform(2);
    for (size_t i = 0; i < num_aggs; ++i) {
      AggSpec agg;
      if (int_cols.empty() || rng.Bernoulli(0.25)) {
        agg.func = AggFunc::kCount;
      } else {
        const AggFunc funcs[] = {AggFunc::kSum, AggFunc::kMin, AggFunc::kMax,
                                 AggFunc::kAvg};
        agg.func = funcs[rng.Uniform(4)];
        agg.column = int_cols[rng.Uniform(int_cols.size())];
      }
      query.agg.aggs.push_back(agg);
    }
  }
  return query;
}

/// Drains a plan, returning the output tuples as byte strings.
Result<std::vector<std::vector<uint8_t>>> CollectOutput(Operator* root) {
  RODB_RETURN_IF_ERROR(root->Open());
  std::vector<std::vector<uint8_t>> out;
  const size_t width = static_cast<size_t>(root->output_layout().tuple_width);
  while (true) {
    RODB_ASSIGN_OR_RETURN(TupleBlock * block, root->Next());
    if (block == nullptr) break;
    for (uint32_t i = 0; i < block->size(); ++i) {
      out.emplace_back(block->tuple(i), block->tuple(i) + width);
    }
  }
  root->Close();
  return out;
}

/// Shared state of one fuzz run.
struct Runner {
  const FuzzOptions& options;
  FuzzStats stats;
  std::string root_dir;

  explicit Runner(const FuzzOptions& opts) : options(opts) {
    stats.state_hash = kFnv1aSeed;
  }

  void Log(const std::string& line) {
    if (options.out != nullptr) *options.out << line << "\n";
  }

  void Fail(const std::string& what) {
    ++stats.mismatches;
    stats.failures.push_back(what);
    Log("FAIL: " + what);
  }

  void FoldOutcome(uint64_t tag, const Status& status, uint64_t rows,
                   uint64_t checksum) {
    stats.state_hash = FoldU64(stats.state_hash, tag);
    stats.state_hash =
        FoldU64(stats.state_hash, static_cast<uint64_t>(status.code()));
    stats.state_hash = FoldU64(stats.state_hash, rows);
    stats.state_hash = FoldU64(stats.state_hash, checksum);
  }

  Result<OperatorPtr> BuildSerialPlan(const OpenTable& table,
                                      const Query& query, IoBackend* backend,
                                      ExecStats* stats_out, bool faulted,
                                      bool early_mat,
                                      BlockCache* cache = nullptr) {
    ScanSpec spec = query.spec;
    spec.read.verify_checksums = faulted;
    spec.read.cache = cache;
    RODB_ASSIGN_OR_RETURN(
        OperatorPtr scan,
        OpenScanner(table, std::move(spec), backend, stats_out,
                    early_mat ? ScannerImpl::kEarlyMat : ScannerImpl::kAuto));
    if (!query.has_agg) return scan;
    return SortAggOperator::Make(std::move(scan), query.agg, stats_out);
  }

  /// Serial clean run: exact tuple equality against the oracle, plus an
  /// independent Execute() checksum comparison and an I/O-shape check
  /// through the tracing backend. On success the Execute() run's counters
  /// are stored in `serial_out` (when non-null) as the stats-invariance
  /// baseline for the parallel and cached runs of the same table.
  void RunSerialClean(const OpenTable& table, const Query& query,
                      const ReferenceResult& oracle, const std::string& ctx,
                      bool early_mat, ExecCounters* serial_out = nullptr) {
    FileBackend file_backend;
    TracingBackend tracing(&file_backend);
    {
      ExecStats exec_stats;
      auto plan = BuildSerialPlan(table, query, &tracing, &exec_stats,
                                  /*faulted=*/false, early_mat);
      if (!plan.ok()) {
        Fail(ctx + ": plan build failed: " + plan.status().ToString());
        return;
      }
      auto out = CollectOutput(plan->get());
      if (!out.ok()) {
        Fail(ctx + ": clean run errored: " + out.status().ToString());
        FoldOutcome(1, out.status(), 0, 0);
        return;
      }
      ++stats.clean_runs;
      if (*out != oracle.tuples) {
        Fail(ctx + ": output tuples diverge from the oracle (" +
             std::to_string(out->size()) + " vs " +
             std::to_string(oracle.tuples.size()) + " rows)");
      }
      FoldOutcome(1, Status::OK(), out->size(), oracle.output_checksum);
      // The scan must have opened exactly the files its pipeline needs --
      // or, when an active prune plan carved them up, one stream per
      // retained byte run at most (inner column nodes pull their runs
      // lazily, so trailing runs no qualifying position reaches may never
      // be opened; the driving node always drains all of its runs).
      const PrunePlan prune_plan = BuildPrunePlan(table, query.spec);
      if (prune_plan.active) {
        uint64_t max_opens = 0;
        uint64_t min_opens = 0;
        if (early_mat) {
          // Early materialization drives every cursor over the *global*
          // survivor set, not its own node's zones: an empty intersection
          // of all predicate nodes opens nothing at all, and each cursor
          // opens at most one stream per retained run of its file.
          for (size_t attr : ScanPipelineAttrs(query.spec)) {
            const size_t runs =
                PageRunsForPositions(prune_plan.global,
                                     table.meta().PageValues(attr))
                    .size();
            max_opens += runs;
            if (runs > 0) min_opens += 1;
          }
        } else {
          for (const NodePrunePlan& node : prune_plan.nodes) {
            max_opens += node.page_runs.size();
          }
          min_opens = prune_plan.nodes.front().page_runs.size();
        }
        if (tracing.total_opens() < min_opens ||
            tracing.total_opens() > max_opens) {
          Fail(ctx + ": pruned scan opened " +
               std::to_string(tracing.total_opens()) +
               " streams, expected between " + std::to_string(min_opens) +
               " and " + std::to_string(max_opens));
        }
      } else {
        const uint64_t expected_opens =
            table.meta().layout == Layout::kColumn
                ? ScanPipelineAttrs(query.spec).size()
                : 1;
        if (tracing.total_opens() != expected_opens) {
          Fail(ctx + ": opened " + std::to_string(tracing.total_opens()) +
               " streams, expected " + std::to_string(expected_opens));
        }
      }
    }
    // Independent full-pipeline run through Execute(), checking the
    // chained output checksum against the oracle's.
    {
      ExecStats exec_stats;
      auto plan = BuildSerialPlan(table, query, &file_backend, &exec_stats,
                                  /*faulted=*/false, early_mat);
      if (!plan.ok()) return;  // already reported above
      auto result = Execute(plan->get(), &exec_stats);
      if (!result.ok()) {
        Fail(ctx + ": Execute errored: " + result.status().ToString());
        return;
      }
      ++stats.clean_runs;
      if (result->rows != oracle.rows ||
          result->output_checksum != oracle.output_checksum) {
        Fail(ctx + ": Execute rows/checksum diverge from the oracle");
      }
      if (serial_out != nullptr) *serial_out = exec_stats.counters();
    }
  }

  /// Cold-then-warm serial runs over one BlockCache: both must answer
  /// exactly like the oracle, and the fully-warm pass must not reopen
  /// any backend stream (the cache is sized to hold the whole table).
  /// Stats invariance vs the uncached serial baseline: the cache must
  /// not change the logical work (tuples examined, pages parsed) or the
  /// total byte traffic -- it only moves bytes from the backend column
  /// to the cache column, and a warm pass leaves the backend untouched.
  void RunCachedClean(const OpenTable& table, const Query& query,
                      const ReferenceResult& oracle, const std::string& ctx,
                      const ExecCounters* serial) {
    FileBackend file_backend;
    TracingBackend tracing(&file_backend);
    BlockCache cache(64ULL << 20, 4);
    uint64_t opens_after_cold = 0;
    for (int pass = 0; pass < 2; ++pass) {
      const char* what = pass == 0 ? " (cold)" : " (warm)";
      ExecStats exec_stats;
      auto plan = BuildSerialPlan(table, query, &tracing, &exec_stats,
                                  /*faulted=*/false, /*early_mat=*/false,
                                  &cache);
      if (!plan.ok()) {
        Fail(ctx + what + ": plan build failed: " + plan.status().ToString());
        return;
      }
      auto result = Execute(plan->get(), &exec_stats);
      if (!result.ok()) {
        Fail(ctx + what + ": errored: " + result.status().ToString());
        FoldOutcome(4, result.status(), 0, 0);
        return;
      }
      ++stats.clean_runs;
      if (result->rows != oracle.rows ||
          result->output_checksum != oracle.output_checksum) {
        Fail(ctx + what + ": rows/checksum diverge from the oracle");
      }
      FoldOutcome(4, Status::OK(), result->rows, result->output_checksum);
      if (serial != nullptr) {
        ++stats.invariance_checks;
        const ExecCounters& c = exec_stats.counters();
        if (c.tuples_examined != serial->tuples_examined ||
            c.pages_parsed != serial->pages_parsed) {
          Fail(ctx + what + ": cached logical work diverges from serial (" +
               std::to_string(c.tuples_examined) + "/" +
               std::to_string(c.pages_parsed) + " vs " +
               std::to_string(serial->tuples_examined) + "/" +
               std::to_string(serial->pages_parsed) + ")");
        }
        if (c.io_bytes_read + c.io_bytes_from_cache !=
            serial->io_bytes_read) {
          Fail(ctx + what + ": backend+cache bytes (" +
               std::to_string(c.io_bytes_read) + "+" +
               std::to_string(c.io_bytes_from_cache) +
               ") != serial backend bytes " +
               std::to_string(serial->io_bytes_read));
        }
        if (pass == 1 && c.io_bytes_read != 0) {
          Fail(ctx + what + ": warm pass read " +
               std::to_string(c.io_bytes_read) + " bytes from the backend");
        }
        stats.state_hash = FoldU64(stats.state_hash, c.io_bytes_read);
        stats.state_hash = FoldU64(stats.state_hash, c.io_bytes_from_cache);
      }
      if (pass == 0) opens_after_cold = tracing.total_opens();
    }
    if (tracing.total_opens() != opens_after_cold) {
      Fail(ctx + ": warm cached run reopened backend streams (" +
           std::to_string(tracing.total_opens()) + " vs " +
           std::to_string(opens_after_cold) + " after cold)");
    }
    // A pruned scan can legitimately read zero bytes (every page
    // zone-proven predicate-free), leaving the warm pass nothing to hit;
    // only demand hits when the cold pass actually populated the cache.
    if (cache.stats().inserted_bytes > 0 && cache.stats().hits == 0) {
      Fail(ctx + ": warm cached run never hit the cache");
    }
  }

  /// Fault runs with a fresh cache above the fault injector: the faulted
  /// cold run behaves like any fault run (a clean Status error or the
  /// exact answer), and a warm re-run over the now-clean backend must
  /// never serve stale garbage from blocks populated under faults --
  /// corrupted-but-cached units have to surface through page checksums.
  void RunCachedFaulted(const OpenTable& table, const Query& query,
                        const ReferenceResult& oracle, const std::string& ctx,
                        uint64_t fault_seed) {
    FileBackend file_backend;
    FaultSpec fault_spec;
    fault_spec.seed = fault_seed;
    fault_spec.error_probability = 0.03;
    fault_spec.short_read_probability = 0.15;
    fault_spec.truncate_probability = 0.2;
    fault_spec.bit_flip_probability = 0.2;
    FaultInjectingBackend faulty(&file_backend, fault_spec);
    BlockCache cache(64ULL << 20, 4);

    auto one_run = [&](IoBackend* backend, const char* what) {
      Status status;
      uint64_t rows = 0;
      uint64_t checksum = 0;
      ExecStats exec_stats;
      auto plan = BuildSerialPlan(table, query, backend, &exec_stats,
                                  /*faulted=*/true, /*early_mat=*/false,
                                  &cache);
      if (!plan.ok()) {
        Fail(ctx + ": cached fault-run plan build failed: " +
             plan.status().ToString());
        return;
      }
      auto result = Execute(plan->get(), &exec_stats);
      status = result.status();
      if (result.ok()) {
        rows = result->rows;
        checksum = result->output_checksum;
      }
      ++stats.fault_runs;
      if (status.ok()) {
        ++stats.fault_successes;
        if (rows != oracle.rows || checksum != oracle.output_checksum) {
          Fail(ctx + ": " + what + " (rows " + std::to_string(rows) +
               " vs " + std::to_string(oracle.rows) + ")");
        }
      } else {
        ++stats.fault_errors;
      }
      FoldOutcome(5, status, rows, checksum);
    };

    one_run(&faulty, "SILENTLY WRONG under faults with cache");
    stats.injected_faults += faulty.injected_total();
    one_run(&file_backend, "STALE CACHE GARBAGE after faulted run");
  }

  /// Morsel-parallel clean run of the query's scan; `oracle` is the scan
  /// oracle.
  void RunParallelClean(const OpenTable& table, const Query& query,
                        const ReferenceResult& oracle, const std::string& ctx,
                        const ExecCounters* serial) {
    FileBackend file_backend;
    ParallelScanPlan plan;
    plan.table = &table;
    plan.spec = query.spec;
    plan.backend = &file_backend;
    auto result = ParallelExecute(plan, options.parallelism);
    if (!result.ok()) {
      Fail(ctx + ": parallel clean run errored: " +
           result.status().ToString());
      FoldOutcome(2, result.status(), 0, 0);
      return;
    }
    ++stats.clean_runs;
    if (result->result.rows != oracle.rows ||
        result->result.output_checksum != oracle.output_checksum) {
      Fail(ctx + ": parallel rows/checksum diverge from the oracle");
    }
    // Stats invariance: morsel parallelism never changes how many rows
    // the scan logically examines. (Byte counts can legitimately grow by
    // boundary fragments on multi-file layouts, so only the logical row
    // count is pinned here.) Under an active prune plan the equality
    // relaxes to <=: ParallelExecute drops whole morsels outside the
    // *intersection* of every predicate's zone-accept runs, while the
    // serial column pipeline's driving node still drains pages retained
    // by its own zones alone -- so multi-predicate column scans can
    // legitimately examine fewer tuples in parallel, never more.
    if (serial != nullptr) {
      ++stats.invariance_checks;
      const PrunePlan prune_plan = BuildPrunePlan(table, query.spec);
      const bool diverged =
          prune_plan.active
              ? result->counters.tuples_examined > serial->tuples_examined
              : result->counters.tuples_examined != serial->tuples_examined;
      if (diverged) {
        Fail(ctx + ": parallel examined " +
             std::to_string(result->counters.tuples_examined) +
             " tuples, serial examined " +
             std::to_string(serial->tuples_examined) +
             (prune_plan.active ? " (prune plan active)" : ""));
      }
      stats.state_hash =
          FoldU64(stats.state_hash, result->counters.tuples_examined);
    }
    FoldOutcome(2, Status::OK(), result->result.rows,
                result->result.output_checksum);
  }

  /// A fault run may fail with any clean Status error, or succeed -- in
  /// which case the answer must be exactly the oracle's. Anything else
  /// (silently wrong results) is a bug. A parallel run executes the
  /// query's scan only, so its caller passes the scan oracle.
  void RunFaulted(const OpenTable& table, const Query& query,
                  const ReferenceResult& oracle, const std::string& ctx,
                  uint64_t fault_seed, bool parallel) {
    FileBackend file_backend;
    FaultSpec fault_spec;
    fault_spec.seed = fault_seed;
    fault_spec.error_probability = 0.03;
    fault_spec.short_read_probability = 0.15;
    fault_spec.truncate_probability = 0.2;
    fault_spec.bit_flip_probability = 0.2;
    FaultInjectingBackend faulty(&file_backend, fault_spec);

    Status status;
    uint64_t rows = 0;
    uint64_t checksum = 0;
    if (parallel) {
      ScanSpec spec = query.spec;
      spec.read.verify_checksums = true;
      ParallelScanPlan plan;
      plan.table = &table;
      plan.spec = std::move(spec);
      plan.backend = &faulty;
      auto result = ParallelExecute(plan, options.parallelism);
      status = result.status();
      if (result.ok()) {
        rows = result->result.rows;
        checksum = result->result.output_checksum;
      }
    } else {
      ExecStats exec_stats;
      auto plan = BuildSerialPlan(table, query, &faulty, &exec_stats,
                                  /*faulted=*/true, /*early_mat=*/false);
      if (!plan.ok()) {
        Fail(ctx + ": fault-run plan build failed: " +
             plan.status().ToString());
        return;
      }
      auto result = Execute(plan->get(), &exec_stats);
      status = result.status();
      if (result.ok()) {
        rows = result->rows;
        checksum = result->output_checksum;
      }
    }
    ++stats.fault_runs;
    // Only the serial leg's draws replay exactly: the parallel leg's
    // workers stop at timing-dependent points once a sibling fails.
    if (!parallel) stats.injected_faults += faulty.injected_total();
    if (status.ok()) {
      ++stats.fault_successes;
      if (rows != oracle.rows || checksum != oracle.output_checksum) {
        Fail(ctx + ": SILENTLY WRONG under faults (rows " +
             std::to_string(rows) + " vs " + std::to_string(oracle.rows) +
             ")");
      }
    } else {
      ++stats.fault_errors;
    }
    if (parallel) {
      // Whether a parallel faulted run fails is deterministic
      // (cancellation only ever starts after a worker's own seeded
      // fault fires), but WHICH worker's error wins the race is not:
      // a sibling may be cancelled before or after reaching its own
      // fault, so the surfaced code can flip between e.g. IoError and
      // Corruption across runs. Fold only the stable classification.
      FoldOutcome(3, status.ok() ? Status::OK() : Status::IoError("faulted"),
                  rows, checksum);
    } else {
      FoldOutcome(3, status, rows, checksum);
    }
  }

  /// The resilience axis: the same (table, query) under a QueryContext.
  /// Three deterministic configurations are folded into the state hash
  /// (their outcomes are pure functions of the options: a seeded
  /// transient-fault run healed by bounded retries, a pre-cancelled
  /// context, an already-expired deadline); a fourth races a tiny live
  /// deadline against real parallel execution of the query's scan and
  /// asserts only the classification contract -- the exact answer (the
  /// scan oracle's) or a clean Cancelled/DeadlineExceeded/IoError, never
  /// a hang or a silent truncation.
  void RunResilience(const OpenTable& table, const Query& query,
                     const ReferenceResult& oracle,
                     const ReferenceResult& scan_oracle,
                     const std::string& ctx, uint64_t seed) {
    FileBackend file_backend;

    // (a) transient faults healed by bounded retries, reconciled exactly
    // against the injector's log: every injected error was either
    // re-issued or given up on.
    {
      FaultSpec fault_spec;
      fault_spec.seed = seed;
      fault_spec.error_probability = 0.05;
      FaultInjectingBackend faulty(&file_backend, fault_spec);
      RetryPolicy policy;
      policy.max_retries = 3;
      policy.initial_backoff_micros = 0;  // retry at full speed
      policy.seed = seed;
      RetryingBackend retrying(&faulty, policy);
      ExecStats exec_stats;
      auto plan = BuildSerialPlan(table, query, &retrying, &exec_stats,
                                  /*faulted=*/true, /*early_mat=*/false);
      if (!plan.ok()) {
        Fail(ctx + ": retry-run plan build failed: " +
             plan.status().ToString());
        return;
      }
      auto result = Execute(plan->get(), &exec_stats);
      ++stats.resilience_runs;
      stats.retry_injected += faulty.injected_errors();
      stats.retry_attempts += retrying.attempts();
      stats.retry_giveups += retrying.giveups();
      if (faulty.injected_errors() !=
          retrying.attempts() + retrying.giveups()) {
        Fail(ctx + ": retry ledger does not reconcile (injected " +
             std::to_string(faulty.injected_errors()) + " != attempts " +
             std::to_string(retrying.attempts()) + " + giveups " +
             std::to_string(retrying.giveups()) + ")");
      }
      uint64_t rows = 0;
      uint64_t checksum = 0;
      if (result.ok()) {
        rows = result->rows;
        checksum = result->output_checksum;
        if (rows != oracle.rows || checksum != oracle.output_checksum) {
          Fail(ctx + ": SILENTLY WRONG after retries (rows " +
               std::to_string(rows) + " vs " + std::to_string(oracle.rows) +
               ")");
        }
      } else if (result.status().code() != StatusCode::kIoError) {
        // Only transient errors are injected, so the one legal failure
        // is the retry layer giving up and surfacing IoError.
        Fail(ctx + ": retry run failed with unexpected status: " +
             result.status().ToString());
      }
      FoldOutcome(6, result.status(), rows, checksum);
    }

    // (b) pre-cancelled context: deterministically kCancelled, at most
    // one page of work in.
    {
      QueryContext qctx;
      qctx.Cancel();
      ExecStats exec_stats;
      exec_stats.set_context(&qctx);
      auto plan = BuildSerialPlan(table, query, &file_backend, &exec_stats,
                                  /*faulted=*/false, /*early_mat=*/false);
      if (!plan.ok()) {
        Fail(ctx + ": cancelled-run plan build failed: " +
             plan.status().ToString());
        return;
      }
      auto result = Execute(plan->get(), &exec_stats);
      ++stats.resilience_runs;
      if (!result.ok() && result.status().IsCancelled()) {
        ++stats.cancelled_runs;
      } else {
        Fail(ctx + ": pre-cancelled query returned " +
             result.status().ToString());
      }
      FoldOutcome(7, result.status(), 0, 0);
    }

    // (c) already-expired deadline: deterministically kDeadlineExceeded.
    {
      QueryContext qctx;
      qctx.set_deadline(std::chrono::steady_clock::now() -
                        std::chrono::milliseconds(1));
      ExecStats exec_stats;
      exec_stats.set_context(&qctx);
      auto plan = BuildSerialPlan(table, query, &file_backend, &exec_stats,
                                  /*faulted=*/false, /*early_mat=*/false);
      if (!plan.ok()) {
        Fail(ctx + ": deadline-run plan build failed: " +
             plan.status().ToString());
        return;
      }
      auto result = Execute(plan->get(), &exec_stats);
      ++stats.resilience_runs;
      if (!result.ok() && result.status().IsDeadlineExceeded()) {
        ++stats.deadline_runs;
      } else {
        Fail(ctx + ": expired-deadline query returned " +
             result.status().ToString());
      }
      FoldOutcome(8, result.status(), 0, 0);
    }

    // (d) a live sub-millisecond deadline racing real parallel
    // execution. Timing-dependent, so the outcome is NOT folded into the
    // state hash; the contract is classification only.
    {
      Random rng(Mix(seed, 77));
      QueryContext qctx = QueryContext::WithTimeout(
          std::chrono::microseconds(rng.Uniform(800)));
      ParallelScanPlan plan;
      plan.table = &table;
      plan.spec = query.spec;
      plan.backend = &file_backend;
      plan.context = &qctx;
      auto result = ParallelExecute(plan, options.parallelism);
      ++stats.resilience_runs;
      ++stats.live_deadline_runs;
      if (result.ok()) {
        if (result->result.rows != scan_oracle.rows ||
            result->result.output_checksum != scan_oracle.output_checksum) {
          Fail(ctx + ": live-deadline run beat the clock but diverged "
                     "from the oracle");
        }
      } else if (!result.status().IsDeadlineExceeded() &&
                 !result.status().IsCancelled()) {
        Fail(ctx + ": live-deadline run failed with unexpected status: " +
             result.status().ToString());
      }
    }
  }

  /// Corrupted-synopsis run: damages the table's .zmap sidecar (random
  /// bit flip or truncation), reopens the table -- which must reject the
  /// sidecar -- and executes the query with pruning forced on. The legal
  /// outcomes are the exact oracle answer (full-scan degradation) or a
  /// clean Corruption error; silent row loss is the bug class this axis
  /// exists to catch. Runs last for its table: the sidecar stays damaged.
  void RunCorruptSynopsis(const std::string& dir, const std::string& name,
                          const Query& query, const ReferenceResult& oracle,
                          const std::string& ctx, uint64_t seed) {
    const std::string path = SynopsisPath(dir, name);
    auto blob = ReadFileToString(path);
    if (!blob.ok()) {
      Fail(ctx + ": cannot read synopsis sidecar: " +
           blob.status().ToString());
      return;
    }
    std::string bytes = std::move(blob).value();
    if (bytes.empty()) {
      Fail(ctx + ": synopsis sidecar is empty");
      return;
    }
    Random rng(seed);
    if (rng.Bernoulli(0.5)) {
      const size_t pos = rng.Uniform(bytes.size());
      bytes[pos] = static_cast<char>(
          bytes[pos] ^ static_cast<char>(1u << rng.Uniform(8)));
    } else {
      bytes.resize(rng.Uniform(bytes.size()));  // truncate (possibly to 0)
    }
    {
      std::ofstream f(path, std::ios::binary | std::ios::trunc);
      f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
      if (!f) {
        Fail(ctx + ": cannot rewrite synopsis sidecar");
        return;
      }
    }
    auto reopened = OpenTable::Open(dir, name);
    if (!reopened.ok()) {
      Fail(ctx + ": corrupt sidecar broke table open: " +
           reopened.status().ToString());
      FoldOutcome(9, reopened.status(), 0, 0);
      return;
    }
    if (reopened->synopsis() != nullptr || !reopened->synopsis_corrupt()) {
      Fail(ctx + ": damaged sidecar was not rejected at open");
    }
    Query pruned = query;
    pruned.spec.prune = true;
    FileBackend backend;
    ExecStats exec_stats;
    auto plan = BuildSerialPlan(*reopened, pruned, &backend, &exec_stats,
                                /*faulted=*/false, /*early_mat=*/false);
    if (!plan.ok()) {
      Fail(ctx + ": corrupt-synopsis plan build failed: " +
           plan.status().ToString());
      return;
    }
    auto result = Execute(plan->get(), &exec_stats);
    ++stats.synopsis_corrupt_runs;
    uint64_t rows = 0;
    uint64_t checksum = 0;
    if (result.ok()) {
      rows = result->rows;
      checksum = result->output_checksum;
      if (rows != oracle.rows || checksum != oracle.output_checksum) {
        Fail(ctx + ": SILENT ROW LOSS under corrupted synopsis (rows " +
             std::to_string(rows) + " vs " + std::to_string(oracle.rows) +
             ")");
      }
    } else if (!result.status().IsCorruption()) {
      Fail(ctx + ": corrupt-synopsis run failed with unexpected status: " +
           result.status().ToString());
    }
    // A predicated scan that asked for pruning must have noticed the
    // rejected sidecar (predicate-free scans decline before the check).
    if (!pruned.spec.predicates.empty() && result.ok() &&
        exec_stats.counters().synopsis_corrupt == 0) {
      Fail(ctx + ": corrupt sidecar left no synopsis_corrupt counter");
    }
    FoldOutcome(9, result.status(), rows, checksum);
  }

  Status RunIteration(uint64_t iter) {
    const uint64_t iter_seed = Mix(options.seed, iter);
    Random rng(iter_seed);
    RODB_ASSIGN_OR_RETURN(
        Dataset dataset,
        GenerateDataset(rng, options.min_tuples, options.max_tuples));
    const Query query = GenerateQuery(rng, dataset, options.force_prune);
    if (query.spec.vectorized) {
      ++stats.vectorized_queries;
    } else {
      ++stats.scalar_queries;
    }
    if (query.spec.prune) {
      ++stats.pruned_queries;
    } else {
      ++stats.unpruned_queries;
    }
    stats.state_hash = FoldU64(stats.state_hash, dataset.bytes_hash);

    // The oracle answers once for the whole iteration: layouts and codecs
    // must not change the result. The scan oracle checks the parallel
    // legs, which run the query's scan without its aggregate.
    RODB_ASSIGN_OR_RETURN(
        const ReferenceResult scan_oracle,
        ReferenceScan(dataset.plain, dataset.tuples, query.spec));
    ReferenceResult agg_oracle;
    if (query.has_agg) {
      RODB_ASSIGN_OR_RETURN(agg_oracle,
                            ReferenceAggregate(dataset.plain, dataset.tuples,
                                               query.spec, query.agg));
    }
    const ReferenceResult& oracle = query.has_agg ? agg_oracle : scan_oracle;

    const std::string dir = root_dir + "/iter" + std::to_string(iter);
    std::error_code ec;
    std::filesystem::create_directory(dir, ec);
    if (ec) return Status::IoError("cannot create " + dir);

    const Layout layouts[] = {Layout::kRow, Layout::kColumn, Layout::kPax};
    const char* layout_names[] = {"row", "col", "pax"};
    for (int compressed = 0; compressed < 2; ++compressed) {
      const Schema& schema =
          compressed != 0 ? dataset.compressed : dataset.plain;
      for (int l = 0; l < 3; ++l) {
        const std::string name =
            std::string("t_") + (compressed != 0 ? "c" : "u") + "_" +
            layout_names[l];
        RODB_ASSIGN_OR_RETURN(
            auto writer, TableWriter::Create(dir, name, schema, layouts[l],
                                             dataset.page_size));
        for (const auto& tuple : dataset.tuples) {
          RODB_RETURN_IF_ERROR(writer->Append(tuple.data()));
        }
        RODB_RETURN_IF_ERROR(writer->Finish());
        RODB_ASSIGN_OR_RETURN(OpenTable table, OpenTable::Open(dir, name));

        const std::string ctx = "seed=" + std::to_string(options.seed) +
                                " iter=" + std::to_string(iter) + " " + name;
        ExecCounters serial_counters;
        RunSerialClean(table, query, oracle, ctx + " serial",
                       /*early_mat=*/false, &serial_counters);
        RunParallelClean(table, query, scan_oracle, ctx + " parallel",
                         &serial_counters);
        RunCachedClean(table, query, oracle, ctx + " cached",
                       &serial_counters);
        if (layouts[l] == Layout::kColumn) {
          RunSerialClean(table, query, oracle, ctx + " early-mat",
                         /*early_mat=*/true);
        }
        RunFaulted(table, query, oracle, ctx + " serial-fault",
                   Mix(iter_seed, 100 + 2 * (compressed * 3 + l)), false);
        RunFaulted(table, query, scan_oracle, ctx + " parallel-fault",
                   Mix(iter_seed, 101 + 2 * (compressed * 3 + l)), true);
        RunCachedFaulted(table, query, oracle, ctx + " cached-fault",
                         Mix(iter_seed, 700 + 2 * (compressed * 3 + l)));
        RunResilience(table, query, oracle, scan_oracle, ctx + " resilience",
                      Mix(iter_seed, 900 + compressed * 3 + l));
        // Last for this table: leaves the sidecar damaged on purpose.
        RunCorruptSynopsis(dir, name, query, oracle,
                           ctx + " corrupt-synopsis",
                           Mix(iter_seed, 1100 + compressed * 3 + l));
      }
    }
    std::filesystem::remove_all(dir, ec);

    ++stats.iterations;
    if (options.verbose) {
      Log("iter " + std::to_string(iter) + ": " +
          std::to_string(dataset.tuples.size()) + " tuples, " +
          std::to_string(dataset.plain.num_attributes()) + " attrs" +
          (query.has_agg ? ", agg" : "") +
          ", mismatches=" + std::to_string(stats.mismatches));
    }
    return Status::OK();
  }
};

}  // namespace

Result<FuzzStats> RunFuzz(const FuzzOptions& options) {
  if (options.iterations < 0 || options.min_tuples == 0 ||
      options.min_tuples > options.max_tuples) {
    return Status::InvalidArgument("bad fuzz options");
  }
  Runner runner(options);
  std::string tmpl =
      (std::filesystem::temp_directory_path() / "rodb_fuzz_XXXXXX").string();
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
  runner.Log("fuzz: " + std::to_string(runner.stats.iterations) +
             " iterations, " + std::to_string(runner.stats.clean_runs) +
             " clean runs, " + std::to_string(runner.stats.fault_runs) +
             " fault runs (" + std::to_string(runner.stats.fault_errors) +
             " clean errors, " +
             std::to_string(runner.stats.fault_successes) +
             " correct answers), " +
             std::to_string(runner.stats.injected_faults) +
             " faults injected, " +
             std::to_string(runner.stats.resilience_runs) +
             " resilience runs (retry ledger " +
             std::to_string(runner.stats.retry_injected) + " injected = " +
             std::to_string(runner.stats.retry_attempts) + " attempts + " +
             std::to_string(runner.stats.retry_giveups) + " giveups), " +
             std::to_string(runner.stats.mismatches) + " mismatches");
  return runner.stats;
}

}  // namespace rodb::fuzz
