// scan_wide and scan_selective: one in-process caller, serial kExclusive
// queries through QueryEngine::Execute over the default engine
// (FileBackend, no block cache), ten 300k-tuple ORDERS/LINEITEM tables.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "bench.h"
#include "bench_util.h"
#include "engine/executor.h"
#include "engine/open_scanner.h"
#include "io/file_backend.h"
#include "obs/span.h"
#include "server/query_engine.h"
#include "stats.h"
#include "tpch/loader.h"
#include "tpch/tpch_schema.h"
#include "trace.h"

namespace perfbench {

namespace {

using rodb::ExecCounters;
using rodb::Layout;
using rodb::Predicate;
using rodb::QueryRequest;
using rodb::QueryResult;
using rodb::ScanSpec;
using rodb::Status;

struct TableDef {
  bool lineitem = false;
  Layout layout = Layout::kRow;
  bool compressed = false;
  std::string name;
};

/// ORDERS in row, column and PAX layouts and LINEITEM in row and column
/// layouts, each plain and -Z.
std::vector<TableDef> ScanTables(const rodb::bench::Env& env) {
  std::vector<TableDef> tables;
  for (bool lineitem : {false, true}) {
    for (bool z : {false, true}) {
      for (Layout layout : {Layout::kRow, Layout::kColumn, Layout::kPax}) {
        if (lineitem && layout == Layout::kPax) continue;
        TableDef def{lineitem, layout, z, ""};
        def.name = rodb::tpch::TableName(lineitem ? "lineitem" : "orders",
                                         env.Spec(layout, z));
        tables.push_back(def);
      }
    }
  }
  return tables;
}

/// The attributes the queries of one base table use.
struct BaseShape {
  int attrs;
  int date;       ///< non-clustered, uniform
  int32_t date_lo, date_values;
  int key;        ///< clustered, ascending
  int32_t key_values;
  std::vector<int> key_projection;
  int price;
};

BaseShape ShapeOf(bool lineitem) {
  namespace t = rodb::tpch;
  if (lineitem) {
    return {16, t::kLShipdate, 0, t::kDateDomain - 120 + 1, t::kLOrderkey,
            static_cast<int32_t>(kTuples / 4),
            {t::kLOrderkey, t::kLPartkey, t::kLQuantity, t::kLExtendedprice},
            t::kLExtendedprice};
  }
  return {7, t::kOOrderdate, 0, t::kOrderdateDomain, t::kOOrderkey,
          static_cast<int32_t>(kTuples),
          {t::kOOrderkey, t::kOCustkey, t::kOTotalprice}, t::kOTotalprice};
}

/// Non-clustered date: `attr < c` keeping `fraction` of the uniform
/// [lo, lo + values), as the selectivity figures cut. The cutoff is the
/// same for every seed, so every seed does the same amount of work: a
/// seeded cutoff would move whole query classes by 10-30% from seed to
/// seed. A window in the middle of a uniform attribute would make every
/// page's zone span it, so zone maps could never prune.
void AddCutoff(ScanSpec* spec, int attr, int32_t lo, int32_t values,
               double fraction) {
  spec->predicates.push_back(Predicate::Int32(
      attr, rodb::CompareOp::kLt, lo + Width(values, fraction)));
}

struct Kind {
  std::string name;
  ScanSpec spec;
};

/// The query kinds of one base table. Every layout of the base runs the
/// same kinds with the same constants, so all of them share one oracle.
std::vector<Kind> KindsFor(bool lineitem, bool selective, rodb::Random* rng) {
  const BaseShape s = ShapeOf(lineitem);
  std::vector<Kind> kinds;
  if (selective) {
    Kind one{"one_date0.1", {}};
    one.spec.projection = {s.price};
    AddCutoff(&one.spec, s.date, s.date_lo, s.date_values, 0.001);
    kinds.push_back(one);
    // Two seeded clustered-key windows per table: with one of each kind,
    // the round median would fall between the slowest key query and the
    // fastest 0.1% query, whose run count (and so its cost) swings with
    // the data.
    for (const char* name : {"cols_key1a", "cols_key1b"}) {
      Kind key{name, {}};
      key.spec.projection = s.key_projection;
      AddWindow(&key.spec, rng, s.key, 1, s.key_values, 0.01);
      kinds.push_back(key);
    }
  } else {
    Kind all{"all", {}};
    all.spec.projection = rodb::bench::FirstAttrs(s.attrs);
    kinds.push_back(all);
    Kind date10{"all_date10", {}};
    date10.spec.projection = rodb::bench::FirstAttrs(s.attrs);
    AddCutoff(&date10.spec, s.date, s.date_lo, s.date_values, 0.10);
    kinds.push_back(date10);
    Kind half{"half_date50", {}};
    half.spec.projection = rodb::bench::FirstAttrs((s.attrs + 1) / 2);
    AddCutoff(&half.spec, s.date, s.date_lo, s.date_values, 0.50);
    kinds.push_back(half);
  }
  for (Kind& k : kinds) k.spec.prune = !k.spec.predicates.empty();
  return kinds;
}

struct Query {
  size_t table = 0;
  size_t kind = 0;  ///< index into the base's kinds
  std::string cls;  ///< "<table>/<kind>"
  ScanSpec spec;
  QueryRequest request;
};

/// One execution of one query.
struct Exec {
  size_t query = 0;
  int round = -1;  ///< timed untraced round; -1 for warm-up and traced
  bool traced = false;
  bool ok = false;
  double ms = 0;
  uint64_t rows = 0, checksum = 0, digest = 0;
  ExecCounters counters;
  uint64_t span = 0;
  double phase_open_ms = 0, phase_scan_ms = 0, phase_drain_ms = 0;
  double model_ms = 0;
};

/// Per-round figures of the untraced timed rounds.
struct Round {
  std::vector<double> latency_ms;
  double ok = 0;
  double query_s = 0;
  double wall_s = 0;
};

double SelfMs(const rodb::obs::QueryTrace& trace, rodb::obs::TracePhase p) {
  double nanos = 0;
  for (const rodb::obs::SpanNode& node : trace.Spans()) {
    if (node.phase == p) nanos += static_cast<double>(node.self_nanos);
  }
  return nanos / 1e6;
}

/// Per-class aggregates of the traced executions.
struct ClassTrace {
  std::vector<double> execute_ms, self_ms, open_ms, read_wait_ms, streams;
  std::vector<double> model_ms, phase_open_ms, phase_scan_ms, phase_drain_ms;
  std::vector<double> pages_parsed;
};

}  // namespace

Report RunScanWorkload(const Args& args, bool selective) {
  Report report;
  const std::string data_base = args.work_dir + "/data-" + args.workload;
  rodb::bench::Env env;
  env.tuples = kTuples;
  const std::vector<TableDef> tables = ScanTables(env);

  std::unique_ptr<SpanRecorder> recorder;
  if (args.trace) recorder = std::make_unique<SpanRecorder>();
  SpanRecorder* rec = recorder.get();
  rodb::FileBackend file_backend;
  TimingBackend timing_backend(&file_backend, rec);

  std::vector<double> setup_s, load_s, open_table_ms;
  std::string dir;
  std::vector<rodb::OpenTable> open_tables;
  std::unique_ptr<rodb::QueryEngine> engine;         // default options
  std::unique_ptr<rodb::QueryEngine> traced_engine;  // timing decorator
  std::unique_ptr<RegistryDelta> fsyncs_last_setup;
  // Three set-ups of ~2.5 s each; the run's time limit has no room for
  // more.
  Status setup_status = TimedSetups(
      data_base, 3,
      [&](const std::string& d, bool last) -> Status {
        if (last) {
          fsyncs_last_setup = std::make_unique<RegistryDelta>(
              std::vector<std::string>{"rodb.durability.syncs",
                                       "rodb.durability.dir_syncs",
                                       "rodb.durability.sync_micros"});
        }
        env.data_dir = d;
        for (const TableDef& t : tables) {
          rodb::tpch::LoadSpec spec = env.Spec(t.layout, t.compressed);
          spec.seed = args.seed;
          const auto start = std::chrono::steady_clock::now();
          ScopedSpan span(rec, "tpch.load");
          auto meta = t.lineitem ? rodb::tpch::LoadLineitem(spec)
                                 : rodb::tpch::LoadOrders(spec);
          if (!meta.ok()) return meta.status();
          load_s.push_back(Ms(std::chrono::steady_clock::now() - start) /
                           1e3);
        }
        engine = std::make_unique<rodb::QueryEngine>(d);
        open_tables.clear();
        for (const TableDef& t : tables) {
          const auto start = std::chrono::steady_clock::now();
          ScopedSpan span(rec, "storage.open_table");
          auto table = rodb::OpenTable::Open(d, t.name);
          if (!table.ok()) return table.status();
          open_tables.push_back(std::move(table).value());
          open_table_ms.push_back(Ms(std::chrono::steady_clock::now() - start));
        }
        if (last && args.trace) {
          rodb::EngineOptions options;
          options.backend = &timing_backend;
          traced_engine = std::make_unique<rodb::QueryEngine>(d, options);
        }
        return Status::OK();
      },
      &setup_s, &dir);
  if (!setup_status.ok()) {
    std::fprintf(stderr, "setup failed: %s\n",
                 setup_status.ToString().c_str());
    std::exit(2);
  }

  // Queries: every kind of the base on every layout of it.
  rodb::Random constants(args.seed * 0x9E3779B97F4A7C15ULL + 11);
  std::vector<Kind> kinds[2] = {KindsFor(false, selective, &constants),
                                KindsFor(true, selective, &constants)};
  std::vector<Query> queries;
  for (size_t ti = 0; ti < tables.size(); ++ti) {
    const std::vector<Kind>& ks = kinds[tables[ti].lineitem ? 1 : 0];
    for (size_t k = 0; k < ks.size(); ++k) {
      Query q;
      q.table = ti;
      q.kind = k;
      q.cls = tables[ti].name + "/" + ks[k].name;
      q.spec = ks[k].spec;
      q.request = rodb::bench::RequestFromSpec(tables[ti].name, q.spec);
      q.request.mode = rodb::QueryMode::kExclusive;
      queries.push_back(std::move(q));
    }
  }

  std::vector<Exec> execs;
  std::vector<std::vector<double>> raw_ms(queries.size()),
      plain_ms(queries.size());
  const rodb::HardwareConfig paper = rodb::HardwareConfig::Paper2006();
  uint64_t next_request = 0;

  auto run_plain = [&](size_t qi, int round, rodb::QueryEngine* on) {
    Exec e;
    e.query = qi;
    e.round = round;
    const auto start = std::chrono::steady_clock::now();
    rodb::Result<QueryResult> r = on->Execute(queries[qi].request);
    e.ms = Ms(std::chrono::steady_clock::now() - start);
    e.ok = r.ok();
    if (r.ok()) {
      e.rows = r->rows;
      e.checksum = r->output_checksum;
      e.digest = r->row_digest;
      e.counters = r->counters;
      plain_ms[qi].push_back(e.ms);
    }
    execs.push_back(e);
  };
  auto run_traced = [&](size_t qi) {
    const Query& q = queries[qi];
    Exec e;
    e.query = qi;
    e.traced = true;
    rodb::obs::QueryTrace trace;
    QueryRequest request = q.request;
    request.trace = &trace;
    rodb::Result<QueryResult> r = Status::Internal("not run");
    {
      ScopedSpan span(rec, "engine.execute", ++next_request);
      e.span = span.id();
      const auto start = std::chrono::steady_clock::now();
      r = traced_engine->Execute(request);
      e.ms = Ms(std::chrono::steady_clock::now() - start);
    }
    e.ok = r.ok();
    if (r.ok()) {
      e.rows = r->rows;
      e.checksum = r->output_checksum;
      e.digest = r->row_digest;
      e.counters = r->counters;
      e.phase_open_ms = SelfMs(trace, rodb::obs::TracePhase::kOpen);
      e.phase_scan_ms = SelfMs(trace, rodb::obs::TracePhase::kScan);
      e.phase_drain_ms = SelfMs(trace, rodb::obs::TracePhase::kQuery);
      const rodb::OpenTable& table = open_tables[q.table];
      e.model_ms = rodb::ModelQueryTiming(
                       e.counters, paper, q.spec.read.prefetch_depth,
                       rodb::CacheAdjustedStreams(
                           rodb::ScanStreams(table, q.spec), e.counters))
                       .elapsed_seconds *
                   1e3;
    }
    execs.push_back(e);
  };
  auto run_raw = [&](size_t qi) {
    const Query& q = queries[qi];
    ScopedSpan span(rec, "raw.execute", ++next_request);
    const auto start = std::chrono::steady_clock::now();
    rodb::ExecStats stats;
    auto plan = rodb::OpenScanner(open_tables[q.table], q.spec, &file_backend,
                                  &stats);
    if (plan.ok() && rodb::Execute(plan->get(), &stats).ok()) {
      raw_ms[qi].push_back(Ms(std::chrono::steady_clock::now() - start));
    }
  };

  // Warm-up round: tables open in the engine(s), files hot in the OS
  // cache.
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    run_plain(qi, -1, engine.get());
    if (args.trace) run_plain(qi, -1, traced_engine.get());
  }
  plain_ms.assign(queries.size(), {});

  // Timed closed loop: whole rounds of every query in a seeded order,
  // until the time is up and (untraced) the p95 has its ten samples
  // beyond it. A traced run alternates traced rounds with untraced ones
  // that give the tracing overhead and the facade comparison.
  const RegistryDelta registry(
      {"rodb.io.prefetch_stalls", "rodb.io.prefetch_ready", "rodb.cache.hits",
       "rodb.cache.misses", "rodb.cache.evictions", "rodb.parallel.morsels",
       "rodb.resilience.admission.queue_rejections",
       "rodb.resilience.admission.budget_rejections",
       "rodb.resilience.admission.wait_aborts"});
  rodb::Random order_rng(args.seed * 0xBF58476D1CE4E5B9ULL + 5);
  std::vector<size_t> order(queries.size());
  std::iota(order.begin(), order.end(), 0);
  const auto window_start = std::chrono::steady_clock::now();
  size_t timed = 0;
  int rounds = 0;
  std::vector<double> round_wall_s;
  const size_t tail_samples = SamplesForTail(0.95);
  while (rounds < 2 ||
         Ms(std::chrono::steady_clock::now() - window_start) <
             args.seconds * 1e3 ||
         (!args.trace && timed < tail_samples)) {
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[order_rng.Uniform(i)]);
    }
    const bool traced_round = args.trace && rounds % 2 == 0;
    const auto round_start = std::chrono::steady_clock::now();
    for (size_t qi : order) {
      if (traced_round) {
        run_traced(qi);
      } else {
        run_plain(qi, rounds, engine.get());
        if (args.trace) run_raw(qi);
      }
    }
    round_wall_s.push_back(
        Ms(std::chrono::steady_clock::now() - round_start) / 1e3);
    if (!traced_round) timed += queries.size();
    ++rounds;
  }
  const double peak_rss = PeakRssMib();

  // Correctness gate, outside the timed window: every execution against
  // ReferenceScan over the raw tuples regenerated from the seed.
  std::vector<Expected> expected[2];
  for (int base = 0; base < 2; ++base) {
    const auto tuples = RawTpchTuples(base == 1, args.seed);
    const rodb::Schema schema = base == 1
                                    ? rodb::tpch::LineitemSchema().value()
                                    : rodb::tpch::OrdersSchema().value();
    for (const Kind& k : kinds[base]) {
      expected[base].push_back(Reference(schema, tuples, k.spec));
    }
  }
  uint64_t mismatches = 0;
  std::vector<double> latencies;
  std::map<int, Round> timed_rounds;
  std::map<std::string, std::vector<double>> class_ms;
  std::map<std::string, uint64_t> bad_classes;
  for (const Exec& e : execs) {
    const Query& q = queries[e.query];
    const Expected& ex = expected[tables[q.table].lineitem ? 1 : 0][q.kind];
    ++report.attempted;
    const bool match = e.ok && ex.ok && e.rows == ex.rows &&
                       e.checksum == ex.checksum && e.digest == ex.digest;
    if (!match) {
      ++report.failed;
      ++bad_classes[q.cls];
      if (e.ok) {
        ++mismatches;
        report.correct = false;
      }
    }
    if (e.round < 0) continue;
    latencies.push_back(match ? e.ms : kFailedLatency);
    Round& round = timed_rounds[e.round];
    round.latency_ms.push_back(latencies.back());
    round.ok += match ? 1 : 0;
    round.query_s += e.ms / 1e3;
    round.wall_s = round_wall_s[static_cast<size_t>(e.round)];
    class_ms[q.cls].push_back(e.ms);
  }
  for (const auto& [cls, n] : bad_classes) {
    std::fprintf(stderr, "FAILED: %s: %llu execution(s) errored or disagreed "
                 "with the oracle\n", cls.c_str(),
                 static_cast<unsigned long long>(n));
  }

  uint64_t user_bytes = 0;
  for (const TableDef& t : tables) user_bytes += kTuples * (t.lineitem ? 150 : 32);
  // Every round runs every query once, so a per-round figure always
  // covers the same mix. (The median of all samples would sit on the
  // boundary between two query classes: the slowest run of one against
  // the fastest of the next.) Each figure is the better quartile over
  // rounds -- the edge of the less disturbed half: other guests on the
  // host only ever slow a round down, and they come and go within a
  // run. The p95 needs all samples to have ten beyond it.
  std::vector<double> round_p50, round_tuples_per_s, round_qps;
  for (const auto& [index, round] : timed_rounds) {
    round_p50.push_back(Median(round.latency_ms));
    round_tuples_per_s.push_back(round.ok * static_cast<double>(kTuples) /
                                 round.query_s);
    round_qps.push_back(round.ok / round.wall_s);
  }
  report.end_to_end = {
      {"setup_s", Median(setup_s)},
      {"query_p50_ms", Quantile(round_p50, 0.25)},
      {"scan_tuples_per_s", Quantile(round_tuples_per_s, 0.75)},
      {"peak_qps", Quantile(round_qps, 0.75)},
      {"peak_rss_mb", peak_rss},
      {"bytes_stored_per_user_byte",
       static_cast<double>(DirectoryBytes(dir)) /
           static_cast<double>(user_bytes)},
  };

  Json detail;
  detail.Num("query_p95_ms", Quantile(latencies, 0.95))
      .Num("samples", static_cast<double>(latencies.size()))
      .Num("rounds", rounds)
      .Num("queries_per_round", static_cast<double>(queries.size()))
      .Num("failed_frac", static_cast<double>(report.failed) /
                              static_cast<double>(report.attempted))
      .Num("oracle_mismatches", static_cast<double>(mismatches))
      .Num("bytes_on_disk", static_cast<double>(DirectoryBytes(dir)))
      .Num("setup_reps_s_min", *std::min_element(setup_s.begin(), setup_s.end()))
      .Num("setup_reps_s_max", *std::max_element(setup_s.begin(), setup_s.end()));
  {
    std::string rounds_json = "[";
    for (size_t i = 0; i < round_tuples_per_s.size(); ++i) {
      rounds_json += (i ? "," : "") + JsonNumber(round_tuples_per_s[i]);
    }
    detail.Raw("round_tuples_per_s", rounds_json + "]");
  }
  if (!args.trace) {
    Json classes;
    for (const auto& [cls, ms] : class_ms) classes.Num(cls, Median(ms));
    detail.Raw("class_p50_ms", classes.str());
  }

  std::vector<Span> spans;
  if (args.trace) {
    // Attribute each traced Execute span's time to its I/O children.
    spans = recorder->Take();
    std::map<uint64_t, std::vector<const Span*>> children;
    std::map<uint64_t, const Span*> by_id;
    for (const Span& s : spans) {
      by_id[s.id] = &s;
      if (s.parent != 0) children[s.parent].push_back(&s);
    }
    std::map<std::string, ClassTrace> per_class;
    std::vector<double> exec_ms_all, self_all, open_all, wait_all,
        streams_all, model_all, phase_open, phase_scan, phase_drain;
    double pages = 0, pruned = 0, retained = 0, rows = 0, examined = 0,
           kernel_values = 0, skipped = 0, decoded = 0, code_reads = 0,
           backend_bytes = 0, base_tuples = 0;
    uint64_t counter_mismatches = 0;
    std::vector<const ExecCounters*> untraced_counters(queries.size(),
                                                       nullptr);
    for (const Exec& e : execs) {
      if (e.round >= 0 && e.ok && !untraced_counters[e.query]) {
        untraced_counters[e.query] = &e.counters;
      }
    }
    for (const Exec& e : execs) {
      if (!e.traced || !e.ok) continue;
      const Query& q = queries[e.query];
      const Span& self = *by_id.at(e.span);
      double open_ns = 0, next_ns = 0, streams = 0;
      std::vector<std::pair<int64_t, int64_t>> io;
      for (const Span* c : children[e.span]) {
        const std::string name = c->name;
        if (name.rfind("io.", 0) != 0) continue;
        io.emplace_back(c->start, c->end);
        const double d = static_cast<double>(c->end - c->start);
        if (name == "io.next") {
          next_ns += d;
        } else {
          open_ns += d;
          if (name == "io.open") streams += 1;
        }
      }
      const double execute_ms = static_cast<double>(self.end - self.start) / 1e6;
      const double self_ms =
          static_cast<double>(SelfNanos(self.start, self.end, io)) / 1e6;
      ClassTrace& ct = per_class[q.cls];
      ct.execute_ms.push_back(execute_ms);
      ct.self_ms.push_back(self_ms);
      ct.open_ms.push_back(open_ns / 1e6);
      ct.read_wait_ms.push_back(next_ns / 1e6);
      ct.streams.push_back(streams);
      ct.model_ms.push_back(e.model_ms);
      ct.phase_open_ms.push_back(e.phase_open_ms);
      ct.phase_scan_ms.push_back(e.phase_scan_ms);
      ct.phase_drain_ms.push_back(e.phase_drain_ms);
      ct.pages_parsed.push_back(static_cast<double>(e.counters.pages_parsed));
      exec_ms_all.push_back(execute_ms);
      self_all.push_back(self_ms);
      open_all.push_back(open_ns / 1e6);
      wait_all.push_back(next_ns / 1e6);
      streams_all.push_back(streams);
      model_all.push_back(e.model_ms);
      phase_open.push_back(e.phase_open_ms);
      phase_scan.push_back(e.phase_scan_ms);
      phase_drain.push_back(e.phase_drain_ms);
      const ExecCounters& c = e.counters;
      pages += static_cast<double>(c.pages_parsed);
      pruned += static_cast<double>(c.pages_pruned);
      retained += static_cast<double>(c.pages_retained);
      rows += static_cast<double>(e.rows);
      examined += static_cast<double>(c.tuples_examined);
      kernel_values += static_cast<double>(c.values_scanned_vectorized);
      skipped += static_cast<double>(c.mask_skipped_values);
      decoded += static_cast<double>(c.values_decoded_bitpack +
                                     c.values_decoded_dict +
                                     c.values_decoded_for +
                                     c.values_decoded_fordelta);
      code_reads += static_cast<double>(c.values_code_reads);
      backend_bytes += static_cast<double>(c.io_bytes_read);
      base_tuples += static_cast<double>(kTuples);
      const ExecCounters* plain = untraced_counters[e.query];
      if (plain != nullptr && !SameCounters(*plain, c)) {
        ++counter_mismatches;
        std::fprintf(stderr, "counter mismatch: %s traced vs untraced\n",
                     q.cls.c_str());
      }
    }
    const double n = static_cast<double>(exec_ms_all.size());

    // Facade overhead and the column/row ratio, from the untraced rounds.
    double engine_sum = 0, raw_sum = 0;
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      if (plain_ms[qi].empty() || raw_ms[qi].empty()) continue;
      engine_sum += Median(plain_ms[qi]);
      raw_sum += Median(raw_ms[qi]);
    }
    double log_ratio = 0;
    int pairs = 0;
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      const TableDef& col = tables[queries[qi].table];
      if (col.layout != Layout::kColumn) continue;
      if (!selective && queries[qi].kind != 0) continue;  // full projection
      for (size_t qj = 0; qj < queries.size(); ++qj) {
        const TableDef& row = tables[queries[qj].table];
        if (row.layout == Layout::kRow && row.lineitem == col.lineitem &&
            row.compressed == col.compressed &&
            queries[qj].kind == queries[qi].kind && !plain_ms[qi].empty() &&
            !plain_ms[qj].empty()) {
          log_ratio += std::log(Median(plain_ms[qi]) / Median(plain_ms[qj]));
          ++pairs;
        }
      }
    }
    // Tracing overhead, paired per query: traced over untraced median.
    std::vector<std::vector<double>> traced_ms(queries.size());
    for (const Exec& e : execs) {
      if (e.traced && e.ok) traced_ms[e.query].push_back(e.ms);
    }
    double log_overhead = 0;
    int overhead_pairs = 0;
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      if (traced_ms[qi].empty() || plain_ms[qi].empty()) continue;
      log_overhead += std::log(Median(traced_ms[qi]) / Median(plain_ms[qi]));
      ++overhead_pairs;
    }
    const double fsync_count = static_cast<double>(
        (*fsyncs_last_setup)["rodb.durability.syncs"] +
        (*fsyncs_last_setup)["rodb.durability.dir_syncs"]);
    const double fsync_ms =
        static_cast<double>((*fsyncs_last_setup)["rodb.durability.sync_micros"]) /
        1e3;
    const double stalls = static_cast<double>(registry["rodb.io.prefetch_stalls"]);
    const double ready = static_cast<double>(registry["rodb.io.prefetch_ready"]);
    const double hits = static_cast<double>(registry["rodb.cache.hits"]);
    const double misses = static_cast<double>(registry["rodb.cache.misses"]);
    report.per_layer = {
        {"io.open_ms", Mean(open_all)},
        {"io.streams_per_query", Mean(streams_all)},
        {"io.read_wait_ms", Mean(wait_all)},
        {"io.bytes_per_tuple", backend_bytes / base_tuples},
        {"io.prefetch_stall_frac",
         stalls + ready > 0 ? stalls / (stalls + ready) : 0},
        {"io.cache_hit_frac", hits + misses > 0 ? hits / (hits + misses) : 0},
        {"io.cache_evictions",
         static_cast<double>(registry["rodb.cache.evictions"])},
        {"io.fsyncs", fsync_count},
        {"io.fsync_ms", fsync_ms},
        {"tpch.load_s", Mean(load_s)},
        {"storage.open_table_ms", Mean(open_table_ms)},
        {"storage.pages_parsed_per_query", pages / n},
        {"engine.execute_ms", Median(exec_ms_all)},
        {"engine.self_ms", Mean(self_all)},
        {"engine.phase.open_ms", Mean(phase_open)},
        {"engine.phase.scan_self_ms", Mean(phase_scan)},
        {"engine.phase.drain_self_ms", Mean(phase_drain)},
        {"engine.facade_overhead", raw_sum > 0 ? engine_sum / raw_sum : 0},
        {"engine.col_row_ratio", pairs > 0 ? std::exp(log_ratio / pairs) : 0},
        {"engine.pages_pruned_frac",
         pruned + retained > 0 ? pruned / (pruned + retained) : 0},
        {"engine.rows_per_tuple_examined", examined > 0 ? rows / examined : 0},
        {"engine.parallel_morsels",
         static_cast<double>(registry["rodb.parallel.morsels"])},
        {"engine.admission_rejections",
         static_cast<double>(
             registry["rodb.resilience.admission.queue_rejections"] +
             registry["rodb.resilience.admission.budget_rejections"] +
             registry["rodb.resilience.admission.wait_aborts"])},
        {"kernels.values_per_query", kernel_values / n},
        {"kernels.mask_skipped_frac",
         kernel_values + skipped > 0 ? skipped / (kernel_values + skipped) : 0},
        {"compression.values_decoded_per_query", decoded / n},
        {"compression.code_reads_per_query", code_reads / n},
        {"obs.trace_overhead_frac",
         overhead_pairs > 0 ? std::exp(log_overhead / overhead_pairs) - 1 : 0},
        {"obs.counter_mismatches", static_cast<double>(counter_mismatches)},
        {"model.predicted_ms", Mean(model_all)},
    };

    Json classes;
    for (const auto& [cls, ct] : per_class) {
      const double exec_mean = Mean(ct.execute_ms);
      Json c;
      c.Num("n", static_cast<double>(ct.execute_ms.size()))
          .Num("execute_ms_p50", Median(ct.execute_ms))
          .Num("execute_ms_mean", exec_mean)
          .Num("self_ms", Mean(ct.self_ms))
          .Num("io_open_ms", Mean(ct.open_ms))
          .Num("io_read_wait_ms", Mean(ct.read_wait_ms))
          .Num("io_share", exec_mean > 0 ? (Mean(ct.open_ms) +
                                            Mean(ct.read_wait_ms)) /
                                               exec_mean
                                         : 0)
          .Num("self_share", exec_mean > 0 ? Mean(ct.self_ms) / exec_mean : 0)
          .Num("streams_per_query", Mean(ct.streams))
          .Num("pages_parsed", Mean(ct.pages_parsed))
          .Num("phase_open_ms", Mean(ct.phase_open_ms))
          .Num("phase_scan_self_ms", Mean(ct.phase_scan_ms))
          .Num("phase_drain_self_ms", Mean(ct.phase_drain_ms))
          .Num("model_predicted_ms", Mean(ct.model_ms));
      classes.Raw(cls, c.str());
    }
    detail.Raw("classes", classes.str());
  }
  report.detail = detail.str();
  if (args.trace) {
    WriteSpansTsv(args.work_dir + "/spans-" + args.workload + ".tsv", spans);
  }
  engine.reset();
  traced_engine.reset();
  std::error_code ec;
  std::filesystem::remove_all(data_base, ec);
  return report;
}

}  // namespace perfbench
