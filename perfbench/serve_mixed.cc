// serve_mixed: one in-process QueryServer on loopback with kAuto routing
// and a 32 MiB block cache. One writer connection streams 1024-tuple
// ingest batches at a fixed rate into an initially empty column-layout
// ingest table; three query connections drive a seeded mix, first as an
// open loop at a fixed offered rate, then as a closed loop for peak_qps.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "bench_util.h"
#include "common/bytes.h"
#include "engine/executor.h"
#include "io/file_backend.h"
#include "server/client.h"
#include "server/server.h"
#include "stats.h"
#include "tpch/loader.h"
#include "tpch/tpch_schema.h"
#include "trace.h"

namespace perfbench {

namespace {

using rodb::ExecCounters;
using rodb::Predicate;
using rodb::QueryRequest;
using rodb::QueryResult;
using rodb::ScanSpec;
using rodb::Status;
using Clock = std::chrono::steady_clock;

constexpr uint64_t kCacheBytes = 32ull << 20;
constexpr char kIngestTable[] = "stream";
constexpr uint64_t kBatchTuples = 1024;
constexpr double kBatchIntervalMs = 20;  // ~50 batches per second
constexpr int kQueryConnections = 3;
/// Offered open-loop rate, about a seventh of the closed-loop peak_qps
/// (~130 on 4 vCPU). Each connection's interval (167 ms) then
/// outlasts even a parallel scan, so a reply rarely delays the next
/// request; nearer the peak, queueing amplifies every disturbance of the
/// shared machine into the latencies.
constexpr double kOfferedQps = 18;
constexpr int kVariants = 8;  ///< seeded constants per query class
constexpr int32_t kKeyDomain = 1 << 20;
constexpr double kWarmupMs = 1000;
/// Share of --seconds spent in the open loop (five 3 s windows at 25 s);
/// the closed loop gets the rest (ten 1 s windows, so that most of them
/// miss the merges, which land about every 5 s).
constexpr double kOpenShare = 0.6;
/// A generator later than half a connection's request interval at p99
/// makes the run invalid.
constexpr double kMaxGeneratorLateMs = 0.5 * kQueryConnections * 1e3 /
                                       kOfferedQps;
/// Snapshot results checked against the append-order-prefix oracle.
constexpr size_t kSnapshotSamples = 12;
constexpr double kTraceSliceMs = 500;
/// The open loop's latency and the closed loop's throughput are taken
/// per window of these lengths.
constexpr double kOpenWindowMs = 3000;
constexpr double kClosedWindowMs = 1000;

enum Class {
  kSharedScan,
  kLookupOrders,
  kLookupLineitem,
  kParallelScan,
  kSnapshotScan,
  kNumClasses
};
constexpr const char* kClassNames[kNumClasses] = {
    "shared_scan", "ordered_lookup_orders", "ordered_lookup_lineitem",
    "parallel_scan", "snapshot_scan"};
/// Requests of each class in every block of 40 a connection sends (50%
/// shared, 20% lookups, 10% parallel, 20% snapshot), in a seeded order
/// per block. Fixed shares keep every seed's mix the same, and put the
/// median a fifth of the way into the shared-scan class instead of on
/// the boundary between two classes' latencies.
constexpr int kClassBlock[kNumClasses] = {20, 4, 4, 4, 8};

enum Phase { kWarmup, kOpen, kClosed };

struct Template {
  int base = 0;  ///< 0 orders_row, 1 lineitem_col, 2 the ingest table
  ScanSpec spec;
  QueryRequest request;
};

struct Sample {
  Class cls = kSharedScan;
  int variant = 0;
  Phase phase = kWarmup;
  double due = 0, send = 0, done = 0;  ///< ms since the run started
  bool ok = false;
  bool traced_slice = false;
  uint64_t rows = 0, checksum = 0, digest = 0;
  uint64_t rows_collected = 0, collected_checksum = 0;
  bool shared = false;
  int morsels = 0;
  double wall_ms = 0;
  uint64_t snapshot_tuples = 0;
  double segments = 0;
  ExecCounters counters;
};

struct Ack {
  Phase phase = kWarmup;
  double ms = 0;
  bool ok = false;
};

rodb::Schema IngestSchema() {
  auto schema = rodb::Schema::Make(
      {rodb::AttributeDesc::Int32("k"), rodb::AttributeDesc::Int32("a"),
       rodb::AttributeDesc::Int32("b"), rodb::AttributeDesc::Int32("c")});
  return std::move(schema).value();
}

/// AddWindow, with variant v's start drawn from the v-th of kVariants
/// equal slices of the possible starts. Every seed's variants then cover
/// the domain evenly: a lookup's cost depends on whether its blocks are
/// still cached, which depends on where in the table it falls.
void AddVariantWindow(ScanSpec* spec, rodb::Random* rng, int variant, int attr,
                      int32_t lo, int32_t values, double fraction) {
  const int32_t width = Width(values, fraction);
  const double starts = static_cast<double>(values - width + 1);
  const int32_t from =
      lo + static_cast<int32_t>((variant + rng->NextDouble()) / kVariants *
                                starts);
  spec->predicates.push_back(
      Predicate::Int32(attr, rodb::CompareOp::kGe, from));
  spec->predicates.push_back(
      Predicate::Int32(attr, rodb::CompareOp::kLt, from + width));
}

/// kVariants seeded query templates per class.
std::vector<Template> MakeTemplates(Class cls, rodb::Random* rng) {
  namespace t = rodb::tpch;
  std::vector<Template> out;
  for (int v = 0; v < kVariants; ++v) {
    Template tpl;
    ScanSpec& spec = tpl.spec;
    switch (cls) {
      case kSharedScan:
        spec.projection = {t::kOOrderkey, t::kOCustkey, t::kOTotalprice};
        AddVariantWindow(&spec, rng, v, t::kOOrderdate, 0,
                         t::kOrderdateDomain, 0.10);
        break;
      case kLookupOrders:
        spec.projection = {t::kOOrderkey, t::kOCustkey, t::kOTotalprice,
                           t::kOOrderdate};
        AddVariantWindow(&spec, rng, v, t::kOOrderkey, 1,
                         static_cast<int32_t>(kTuples), 0.005);
        break;
      case kLookupLineitem:
        tpl.base = 1;
        spec.projection = {t::kLOrderkey, t::kLPartkey, t::kLQuantity,
                           t::kLExtendedprice};
        AddVariantWindow(&spec, rng, v, t::kLOrderkey, 1,
                         static_cast<int32_t>(kTuples / 4), 0.005);
        break;
      case kParallelScan:
        tpl.base = 1;
        spec.projection = rodb::bench::FirstAttrs(16);
        AddVariantWindow(&spec, rng, v, t::kLShipdate, 0,
                         t::kDateDomain - 120 + 1, 0.10);
        break;
      case kSnapshotScan:
        tpl.base = 2;
        spec.projection = {0, 1};
        AddVariantWindow(&spec, rng, v, 0, 0, kKeyDomain, 0.10);
        break;
      case kNumClasses:
        break;
    }
    spec.prune = true;
    const char* table = tpl.base == 0   ? "orders_row"
                        : tpl.base == 1 ? "lineitem_col"
                                        : kIngestTable;
    tpl.request = rodb::bench::RequestFromSpec(table, spec);
    tpl.request.mode = rodb::QueryMode::kAuto;
    if (cls == kLookupOrders || cls == kLookupLineitem) {
      tpl.request.ordered = true;
      tpl.request.collect_rows = true;
    }
    if (cls == kParallelScan) tpl.request.parallelism = 2;
    out.push_back(std::move(tpl));
  }
  return out;
}

double TupleCover(const Sample& s) {
  return s.cls == kSnapshotScan ? static_cast<double>(s.snapshot_tuples)
                                : static_cast<double>(kTuples);
}

bool IsLookup(Class cls) {
  return cls == kLookupOrders || cls == kLookupLineitem;
}

/// The counters of a serial exclusive scan that the block cache does not
/// change: equal for every run of one query over a static table.
bool SameScanWork(const ExecCounters& a, const ExecCounters& b) {
  return a.tuples_examined == b.tuples_examined &&
         a.predicate_evals == b.predicate_evals &&
         a.values_copied == b.values_copied && a.pages_parsed == b.pages_parsed;
}

}  // namespace

Report RunServeMixed(const Args& args) {
  Report report;
  const std::string data_base = args.work_dir + "/data-" + args.workload;
  rodb::bench::Env env;
  env.tuples = kTuples;

  std::unique_ptr<SpanRecorder> recorder;
  if (args.trace) recorder = std::make_unique<SpanRecorder>();
  SpanRecorder* rec = recorder.get();
  rodb::FileBackend file_backend;
  TimingBackend timing_backend(&file_backend, rec);

  struct BaseTable {
    bool lineitem;
    rodb::Layout layout;
    std::string name;
  };
  const BaseTable bases[2] = {{false, rodb::Layout::kRow, "orders_row"},
                              {true, rodb::Layout::kColumn, "lineitem_col"}};
  std::vector<double> setup_s, load_s, open_table_ms;
  std::vector<rodb::OpenTable> open_tables;
  std::unique_ptr<rodb::QueryServer> server;
  std::unique_ptr<RegistryDelta> fsyncs;
  std::string dir;
  // Five set-ups: each takes well under a second, so one slow fsync
  // would move the median of three.
  Status setup_status = TimedSetups(
      data_base, 5,
      [&](const std::string& d, bool last) -> Status {
        if (server != nullptr) server->Stop();
        server.reset();
        if (last) {
          fsyncs = std::make_unique<RegistryDelta>(std::vector<std::string>{
              "rodb.durability.syncs", "rodb.durability.dir_syncs",
              "rodb.durability.sync_micros"});
        }
        env.data_dir = d;
        open_tables.clear();
        for (const BaseTable& b : bases) {
          rodb::tpch::LoadSpec spec = env.Spec(b.layout, false);
          spec.seed = args.seed;
          auto start = Clock::now();
          {
            ScopedSpan span(rec, "tpch.load");
            auto meta = b.lineitem ? rodb::tpch::LoadLineitem(spec)
                                   : rodb::tpch::LoadOrders(spec);
            if (!meta.ok()) return meta.status();
          }
          load_s.push_back(Ms(Clock::now() - start) / 1e3);
          start = Clock::now();
          ScopedSpan span(rec, "storage.open_table");
          auto table = rodb::OpenTable::Open(d, b.name);
          if (!table.ok()) return table.status();
          open_tables.push_back(std::move(table).value());
          open_table_ms.push_back(Ms(Clock::now() - start));
        }
        rodb::ServerOptions options;
        options.engine.cache_bytes = kCacheBytes;
        if (args.trace) options.engine.backend = &timing_backend;
        server = std::make_unique<rodb::QueryServer>(d, options);
        return server->Start();
      },
      &setup_s, &dir);
  if (!setup_status.ok()) {
    std::fprintf(stderr, "setup failed: %s\n",
                 setup_status.ToString().c_str());
    if (server != nullptr) server->Stop();
    std::exit(2);
  }
  const int port = server->port();

  rodb::Random constants(args.seed * 0x9E3779B97F4A7C15ULL + 23);
  std::vector<Template> templates[kNumClasses];
  for (int c = 0; c < kNumClasses; ++c) {
    templates[c] = MakeTemplates(static_cast<Class>(c), &constants);
  }

  const RegistryDelta registry(
      {"rodb.io.prefetch_stalls", "rodb.io.prefetch_ready", "rodb.cache.hits",
       "rodb.cache.misses", "rodb.cache.evictions", "rodb.parallel.morsels",
       "rodb.resilience.admission.queue_rejections",
       "rodb.resilience.admission.budget_rejections",
       "rodb.resilience.admission.wait_aborts", "rodb.server.attached_total",
       "rodb.server.laps", "rodb.ingest.freezes", "rodb.ingest.merges",
       "rodb.ingest.frozen_tuples", "rodb.ingest.merged_tuples",
       "rodb.ingest.appends", "rodb.scan.pruning.pages_pruned",
       "rodb.scan.pruning.pages_retained", "rodb.scan.vectorized.values",
       "rodb.scan.vectorized.mask_skipped_values"});

  // Timeline, in ms from t0: the writer starts at 0, the query
  // connections warm up from 100, the open loop is recorded from
  // open_start, the closed loop runs from closed_start to end.
  const Clock::time_point t0 = Clock::now();
  const double warm_start = 100;
  const double open_start = warm_start + kWarmupMs;
  const double closed_start = open_start + kOpenShare * args.seconds * 1e3;
  const double end = open_start + args.seconds * 1e3;
  auto now_ms = [&] { return Ms(Clock::now() - t0); };
  auto sleep_to = [&](double ms) {
    std::this_thread::sleep_until(
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double, std::milli>(ms)));
  };
  auto phase_of = [&](double ms) {
    return ms < open_start ? kWarmup : ms < closed_start ? kOpen : kClosed;
  };

  // Writer: one batch every kBatchIntervalMs; every batch is kept, in
  // append order, for the snapshot oracle.
  std::vector<uint8_t> appended;
  std::vector<Ack> acks;
  std::atomic<bool> attached{false};
  std::thread writer([&] {
    rodb::QueryClient client;
    if (!client.Connect("127.0.0.1", port).ok()) {
      acks.push_back({kWarmup, 0, false});
      return;
    }
    rodb::Random rng(args.seed * 0xD1B54A32D192ED03ULL + 3);
    rodb::IngestRequest request;
    request.table = kIngestTable;
    IngestSchema().AppendTo(&request.schema_text);
    request.layout = rodb::Layout::kColumn;
    request.sort_attr = 0;
    request.count = kBatchTuples;
    request.data.resize(kBatchTuples * 16);
    for (uint64_t k = 0;; ++k) {
      const double due = static_cast<double>(k) * kBatchIntervalMs;
      if (due >= end) break;
      sleep_to(due);
      for (uint64_t i = 0; i < kBatchTuples; ++i) {
        uint8_t* t = request.data.data() + i * 16;
        rodb::StoreLE32s(t, static_cast<int32_t>(rng.Uniform(kKeyDomain)));
        for (int a = 1; a < 4; ++a) {
          rodb::StoreLE32s(t + 4 * a,
                           static_cast<int32_t>(rng.Uniform(1u << 30)));
        }
      }
      appended.insert(appended.end(), request.data.begin(),
                      request.data.end());
      Ack ack;
      ack.phase = phase_of(due);
      const double send = now_ms();
      {
        ScopedSpan span(rec, "client.ingest");
        ack.ok = client.Ingest(request).ok();
      }
      ack.ms = now_ms() - send;
      acks.push_back(ack);
      if (ack.ok) {
        request.schema_text.clear();
        attached.store(true);
      }
    }
  });

  // Query connections.
  std::vector<Sample> samples[kQueryConnections];
  std::atomic<uint64_t> next_request{0};
  auto connection = [&](int c) {
    rodb::QueryClient client;
    if (!client.Connect("127.0.0.1", port).ok()) {
      samples[c].push_back(Sample{});  // counted as a failed request
      return;
    }
    rodb::Random rng(args.seed * 0x94D049BB133111EBULL + 101 + c);
    std::vector<Class> block;
    auto issue = [&](double due) {
      Sample s;
      if (block.empty()) {
        for (int cls = 0; cls < kNumClasses; ++cls) {
          block.insert(block.end(), kClassBlock[cls], static_cast<Class>(cls));
        }
        for (size_t i = block.size(); i > 1; --i) {
          std::swap(block[i - 1], block[rng.Uniform(i)]);
        }
      }
      s.cls = block.back();
      block.pop_back();
      s.variant = static_cast<int>(rng.Uniform(kVariants));
      s.due = due;
      s.phase = phase_of(due);
      if (rec != nullptr && s.cls == kSnapshotScan) {
        if (auto store = server->engine().ingest(kIngestTable)) {
          rodb::Snapshot snap = store->Acquire();
          s.segments = static_cast<double>(snap.num_frozen() +
                                           snap.num_sealed());
        }
      }
      s.traced_slice = rec != nullptr && rec->enabled();
      s.send = now_ms();
      rodb::Result<QueryResult> r = Status::Internal("not run");
      {
        ScopedSpan span(rec, "client.execute", ++next_request);
        r = client.Execute(templates[s.cls][s.variant].request);
      }
      s.done = now_ms();
      s.ok = r.ok();
      if (r.ok()) {
        s.rows = r->rows;
        s.checksum = r->output_checksum;
        s.digest = r->row_digest;
        s.rows_collected = r->rows_collected;
        s.collected_checksum = rodb::Fnv1aExtend(
            rodb::kFnv1aSeed, r->row_data.data(), r->row_data.size());
        s.shared = r->shared;
        s.morsels = r->morsels;
        s.wall_ms = r->wall_seconds * 1e3;
        s.snapshot_tuples = r->snapshot_tuples;
        s.counters = r->counters;
      }
      samples[c].push_back(std::move(s));
    };
    const double interval = kQueryConnections * 1e3 / kOfferedQps;
    for (int k = 0;; ++k) {
      const double due =
          warm_start + (k + static_cast<double>(c) / kQueryConnections) *
                           interval;
      if (due >= closed_start) break;
      sleep_to(due);
      issue(due);
    }
    sleep_to(closed_start);
    while (now_ms() < end) issue(now_ms());
  };
  sleep_to(warm_start);
  while (!attached.load() && now_ms() < open_start) sleep_to(now_ms() + 1);
  std::vector<std::thread> queries;
  for (int c = 0; c < kQueryConnections; ++c) {
    queries.emplace_back(connection, c);
  }
  if (rec != nullptr) {
    // Alternate traced and untraced slices to measure tracing overhead.
    for (int slice = 1; now_ms() < end; ++slice) {
      sleep_to(warm_start + slice * kTraceSliceMs);
      rec->set_enabled(slice % 2 == 0);
    }
    rec->set_enabled(true);
  }
  for (std::thread& t : queries) t.join();
  writer.join();
  const double peak_rss = PeakRssMib();

  // Fold everything into the read store before measuring space.
  uint64_t ingested = 0;
  if (auto store = server->engine().ingest(kIngestTable)) {
    store->WaitMergeIdle();
    if (!store->Freeze().ok() || !store->Merge().ok()) {
      std::fprintf(stderr, "final freeze/merge failed\n");
    }
    ingested = store->appended();
  }
  const uint64_t bytes_on_disk = DirectoryBytes(dir);
  server->Stop();

  // Correctness gate.
  std::vector<Expected> expected[kNumClasses];
  {
    const auto orders = RawTpchTuples(false, args.seed);
    const auto lineitem = RawTpchTuples(true, args.seed);
    const rodb::Schema orders_schema = rodb::tpch::OrdersSchema().value();
    const rodb::Schema lineitem_schema = rodb::tpch::LineitemSchema().value();
    for (int c = 0; c < kNumClasses; ++c) {
      for (const Template& tpl : templates[c]) {
        if (tpl.base == 2) {
          expected[c].push_back({});
        } else {
          expected[c].push_back(Reference(
              tpl.base == 0 ? orders_schema : lineitem_schema,
              tpl.base == 0 ? orders : lineitem, tpl.spec));
        }
      }
    }
  }
  std::vector<const Sample*> all;
  for (const auto& conn : samples) {
    for (const Sample& s : conn) all.push_back(&s);
  }
  uint64_t mismatches = 0, errors = 0;
  std::vector<const Sample*> snapshot_pool;
  for (const Sample* s : all) {
    ++report.attempted;
    if (!s->ok) {
      ++errors;
      continue;
    }
    const Expected& ex = expected[s->cls][s->variant];
    bool match = true;
    switch (s->cls) {
      case kSharedScan:
        match = ex.ok && s->rows == ex.rows && s->digest == ex.digest &&
                (s->shared || s->checksum == ex.checksum);
        break;
      case kLookupOrders:
      case kLookupLineitem:
        match = ex.ok && s->rows == ex.rows && s->checksum == ex.checksum &&
                s->rows_collected == s->rows &&
                s->collected_checksum == ex.checksum;
        break;
      case kParallelScan:
        match = ex.ok && s->rows == ex.rows && s->checksum == ex.checksum;
        break;
      case kSnapshotScan:
        snapshot_pool.push_back(s);
        break;
      case kNumClasses:
        break;
    }
    if (!match) {
      ++mismatches;
      std::fprintf(stderr, "MISMATCH: %s variant %d\n", kClassNames[s->cls],
                   s->variant);
    }
  }
  // Snapshot results: a seeded sample against the append-order prefix
  // each one reports it saw.
  {
    rodb::Random pick(args.seed * 0xA24BAED4963EE407ULL + 7);
    for (size_t i = snapshot_pool.size(); i > 1; --i) {
      std::swap(snapshot_pool[i - 1], snapshot_pool[pick.Uniform(i)]);
    }
    snapshot_pool.resize(std::min(snapshot_pool.size(), kSnapshotSamples));
    std::sort(snapshot_pool.begin(), snapshot_pool.end(),
              [](const Sample* a, const Sample* b) {
                return a->snapshot_tuples < b->snapshot_tuples;
              });
    const rodb::Schema schema = IngestSchema();
    std::vector<std::vector<uint8_t>> prefix;
    for (const Sample* s : snapshot_pool) {
      bool match = s->snapshot_tuples * 16 <= appended.size();
      while (match && prefix.size() < s->snapshot_tuples) {
        const uint8_t* t = appended.data() + prefix.size() * 16;
        prefix.emplace_back(t, t + 16);
      }
      if (match) {
        const Expected ex = Reference(
            schema, prefix, templates[kSnapshotScan][s->variant].spec);
        match = ex.ok && ex.rows == s->rows && ex.digest == s->digest;
      }
      if (!match) {
        ++mismatches;
        std::fprintf(stderr, "MISMATCH: snapshot of %llu tuples\n",
                     static_cast<unsigned long long>(s->snapshot_tuples));
      }
    }
  }
  uint64_t ack_errors = 0;
  for (const Ack& a : acks) {
    ++report.attempted;
    if (!a.ok) ++ack_errors;
  }
  report.failed = errors + ack_errors + mismatches;
  report.correct = mismatches == 0;

  // End-to-end figures: open-loop latencies from due times, closed-loop
  // completions, each per fixed window of its phase. Each figure is the
  // better quartile over windows (the 25th percentile of the windows'
  // median latencies, the 75th of their rates): a merge, or other guests
  // taking the host's CPUs for a while, only ever slow a window down.
  std::vector<double> latency, late, latency_due;
  std::map<std::string, std::vector<double>> class_latency;
  const int windows =
      std::max(1, static_cast<int>((end - closed_start) / kClosedWindowMs));
  std::vector<double> window_queries(windows), window_tuples(windows);
  for (int c = 0; c < kQueryConnections; ++c) {
    std::vector<OpenLoopRequest> open;
    for (const Sample& s : samples[c]) {
      if (s.phase == kOpen) {
        open.push_back({s.due, s.send, s.done, s.ok});
        class_latency[kClassNames[s.cls]].push_back(s.done - s.due);
      }
      const auto w = static_cast<int>((s.done - closed_start) / kClosedWindowMs);
      if (s.phase == kClosed && s.ok && w < windows) {
        window_queries[w] += 1;
        window_tuples[w] += TupleCover(s);
      }
    }
    OpenLoopTimes(open, &latency, &late);
    for (const OpenLoopRequest& r : open) latency_due.push_back(r.due);
  }
  const int open_windows = std::max(
      1, static_cast<int>((closed_start - open_start) / kOpenWindowMs));
  std::vector<std::vector<double>> window_latency(open_windows);
  for (size_t i = 0; i < latency.size(); ++i) {
    const auto w =
        static_cast<int>((latency_due[i] - open_start) / kOpenWindowMs);
    window_latency[std::min(w, open_windows - 1)].push_back(latency[i]);
  }
  std::vector<double> window_p50;
  for (const std::vector<double>& w : window_latency) {
    if (!w.empty()) window_p50.push_back(Quantile(w, 0.5));
  }
  const double window_s = kClosedWindowMs / 1e3;
  for (int w = 0; w < windows; ++w) {
    window_queries[w] /= window_s;
    window_tuples[w] /= window_s;
  }
  std::vector<double> ack_ms;
  for (const Ack& a : acks) {
    if (a.phase != kWarmup) ack_ms.push_back(a.ok ? a.ms : kFailedLatency);
  }
  const double user_bytes =
      static_cast<double>(kTuples * (32 + 150) + ingested * 16);
  report.end_to_end = {
      {"setup_s", Median(setup_s)},
      {"query_p50_ms", Quantile(window_p50, 0.25)},
      {"scan_tuples_per_s", Quantile(window_tuples, 0.75)},
      {"peak_qps", Quantile(window_queries, 0.75)},
      {"peak_rss_mb", peak_rss},
      {"bytes_stored_per_user_byte",
       static_cast<double>(bytes_on_disk) / user_bytes},
  };
  const double late_p99 = Quantile(late, 0.99);
  if (late_p99 > kMaxGeneratorLateMs) {
    report.invalid = "open-loop generator p99 lateness " +
                     std::to_string(late_p99) + " ms";
  }
  // The open loop's highest percentile with ten samples beyond it.
  double tail_q = 0.5;
  for (double q : {0.95, 0.96, 0.97, 0.98, 0.99}) {
    if (TailSupported(latency.size(), q)) tail_q = q;
  }
  const double tail = Quantile(latency, tail_q);
  const double ack_p50 = Quantile(ack_ms, 0.5);
  const double ack_p99 = Quantile(ack_ms, 0.99);

  Json detail;
  detail.Num("offered_qps", kOfferedQps)
      .Num("open_loop_samples", static_cast<double>(latency.size()))
      .Num("closed_loop_windows", windows)
      .Num("query_p50_all_ms", Quantile(latency, 0.5))
      .Num("query_p95_ms", Quantile(latency, 0.95))
      .Num("query_tail_ms", tail)
      .Num("query_tail_percentile", tail_q * 100)
      .Num("ingest_ack_p50_ms", ack_p50)
      .Num("ingest_ack_p99_ms", ack_p99)
      .Num("ingest_batches", static_cast<double>(ack_ms.size()))
      .Num("ingested_tuples", static_cast<double>(ingested))
      .Num("gen_late_ms_p99", late_p99)
      .Num("failed_frac", static_cast<double>(report.failed) /
                              static_cast<double>(report.attempted))
      .Num("oracle_mismatches", static_cast<double>(mismatches))
      .Num("snapshot_samples_checked",
           static_cast<double>(snapshot_pool.size()))
      .Num("bytes_on_disk", static_cast<double>(bytes_on_disk))
      .Num("freezes", static_cast<double>(registry["rodb.ingest.freezes"]))
      .Num("merges", static_cast<double>(registry["rodb.ingest.merges"]));
  {
    Json classes;
    for (const auto& [name, ms] : class_latency) classes.Num(name, Median(ms));
    detail.Raw("class_p50_ms", classes.str());
  }

  if (args.trace) {
    // Server-side I/O has no client parent: totals over the queries sent
    // while spans were being recorded.
    const std::vector<Span> spans = recorder->Take();
    double open_ns = 0, next_ns = 0, streams = 0, io_bytes = 0;
    for (const Span& span : spans) {
      const std::string name = span.name;
      const double d = static_cast<double>(span.end - span.start);
      if (name == "io.next") {
        next_ns += d;
        io_bytes += static_cast<double>(span.value);
      } else if (name == "io.open" || name == "io.close") {
        open_ns += d;
        if (name == "io.open") streams += 1;
      }
    }
    double traced_queries = 0, traced_tuples = 0;
    std::vector<double> wall, wire, segments, by_mode[4], model_ms;
    std::vector<double> on_lat[kNumClasses], off_lat[kNumClasses];
    std::map<std::string, std::vector<double>> class_wall;
    double pages = 0, rows = 0, examined = 0, shared = 0, n = 0;
    const rodb::HardwareConfig paper = rodb::HardwareConfig::Paper2006();
    for (const Sample* s : all) {
      if (!s->ok) continue;
      if (s->traced_slice) {
        traced_queries += 1;
        traced_tuples += TupleCover(*s);
      }
      if (s->phase == kOpen) {
        (s->traced_slice ? on_lat : off_lat)[s->cls].push_back(s->done -
                                                                s->due);
      }
      n += 1;
      wall.push_back(s->wall_ms);
      wire.push_back(s->done - s->send - s->wall_ms);
      class_wall[kClassNames[s->cls]].push_back(s->wall_ms);
      const int mode = s->shared                  ? 0
                       : s->morsels > 0           ? 2
                       : s->cls == kSnapshotScan  ? 3
                                                  : 1;
      by_mode[mode].push_back(s->wall_ms);
      if (s->cls == kSnapshotScan) segments.push_back(s->segments);
      shared += s->shared ? 1 : 0;
      const ExecCounters& c = s->counters;
      pages += static_cast<double>(c.pages_parsed);
      rows += static_cast<double>(s->rows);
      examined += static_cast<double>(c.tuples_examined);
      if (IsLookup(s->cls)) {
        const Template& tpl = templates[s->cls][s->variant];
        model_ms.push_back(
            rodb::ModelQueryTiming(
                c, paper, tpl.spec.read.prefetch_depth,
                rodb::CacheAdjustedStreams(
                    rodb::ScanStreams(open_tables[tpl.base], tpl.spec), c))
                .elapsed_seconds *
            1e3);
      }
    }
    const double per_query = traced_queries > 0 ? traced_queries : 1;
    const double stalls =
        static_cast<double>(registry["rodb.io.prefetch_stalls"]);
    const double ready = static_cast<double>(registry["rodb.io.prefetch_ready"]);
    const double hits = static_cast<double>(registry["rodb.cache.hits"]);
    const double misses = static_cast<double>(registry["rodb.cache.misses"]);
    const double laps = static_cast<double>(registry["rodb.server.laps"]);
    const double appends = static_cast<double>(registry["rodb.ingest.appends"]);
    // Tracing overhead, paired per class: traced over untraced slices.
    double log_overhead = 0;
    int overhead_pairs = 0;
    for (int c = 0; c < kNumClasses; ++c) {
      if (on_lat[c].empty() || off_lat[c].empty()) continue;
      log_overhead += std::log(Median(on_lat[c]) / Median(off_lat[c]));
      ++overhead_pairs;
    }
    // Non-perturbation: each serial ordered lookup in a traced slice did
    // the same scan work as the same lookup in an untraced one.
    uint64_t counter_mismatches = 0;
    std::map<std::pair<int, int>, const ExecCounters*> untraced_lookups;
    for (const Sample* s : all) {
      if (s->ok && !s->traced_slice && IsLookup(s->cls)) {
        untraced_lookups.emplace(std::make_pair(s->cls, s->variant),
                                 &s->counters);
      }
    }
    for (const Sample* s : all) {
      if (!s->ok || !s->traced_slice || !IsLookup(s->cls)) continue;
      auto it = untraced_lookups.find({s->cls, s->variant});
      if (it != untraced_lookups.end() &&
          !SameScanWork(*it->second, s->counters)) {
        ++counter_mismatches;
        std::fprintf(stderr, "counter mismatch: %s traced vs untraced\n",
                     kClassNames[s->cls]);
      }
    }
    // The wire carries only part of ExecCounters; pruning and kernel work
    // come from the (in-process) registry instead, and decode counts are
    // not observable from outside at all.
    const double pruned =
        static_cast<double>(registry["rodb.scan.pruning.pages_pruned"]);
    const double retained =
        static_cast<double>(registry["rodb.scan.pruning.pages_retained"]);
    const double kernel_values =
        static_cast<double>(registry["rodb.scan.vectorized.values"]);
    const double skipped = static_cast<double>(
        registry["rodb.scan.vectorized.mask_skipped_values"]);
    report.per_layer = {
        {"io.open_ms", open_ns / 1e6 / per_query},
        {"io.streams_per_query", streams / per_query},
        {"io.read_wait_ms", next_ns / 1e6 / per_query},
        {"io.bytes_per_tuple", traced_tuples > 0 ? io_bytes / traced_tuples : 0},
        {"io.prefetch_stall_frac",
         stalls + ready > 0 ? stalls / (stalls + ready) : 0},
        {"io.cache_hit_frac", hits + misses > 0 ? hits / (hits + misses) : 0},
        {"io.cache_evictions",
         static_cast<double>(registry["rodb.cache.evictions"])},
        {"io.fsyncs", static_cast<double>((*fsyncs)["rodb.durability.syncs"] +
                                          (*fsyncs)["rodb.durability.dir_syncs"])},
        {"io.fsync_ms",
         static_cast<double>((*fsyncs)["rodb.durability.sync_micros"]) / 1e3},
        {"tpch.load_s", Mean(load_s)},
        {"storage.open_table_ms", Mean(open_table_ms)},
        {"storage.pages_parsed_per_query", n > 0 ? pages / n : 0},
        {"engine.execute_ms", Median(wall)},
        {"engine.self_ms",
         std::max(0.0, Mean(wall) - (open_ns + next_ns) / 1e6 / per_query)},
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
        {"kernels.values_per_query", n > 0 ? kernel_values / n : 0},
        {"kernels.mask_skipped_frac",
         kernel_values + skipped > 0 ? skipped / (kernel_values + skipped) : 0},
        {"server.wire_ms", Median(wire)},
        {"server.shared_frac", n > 0 ? shared / n : 0},
        {"server.riders_per_lap",
         laps > 0
             ? static_cast<double>(registry["rodb.server.attached_total"]) / laps
             : 0},
        {"server.shared_ms", Median(by_mode[0])},
        {"server.exclusive_ms", Median(by_mode[1])},
        {"server.parallel_ms", Median(by_mode[2])},
        {"server.snapshot_ms", Median(by_mode[3])},
        {"server.query_tail_ms", tail},
        {"server.ingest_ack_p50_ms", ack_p50},
        {"server.ingest_ack_p99_ms", ack_p99},
        {"wos.freezes", static_cast<double>(registry["rodb.ingest.freezes"])},
        {"wos.merges", static_cast<double>(registry["rodb.ingest.merges"])},
        {"wos.rewrite_amp",
         appends > 0
             ? static_cast<double>(registry["rodb.ingest.frozen_tuples"] +
                                   registry["rodb.ingest.merged_tuples"]) /
                   appends
             : 0},
        {"wos.segments_per_snapshot", Mean(segments)},
        {"obs.trace_overhead_frac",
         overhead_pairs > 0 ? std::exp(log_overhead / overhead_pairs) - 1 : 0},
        {"obs.counter_mismatches", static_cast<double>(counter_mismatches)},
        {"model.predicted_ms", Mean(model_ms)},
        {"gen.late_ms_p99", late_p99},
    };
    Json classes;
    for (const auto& [name, w] : class_wall) {
      classes.Raw(name, Json()
                            .Num("n", static_cast<double>(w.size()))
                            .Num("wall_ms_p50", Median(w))
                            .Num("wall_ms_mean", Mean(w))
                            .str());
    }
    detail.Raw("classes", classes.str());
    WriteSpansTsv(args.work_dir + "/spans-" + args.workload + ".tsv", spans);
  }
  report.detail = detail.str();
  server.reset();
  std::error_code ec;
  std::filesystem::remove_all(data_base, ec);
  return report;
}

}  // namespace perfbench
