// Continuous ingest under load: append throughput into the segmented
// WOS, query tail latency while a background merge folds the frozen
// segments into the next ROS generation, and the wall time of the merge
// itself.
//
// Three phases over one ingest-attached table of 4 int32 attributes:
//
//   append   closed-loop AppendBatch with auto-freeze -- tuples/s into
//            the active segment including seal/sort/segment-write time.
//   query    the same predicated scan in a closed loop, once against an
//            idle store (baseline) and once while Merge() runs on a
//            second thread -- the paper's "reads never block on the
//            write path" claim as p50/p99 numbers.
//   merge    wall time of that fold of all segments (a streaming k-way
//            merge, one scan per input), after which the bench checks
//            that the new generation holds every appended tuple once:
//            a full-table query must return the append count and the
//            order-independent digest of the appended tuples.
//
// Output: one JSON line per point --
//   {"bench":"ingest_merge","phase":"append",...}
//
// Flags: --tuples=N       dataset cardinality (default 200000;
//                         RODB_BENCH_TUPLES overrides the default)
//        --batch=N        tuples per append batch (default 1024)
//        --segments=N     frozen segments to build (default 8)
//
// Scratch tables live under RODB_BENCH_DIR (default: a fresh temp dir,
// removed on exit).

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "common/macros.h"
#include "common/random.h"
#include "engine/executor.h"
#include "server/query_engine.h"
#include "server/query_request.h"
#include "storage/database.h"
#include "wos/ingest_store.h"

using namespace rodb;  // NOLINT

namespace {

constexpr int kAttrs = 4;
constexpr uint64_t kKeyDomain = 1 << 20;

Schema MakeSchema() {
  auto schema = Schema::Make(
      {AttributeDesc::Int32("k"), AttributeDesc::Int32("a"),
       AttributeDesc::Int32("b"), AttributeDesc::Int32("c")});
  RODB_CHECK(schema.ok());
  return std::move(schema).value();
}

/// `count` random raw tuples, key in [0, kKeyDomain).
std::vector<uint8_t> MakeBatch(Random* rng, uint64_t count) {
  std::vector<uint8_t> data(count * kAttrs * 4);
  for (uint64_t i = 0; i < count; ++i) {
    uint8_t* t = data.data() + i * kAttrs * 4;
    StoreLE32s(t, static_cast<int32_t>(rng->Uniform(kKeyDomain)));
    for (int a = 1; a < kAttrs; ++a) {
      StoreLE32s(t + a * 4, static_cast<int32_t>(rng->Uniform(1000)));
    }
  }
  return data;
}

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double Percentile(std::vector<double>* sorted_in_place, double p) {
  if (sorted_in_place->empty()) return 0.0;
  std::sort(sorted_in_place->begin(), sorted_in_place->end());
  const size_t idx = static_cast<size_t>(
      p * static_cast<double>(sorted_in_place->size() - 1));
  return (*sorted_in_place)[idx];
}

/// Appends `tuples` in batches with auto-freeze sized so `segments`
/// frozen segments come out, and reports append throughput. Returns the
/// order-independent digest of the appended tuples: the wrapping sum of
/// each tuple's FNV-1a hash, as QueryResult::row_digest computes it.
uint64_t BuildTable(Database* db, const std::string& table, uint64_t tuples,
                    uint64_t batch, uint64_t segments) {
  IngestOptions options;
  options.sort_attr = 0;
  options.layout = Layout::kColumn;
  options.freeze_tuples = std::max<uint64_t>(1, tuples / segments);
  options.merge_segments = 0;  // merges only when the bench says so
  RODB_CHECK(db->EnsureIngest(table, MakeSchema(), options).ok());

  Random rng(7);
  uint64_t digest = 0;
  const size_t width = kAttrs * 4;
  const auto start = std::chrono::steady_clock::now();
  std::shared_ptr<IngestStore> store = db->ingest(table);
  for (uint64_t done = 0; done < tuples;) {
    const uint64_t n = std::min(batch, tuples - done);
    const std::vector<uint8_t> data = MakeBatch(&rng, n);
    RODB_CHECK(store->AppendBatch(data.data(), n).ok());
    for (uint64_t i = 0; i < n; ++i) {
      digest += Fnv1aExtend(kFnv1aSeed, data.data() + i * width, width);
    }
    done += n;
  }
  RODB_CHECK(store->Freeze().ok());
  const double seconds = Seconds(start);
  const Snapshot snap = store->Acquire();
  std::printf(
      "{\"bench\":\"ingest_merge\",\"phase\":\"append\","
      "\"tuples\":%llu,\"batch\":%llu,\"seconds\":%.3f,"
      "\"tuples_per_sec\":%.0f,\"segments_frozen\":%zu}\n",
      static_cast<unsigned long long>(tuples),
      static_cast<unsigned long long>(batch), seconds,
      static_cast<double>(tuples) / seconds, snap.num_frozen());
  std::fflush(stdout);
  return digest;
}

struct QueryPhase {
  uint64_t queries = 0;
  uint64_t errors = 0;
  std::vector<double> latencies_ms;
};

/// Closed-loop predicated scans until `stop` flips (or `max_queries`
/// against an idle store).
QueryPhase RunQueries(Database* db, const std::string& table,
                      const std::atomic<bool>* stop, uint64_t max_queries) {
  QueryRequest request;
  request.table = table;
  request.scan.projection = {0, 1};
  request.scan.predicates = {Predicate::Int32(
      0, CompareOp::kLt, static_cast<int32_t>(kKeyDomain / 10))};
  QueryPhase phase;
  while ((stop == nullptr || !stop->load(std::memory_order_acquire)) &&
         phase.queries + phase.errors < max_queries) {
    const auto start = std::chrono::steady_clock::now();
    auto result = db->Execute(request);
    const double ms = Seconds(start) * 1000.0;
    if (!result.ok()) {
      ++phase.errors;
      continue;
    }
    ++phase.queries;
    phase.latencies_ms.push_back(ms);
  }
  return phase;
}

void PrintQueryPoint(const char* merge_state, QueryPhase* phase,
                     double seconds) {
  const double p50 = Percentile(&phase->latencies_ms, 0.50);
  const double p99 = Percentile(&phase->latencies_ms, 0.99);
  std::printf(
      "{\"bench\":\"ingest_merge\",\"phase\":\"query\",\"merge\":\"%s\","
      "\"queries\":%llu,\"seconds\":%.3f,\"qps\":%.1f,"
      "\"p50_ms\":%.2f,\"p99_ms\":%.2f,\"errors\":%llu}\n",
      merge_state, static_cast<unsigned long long>(phase->queries), seconds,
      static_cast<double>(phase->queries) / seconds, p50, p99,
      static_cast<unsigned long long>(phase->errors));
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t tuples = 200000;
  if (const char* env = std::getenv("RODB_BENCH_TUPLES")) {
    tuples = static_cast<uint64_t>(std::atoll(env));
  }
  uint64_t batch = 1024;
  uint64_t segments = 8;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--tuples=", 9) == 0) {
      tuples = static_cast<uint64_t>(std::atoll(argv[i] + 9));
    } else if (std::strncmp(argv[i], "--batch=", 8) == 0) {
      batch = static_cast<uint64_t>(std::atoll(argv[i] + 8));
    } else if (std::strncmp(argv[i], "--segments=", 11) == 0) {
      segments = static_cast<uint64_t>(std::atoll(argv[i] + 11));
    } else {
      std::fprintf(stderr,
                   "usage: ingest_merge [--tuples=N] [--batch=N]"
                   " [--segments=N]\n");
      return 2;
    }
  }
  RODB_CHECK(tuples > 0 && batch > 0 && segments > 0);

  std::string dir;
  bool scratch = false;
  if (const char* env = std::getenv("RODB_BENCH_DIR")) {
    dir = env;
    std::filesystem::create_directories(dir);
  } else {
    char tmpl[] = "/tmp/rodb_ingest_merge_XXXXXX";
    RODB_CHECK(mkdtemp(tmpl) != nullptr);
    dir = tmpl;
    scratch = true;
  }

  std::fprintf(stderr,
               "ingest_merge: %llu tuples, batch %llu, %llu segments,"
               " dir %s\n",
               static_cast<unsigned long long>(tuples),
               static_cast<unsigned long long>(batch),
               static_cast<unsigned long long>(segments), dir.c_str());

  {
    auto opened = Database::Open(dir);
    RODB_CHECK(opened.ok());
    Database db = std::move(*opened);

    // Phase 1: append throughput.
    const uint64_t digest = BuildTable(&db, "stream", tuples, batch, segments);

    // Phase 2: query latency, idle baseline then during a live merge.
    std::shared_ptr<IngestStore> store = db.ingest("stream");
    auto idle_start = std::chrono::steady_clock::now();
    QueryPhase idle = RunQueries(&db, "stream", nullptr, /*max_queries=*/64);
    PrintQueryPoint("idle", &idle, Seconds(idle_start));

    std::atomic<bool> merge_done{false};
    Status merge_status;
    double merge_seconds = 0.0;
    const auto merge_start = std::chrono::steady_clock::now();
    std::thread merger([&] {
      merge_status = store->Merge();
      // Timed here, not after join(): the join waits out the query in
      // flight when the merge ends.
      merge_seconds = Seconds(merge_start);
      merge_done.store(true, std::memory_order_release);
    });
    auto busy_start = std::chrono::steady_clock::now();
    QueryPhase busy =
        RunQueries(&db, "stream", &merge_done, /*max_queries=*/1 << 20);
    merger.join();
    RODB_CHECK(merge_status.ok());
    PrintQueryPoint("background", &busy, Seconds(busy_start));
    std::printf(
        "{\"bench\":\"ingest_merge\",\"phase\":\"merge\","
        "\"tuples\":%llu,\"seconds\":%.3f,\"tuples_per_sec\":%.0f}\n",
        static_cast<unsigned long long>(tuples), merge_seconds,
        static_cast<double>(tuples) / merge_seconds);
    std::fflush(stdout);

    // The fold kept every appended tuple exactly once.
    const Snapshot merged = store->Acquire();
    RODB_CHECK(merged.num_frozen() == 0);
    RODB_CHECK(merged.ros() != nullptr &&
               merged.ros()->meta().num_tuples == tuples);
    QueryRequest full;
    full.table = "stream";
    auto result = db.Execute(full);
    RODB_CHECK(result.ok());
    RODB_CHECK(result->rows == tuples);
    RODB_CHECK(result->row_digest == digest);

    db.ConfigureEngine(EngineOptions());  // shut down before cleanup
  }

  if (scratch) {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
  return 0;
}
