// Continuous-ingest soak of the query server: one writer streams
// append batches (with periodic freezes and background-merge triggers)
// over kIngest frames while N closed-loop clients run snapshot queries
// against the same table over kQuery frames -- the full cross-thread
// surface of the ingest path in one process: connection handler threads
// calling QueryEngine::Ingest and Execute concurrently, the freeze
// seal/persist path racing Acquire(), the background merge publishing
// generations under live snapshots, and engine shutdown at the end.
//
// Built under ThreadSanitizer by tools/run_ingest_soak.sh; any race is
// the finding. The soak itself asserts the protocol-level invariants a
// race would corrupt:
//   - zero client-side errors (a malformed reply, a refused batch),
//   - per client, snapshot_tuples never decreases across its queries
//     (snapshots pin the append-order prefix, which only grows),
//   - the final drained query sees exactly the tuples acknowledged to
//     the writer.
//
// Output: one JSON line --
//   {"bench":"ingest_soak","clients":16,...,"errors":0,...}
//
// Flags: --duration-ms=N  soak length (default 2000)
//        --clients=N      query clients (default 16)
//        --batch=N        tuples per ingest batch (default 500)

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "common/macros.h"
#include "common/random.h"
#include "server/client.h"
#include "server/server.h"
#include "storage/schema.h"

using namespace rodb;  // NOLINT

namespace {

constexpr int kAttrs = 4;
constexpr uint64_t kKeyDomain = 1 << 20;
constexpr char kTable[] = "stream";

Schema MakeSchema() {
  auto schema = Schema::Make(
      {AttributeDesc::Int32("k"), AttributeDesc::Int32("a"),
       AttributeDesc::Int32("b"), AttributeDesc::Int32("c")});
  RODB_CHECK(schema.ok());
  return std::move(schema).value();
}

struct WriterStats {
  uint64_t batches = 0;
  uint64_t tuples = 0;
  uint64_t freezes = 0;
  uint64_t merges = 0;
  uint64_t errors = 0;
  uint64_t acked_total = 0;  ///< last appended_total the server returned
};

/// The single writer: batches until the deadline, freezing every 4th
/// batch and nudging a background merge every 16th.
WriterStats RunWriter(int port, uint64_t batch,
                      std::chrono::steady_clock::time_point deadline) {
  WriterStats stats;
  QueryClient client;
  if (!client.Connect("127.0.0.1", port).ok()) {
    stats.errors = 1;
    return stats;
  }
  Random rng(11);
  IngestRequest request;
  request.table = kTable;
  MakeSchema().AppendTo(&request.schema_text);  // attach on first batch
  request.layout = Layout::kColumn;
  request.sort_attr = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    request.count = batch;
    request.data.resize(batch * kAttrs * 4);
    for (uint64_t i = 0; i < batch; ++i) {
      uint8_t* t = request.data.data() + i * kAttrs * 4;
      StoreLE32s(t, static_cast<int32_t>(rng.Uniform(kKeyDomain)));
      for (int a = 1; a < kAttrs; ++a) {
        StoreLE32s(t + a * 4, static_cast<int32_t>(rng.Uniform(1000)));
      }
    }
    request.freeze = stats.batches % 4 == 3;
    request.merge = stats.batches % 16 == 15;
    auto result = client.Ingest(request);
    if (!result.ok()) {
      ++stats.errors;
      continue;
    }
    request.schema_text.clear();  // attached after the first success
    ++stats.batches;
    stats.tuples += batch;
    if (request.freeze) ++stats.freezes;
    if (request.merge) ++stats.merges;
    stats.acked_total = result->appended_total;
  }
  return stats;
}

struct ReaderStats {
  uint64_t queries = 0;
  uint64_t errors = 0;
  uint64_t monotonicity_violations = 0;
};

/// One closed-loop query client; asserts its snapshots never move
/// backwards.
ReaderStats RunReader(int port,
                      std::chrono::steady_clock::time_point deadline) {
  ReaderStats stats;
  QueryClient client;
  if (!client.Connect("127.0.0.1", port).ok()) {
    stats.errors = 1;
    return stats;
  }
  QueryRequest request;
  request.table = kTable;
  request.scan.projection = {0, 1};
  request.scan.predicates = {Predicate::Int32(
      0, CompareOp::kLt, static_cast<int32_t>(kKeyDomain / 10))};
  uint64_t last_visible = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    auto result = client.Execute(request);
    if (!result.ok()) {
      // The writer's first batch may not have attached the table yet.
      const bool warming =
          stats.queries == 0 &&
          result.status().code() == StatusCode::kNotFound;
      if (!warming) ++stats.errors;
      continue;
    }
    ++stats.queries;
    if (result->snapshot_tuples < last_visible) {
      ++stats.monotonicity_violations;
    }
    last_visible = result->snapshot_tuples;
  }
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  int duration_ms = 2000;
  int clients = 16;
  uint64_t batch = 500;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--duration-ms=", 14) == 0) {
      duration_ms = std::atoi(argv[i] + 14);
    } else if (std::strncmp(argv[i], "--clients=", 10) == 0) {
      clients = std::atoi(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--batch=", 8) == 0) {
      batch = static_cast<uint64_t>(std::atoll(argv[i] + 8));
    } else {
      std::fprintf(stderr,
                   "usage: ingest_soak [--duration-ms=N] [--clients=N]"
                   " [--batch=N]\n");
      return 2;
    }
  }
  RODB_CHECK(duration_ms > 0 && clients > 0 && batch > 0);

  std::string dir;
  bool scratch = false;
  if (const char* env = std::getenv("RODB_BENCH_DIR")) {
    dir = env;
    std::filesystem::create_directories(dir);
  } else {
    char tmpl[] = "/tmp/rodb_ingest_soak_XXXXXX";
    RODB_CHECK(mkdtemp(tmpl) != nullptr);
    dir = tmpl;
    scratch = true;
  }

  int exit_code = 0;
  {
    QueryServer server(dir, ServerOptions{});
    RODB_CHECK(server.Start().ok());
    std::fprintf(stderr,
                 "ingest_soak: %d ms, 1 writer + %d query clients,"
                 " batch %llu, port %d\n",
                 duration_ms, clients,
                 static_cast<unsigned long long>(batch), server.port());

    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(duration_ms);
    WriterStats writer;
    std::vector<ReaderStats> readers(static_cast<size_t>(clients));
    std::thread writer_thread(
        [&] { writer = RunWriter(server.port(), batch, deadline); });
    std::vector<std::thread> reader_threads;
    reader_threads.reserve(static_cast<size_t>(clients));
    for (int c = 0; c < clients; ++c) {
      reader_threads.emplace_back([&, c] {
        readers[static_cast<size_t>(c)] = RunReader(server.port(), deadline);
      });
    }
    writer_thread.join();
    for (auto& t : reader_threads) t.join();

    ReaderStats read_total;
    for (const ReaderStats& r : readers) {
      read_total.queries += r.queries;
      read_total.errors += r.errors;
      read_total.monotonicity_violations += r.monotonicity_violations;
    }

    // Drain: a final query must see every acknowledged tuple.
    uint64_t drained_visible = 0;
    {
      QueryClient client;
      RODB_CHECK(client.Connect("127.0.0.1", server.port()).ok());
      QueryRequest request;
      request.table = kTable;
      auto result = client.Execute(request);
      if (result.ok()) {
        drained_visible = result->snapshot_tuples;
      } else {
        ++read_total.errors;
      }
    }
    const bool drain_ok = drained_visible == writer.acked_total;

    std::printf(
        "{\"bench\":\"ingest_soak\",\"clients\":%d,"
        "\"duration_seconds\":%.1f,\"batch\":%llu,"
        "\"batches\":%llu,\"tuples\":%llu,\"freezes\":%llu,"
        "\"merges_triggered\":%llu,\"queries\":%llu,"
        "\"errors\":%llu,\"monotonicity_violations\":%llu,"
        "\"drained_visible\":%llu,\"acked_total\":%llu,"
        "\"drain_ok\":%s}\n",
        clients, static_cast<double>(duration_ms) / 1000.0,
        static_cast<unsigned long long>(batch),
        static_cast<unsigned long long>(writer.batches),
        static_cast<unsigned long long>(writer.tuples),
        static_cast<unsigned long long>(writer.freezes),
        static_cast<unsigned long long>(writer.merges),
        static_cast<unsigned long long>(read_total.queries),
        static_cast<unsigned long long>(writer.errors + read_total.errors),
        static_cast<unsigned long long>(read_total.monotonicity_violations),
        static_cast<unsigned long long>(drained_visible),
        static_cast<unsigned long long>(writer.acked_total),
        drain_ok ? "true" : "false");
    std::fflush(stdout);

    if (writer.errors + read_total.errors != 0 || writer.batches == 0 ||
        read_total.queries == 0 || read_total.monotonicity_violations != 0 ||
        !drain_ok) {
      exit_code = 1;
    }
    server.Stop();
  }

  if (scratch) {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
  return exit_code;
}
