// Scan-sharing under load: queries/s and tail latency of the query
// server as the number of closed-loop socket clients grows.
//
// Every client runs the same predicated full scan of ORDERS in a closed
// loop (send, wait for the result, send again) against one rodb_server
// engine over the wire protocol, once with kShared requests (all
// clients ride the table's circulating scan) and once with kExclusive
// requests (the paper's one-scan-per-query model: 8 scans run, the rest
// queue at admission). The shared mode is expected to sustain higher
// throughput and a lower p99 from ~dozens of clients up: the
// circulating scan does one table pass per lap no matter how many
// queries are attached, while exclusive queries serialize behind the
// admission gate.
//
// Output: one JSON line per (mode, clients) point --
//   {"bench":"server_concurrency","mode":"shared","clients":256,...}
// with queries completed, qps, p50/p99 latency and error count.
//
// Flags: --duration-ms=N  seconds each point runs (default 2000)
//        --clients=a,b,c  client counts (default 16,64,256)

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/macros.h"
#include "server/client.h"
#include "server/server.h"

using namespace rodb;         // NOLINT
using namespace rodb::bench;  // NOLINT
using namespace rodb::tpch;   // NOLINT

namespace {

struct Point {
  uint64_t queries = 0;
  uint64_t errors = 0;
  std::vector<double> latencies_ms;
};

/// One closed-loop client: connect, then issue the query back to back
/// until the deadline.
Point RunClient(int port, const QueryRequest& request,
                std::chrono::steady_clock::time_point deadline) {
  Point point;
  QueryClient client;
  if (!client.Connect("127.0.0.1", port).ok()) {
    point.errors = 1;
    return point;
  }
  while (std::chrono::steady_clock::now() < deadline) {
    const auto start = std::chrono::steady_clock::now();
    auto result = client.Execute(request);
    const auto end = std::chrono::steady_clock::now();
    if (!result.ok()) {
      ++point.errors;
      continue;
    }
    ++point.queries;
    point.latencies_ms.push_back(
        std::chrono::duration<double, std::milli>(end - start).count());
  }
  return point;
}

double Percentile(std::vector<double>* sorted_in_place, double p) {
  if (sorted_in_place->empty()) return 0.0;
  std::sort(sorted_in_place->begin(), sorted_in_place->end());
  const size_t idx = static_cast<size_t>(
      p * static_cast<double>(sorted_in_place->size() - 1));
  return (*sorted_in_place)[idx];
}

}  // namespace

int main(int argc, char** argv) {
  int duration_ms = 2000;
  std::vector<int> client_counts = {16, 64, 256};
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--duration-ms=", 14) == 0) {
      duration_ms = std::atoi(argv[i] + 14);
    } else if (std::strncmp(argv[i], "--clients=", 10) == 0) {
      client_counts.clear();
      for (const char* p = argv[i] + 10; *p != '\0';) {
        client_counts.push_back(std::atoi(p));
        while (*p != '\0' && *p != ',') ++p;
        if (*p == ',') ++p;
      }
    } else {
      std::fprintf(stderr,
                   "usage: server_concurrency [--duration-ms=N]"
                   " [--clients=a,b,c]\n");
      return 2;
    }
  }

  Env env = Env::FromEnv();
  auto meta = EnsureOrders(env.Spec(Layout::kRow, false));
  RODB_CHECK(meta.ok());

  // One server for the whole bench; the request mode picks the
  // execution model. The exclusive admission queue must hold every
  // closed-loop client or overload turns into shed errors instead of
  // queueing -- the honest comparison is "everyone eventually runs".
  ServerOptions options;
  const int max_clients =
      *std::max_element(client_counts.begin(), client_counts.end());
  options.engine.exclusive.max_queue =
      std::max(options.engine.exclusive.max_queue, max_clients * 2);
  QueryServer server(env.data_dir, options);
  RODB_CHECK(server.Start().ok());

  QueryRequest request;
  request.table = meta->name;
  request.scan.projection = FirstAttrs(3);
  request.scan.predicates = {Predicate::Int32(
      kOOrderdate, CompareOp::kLt,
      SelectivityCutoff(kOrderdateDomain, 0.10))};

  std::fprintf(stderr,
               "server_concurrency: %llu tuples, %d ms per point, port %d\n",
               static_cast<unsigned long long>(env.tuples), duration_ms,
               server.port());

  for (const char* mode : {"exclusive", "shared"}) {
    request.mode = std::strcmp(mode, "shared") == 0 ? QueryMode::kShared
                                                    : QueryMode::kExclusive;
    for (int clients : client_counts) {
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::milliseconds(duration_ms);
      std::vector<Point> points(static_cast<size_t>(clients));
      std::vector<std::thread> threads;
      threads.reserve(static_cast<size_t>(clients));
      for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
          points[static_cast<size_t>(c)] =
              RunClient(server.port(), request, deadline);
        });
      }
      for (auto& t : threads) t.join();

      Point total;
      for (Point& p : points) {
        total.queries += p.queries;
        total.errors += p.errors;
        total.latencies_ms.insert(total.latencies_ms.end(),
                                  p.latencies_ms.begin(),
                                  p.latencies_ms.end());
      }
      const double seconds = static_cast<double>(duration_ms) / 1000.0;
      const double p50 = Percentile(&total.latencies_ms, 0.50);
      const double p99 = Percentile(&total.latencies_ms, 0.99);
      std::printf(
          "{\"bench\":\"server_concurrency\",\"mode\":\"%s\","
          "\"clients\":%d,\"tuples\":%llu,\"duration_seconds\":%.1f,"
          "\"queries\":%llu,\"qps\":%.1f,\"p50_ms\":%.2f,\"p99_ms\":%.2f,"
          "\"errors\":%llu}\n",
          mode, clients, static_cast<unsigned long long>(env.tuples),
          seconds, static_cast<unsigned long long>(total.queries),
          static_cast<double>(total.queries) / seconds, p50, p99,
          static_cast<unsigned long long>(total.errors));
      std::fflush(stdout);
    }
  }

  server.Stop();
  return 0;
}
