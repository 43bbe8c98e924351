#include "obs/span.h"

#include <algorithm>
#include <cstdio>

namespace rodb::obs {

const char* PhaseName(TracePhase phase) {
  switch (phase) {
    case TracePhase::kQuery:     return "query";
    case TracePhase::kOpen:      return "open";
    case TracePhase::kScan:      return "scan";
    case TracePhase::kIo:        return "io";
    case TracePhase::kDecode:    return "decode";
    case TracePhase::kFilter:    return "filter";
    case TracePhase::kProject:   return "project";
    case TracePhase::kAggregate: return "aggregate";
    case TracePhase::kSort:      return "sort";
    case TracePhase::kMerge:     return "merge";
    case TracePhase::kMorsel:    return "morsel";
    case TracePhase::kIoRetry:   return "io.retry";
  }
  return "?";
}

void QueryTrace::AddPhaseNanos(TracePhase phase, uint64_t nanos) {
  const size_t i = Index(phase);
  nanos_[i].fetch_add(nanos, std::memory_order_relaxed);
  calls_[i].fetch_add(1, std::memory_order_relaxed);
  if (order_[i].load(std::memory_order_relaxed) == 0) {
    uint32_t expected = 0;
    const uint32_t seq = next_order_.fetch_add(1, std::memory_order_relaxed);
    // Lost races leave the earlier claimant's stamp in place, which is
    // exactly the "first activation" we want.
    order_[i].compare_exchange_strong(expected, seq,
                                      std::memory_order_relaxed);
  }
}

namespace {

/// Appends (name, value) only for span counters whose event actually
/// happened, so spans don't render rows of zeros.
void Put(std::vector<std::pair<std::string, uint64_t>>* list,
         const char* name, uint64_t value) {
  if (name != nullptr && value > 0) list->emplace_back(name, value);
}

}  // namespace

void QueryTrace::FinalizeFromCounters(const ExecCounters& c) {
  for (auto& list : counters_) list.clear();
#define RODB_EXEC_COUNTER(field, phase, span, metric, scaling) \
  Put(&counters_[Index(TracePhase::phase)], span, c.field);
#include "hwmodel/exec_counters.def"
  finalized_ = true;
}

bool QueryTrace::Present(TracePhase phase) const {
  const size_t i = Index(phase);
  return calls_[i].load(std::memory_order_relaxed) > 0 ||
         !counters_[i].empty();
}

std::vector<TracePhase> QueryTrace::ActivationSequence() const {
  std::vector<TracePhase> seq;
  for (size_t i = 0; i < kNumTracePhases; ++i) {
    if (order_[i].load(std::memory_order_relaxed) > 0) {
      seq.push_back(static_cast<TracePhase>(i));
    }
  }
  std::sort(seq.begin(), seq.end(), [this](TracePhase a, TracePhase b) {
    return ActivationOrder(a) < ActivationOrder(b);
  });
  return seq;
}

std::vector<SpanNode> QueryTrace::Spans() const {
  const auto timed = [this](TracePhase p) {
    return calls_[Index(p)].load(std::memory_order_relaxed) > 0;
  };

  // Parent of each present phase. The operator chain nests timed phases
  // by pull order (outer operators include their children's time);
  // counter-only phases hang off the span that did the work on their
  // behalf: decode/filter/project work happens inside scanners, the rest
  // directly under the query.
  TracePhase parent[kNumTracePhases];
  for (size_t i = 0; i < kNumTracePhases; ++i) {
    parent[i] = TracePhase::kQuery;
  }
  TracePhase chain_parent = TracePhase::kQuery;
  for (TracePhase p :
       {TracePhase::kMerge, TracePhase::kAggregate, TracePhase::kSort,
        TracePhase::kProject, TracePhase::kFilter, TracePhase::kScan}) {
    if (!timed(p)) continue;
    parent[Index(p)] = chain_parent;
    chain_parent = p;
  }
  const TracePhase scan_or_query =
      timed(TracePhase::kScan) ? TracePhase::kScan : TracePhase::kQuery;
  // I/O time is measured inside the scanner's Next, so the io span nests
  // under scan whether or not it recorded wall time; that also makes
  // scan's self time subtract the blocking I/O it contains. Open is
  // timed at the executor around the whole pipeline's Open() and stays a
  // direct child of the query.
  parent[Index(TracePhase::kIo)] = scan_or_query;
  // Retry time is spent inside the io span's blocking Next() calls. When
  // a stream is driven outside any scanner (no io span), fall back to the
  // same anchor the io span itself would use so the node is not orphaned.
  parent[Index(TracePhase::kIoRetry)] =
      Present(TracePhase::kIo) ? TracePhase::kIo : scan_or_query;
  for (TracePhase p :
       {TracePhase::kOpen, TracePhase::kDecode, TracePhase::kFilter,
        TracePhase::kProject}) {
    if (!timed(p)) parent[Index(p)] = scan_or_query;
  }

  // Emit depth-first from the query root, children in enum order (which
  // is canonical pipeline order within a level).
  std::vector<SpanNode> out;
  struct Frame {
    TracePhase phase;
    int depth;
  };
  std::vector<Frame> stack = {{TracePhase::kQuery, 0}};
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    SpanNode node;
    node.phase = f.phase;
    node.depth = f.depth;
    node.inclusive_nanos = PhaseNanos(f.phase);
    node.calls = PhaseCalls(f.phase);
    node.first_activation = ActivationOrder(f.phase);
    node.counters = counters_[Index(f.phase)];
    uint64_t timed_children = 0;
    // Push children in reverse enum order so they pop in enum order.
    for (size_t i = kNumTracePhases; i-- > 1;) {
      const auto child = static_cast<TracePhase>(i);
      if (child == f.phase || parent[i] != f.phase || !Present(child)) {
        continue;
      }
      stack.push_back({child, f.depth + 1});
      timed_children += PhaseNanos(child);
    }
    node.self_nanos = node.inclusive_nanos > timed_children
                          ? node.inclusive_nanos - timed_children
                          : 0;
    out.push_back(std::move(node));
  }
  return out;
}

std::string QueryTrace::ToText() const {
  std::string out;
  char buf[160];
  for (const SpanNode& n : Spans()) {
    std::snprintf(buf, sizeof(buf), "%*s%-*s %10.3f ms  self %10.3f ms  x%llu",
                  n.depth * 2, "", 12 - std::min(n.depth * 2, 10),
                  PhaseName(n.phase),
                  static_cast<double>(n.inclusive_nanos) / 1e6,
                  static_cast<double>(n.self_nanos) / 1e6,
                  static_cast<unsigned long long>(n.calls));
    out += buf;
    for (const auto& [name, value] : n.counters) {
      std::snprintf(buf, sizeof(buf), "  %s=%llu", name.c_str(),
                    static_cast<unsigned long long>(value));
      out += buf;
    }
    out += "\n";
  }
  return out;
}

std::string QueryTrace::ToJson() const {
  const std::vector<SpanNode> spans = Spans();
  std::string out;
  char buf[160];
  // Spans() lists parents immediately before their subtree, so the nested
  // JSON falls out of depth transitions.
  int prev_depth = -1;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanNode& n = spans[i];
    if (n.depth > prev_depth) {
      // First child of the previous node: its "children" array is open.
    } else {
      // Close everything deeper than this node plus its previous
      // sibling, then separate.
      for (int d = prev_depth; d >= n.depth; --d) out += "]}";
      out += ",";
    }
    std::snprintf(buf, sizeof(buf),
                  "{\"phase\":\"%s\",\"inclusive_nanos\":%llu,"
                  "\"self_nanos\":%llu,\"calls\":%llu,"
                  "\"first_activation\":%u,\"counters\":{",
                  PhaseName(n.phase),
                  static_cast<unsigned long long>(n.inclusive_nanos),
                  static_cast<unsigned long long>(n.self_nanos),
                  static_cast<unsigned long long>(n.calls),
                  n.first_activation);
    out += buf;
    for (size_t k = 0; k < n.counters.size(); ++k) {
      std::snprintf(buf, sizeof(buf), "%s\"%s\":%llu", k == 0 ? "" : ",",
                    n.counters[k].first.c_str(),
                    static_cast<unsigned long long>(n.counters[k].second));
      out += buf;
    }
    out += "},\"children\":[";
    prev_depth = n.depth;
  }
  for (int d = prev_depth; d >= 0; --d) out += "]}";
  return out;
}

}  // namespace rodb::obs
