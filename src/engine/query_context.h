#ifndef RODB_ENGINE_QUERY_CONTEXT_H_
#define RODB_ENGINE_QUERY_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <utility>

#include "common/status.h"
#include "io/retry_backend.h"

namespace rodb {

/// Cooperative cancellation flag shared by everyone running one query.
///
/// Tokens are cheap shared handles; copying a token shares the flag.
/// Child() derives a token that fires when either it or any ancestor is
/// cancelled — the parallel executor cancels its own run (a failing
/// worker stops its siblings) without ever setting the caller's token.
class CancellationToken {
 public:
  CancellationToken() : state_(std::make_shared<State>()) {}

  /// Requests cancellation; checked cooperatively at morsel/page
  /// boundaries. Idempotent, safe from any thread (e.g. a deadline
  /// watchdog or a failing sibling worker).
  void Cancel() const { state_->cancelled.store(true, std::memory_order_release); }

  bool IsCancelled() const {
    for (const State* s = state_.get(); s != nullptr; s = s->parent.get()) {
      if (s->cancelled.load(std::memory_order_acquire)) return true;
    }
    return false;
  }

  /// A token that observes this token's cancellation but whose own
  /// Cancel() does not propagate upward.
  CancellationToken Child() const {
    CancellationToken child;
    child.state_->parent = state_;
    return child;
  }

 private:
  struct State {
    std::atomic<bool> cancelled{false};
    std::shared_ptr<const State> parent;
  };
  std::shared_ptr<State> state_;
};

/// Byte-granular memory budget shared by one query (or, via the
/// AdmissionController, by every admitted query). Reserve() either
/// debits atomically or fails with ResourceExhausted — it never blocks
/// and never over-commits, so a scan that would blow the budget fails
/// cleanly at the allocation site instead of OOM-ing the process.
class MemoryBudget {
 public:
  explicit MemoryBudget(uint64_t capacity_bytes)
      : capacity_(capacity_bytes) {}
  MemoryBudget(const MemoryBudget&) = delete;
  MemoryBudget& operator=(const MemoryBudget&) = delete;

  Status Reserve(uint64_t bytes) {
    uint64_t used = used_.load(std::memory_order_relaxed);
    do {
      if (used + bytes > capacity_) {
        return Status::ResourceExhausted("memory budget exceeded");
      }
    } while (!used_.compare_exchange_weak(used, used + bytes,
                                          std::memory_order_relaxed));
    return Status::OK();
  }

  void Release(uint64_t bytes) {
    used_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  uint64_t capacity_bytes() const { return capacity_; }
  uint64_t used_bytes() const {
    return used_.load(std::memory_order_relaxed);
  }

 private:
  const uint64_t capacity_;
  std::atomic<uint64_t> used_{0};
};

/// RAII hold on a MemoryBudget reservation. Movable; releases on
/// destruction so early error returns cannot leak budget.
class MemoryReservation {
 public:
  MemoryReservation() = default;
  MemoryReservation(MemoryBudget* budget, uint64_t bytes)
      : budget_(budget), bytes_(bytes) {}
  MemoryReservation(MemoryReservation&& other) noexcept
      : budget_(other.budget_), bytes_(other.bytes_) {
    other.budget_ = nullptr;
    other.bytes_ = 0;
  }
  MemoryReservation& operator=(MemoryReservation&& other) noexcept {
    if (this != &other) {
      Release();
      budget_ = other.budget_;
      bytes_ = other.bytes_;
      other.budget_ = nullptr;
      other.bytes_ = 0;
    }
    return *this;
  }
  MemoryReservation(const MemoryReservation&) = delete;
  MemoryReservation& operator=(const MemoryReservation&) = delete;
  ~MemoryReservation() { Release(); }

  void Release() {
    if (budget_ != nullptr && bytes_ > 0) budget_->Release(bytes_);
    budget_ = nullptr;
    bytes_ = 0;
  }

  uint64_t bytes() const { return bytes_; }

 private:
  MemoryBudget* budget_ = nullptr;
  uint64_t bytes_ = 0;
};

/// Everything the read path needs to know about one query's lifecycle:
/// an absolute deadline, a cooperative CancellationToken, an optional
/// shared MemoryBudget, and the RetryPolicy its I/O runs under.
///
/// Contexts are cheap value types — copies share the same token, budget
/// and report flag. A default context never expires, is never cancelled
/// and has no budget, so code paths that don't care can carry one at
/// zero behavioural cost. CheckAlive() is the single choke point the
/// executor, scanners, circulating scan and ingest merge call at unit
/// boundaries; kCancelled wins over kDeadlineExceeded when both hold so
/// an explicit Cancel() reports deterministically.
class QueryContext {
 public:
  QueryContext()
      : reported_(std::make_shared<std::atomic<bool>>(false)) {}

  /// Context whose CheckAlive() fails with kDeadlineExceeded once
  /// `timeout` has elapsed from now.
  static QueryContext WithTimeout(std::chrono::nanoseconds timeout) {
    QueryContext ctx;
    ctx.set_deadline(std::chrono::steady_clock::now() + timeout);
    return ctx;
  }

  void set_deadline(std::chrono::steady_clock::time_point deadline) {
    deadline_ = deadline;
    has_deadline_ = true;
  }
  bool has_deadline() const { return has_deadline_; }
  std::chrono::steady_clock::time_point deadline() const { return deadline_; }

  const CancellationToken& token() const { return token_; }
  /// Adopts a caller-held token (e.g. QueryRequest::cancel) so the
  /// caller can cancel this query from another thread.
  void set_token(CancellationToken token) { token_ = std::move(token); }
  void Cancel() const { token_.Cancel(); }

  /// Attaches a budget shared with every copy/child of this context.
  void set_memory_budget(std::shared_ptr<MemoryBudget> budget) {
    budget_ = std::move(budget);
  }
  MemoryBudget* memory_budget() const { return budget_.get(); }

  /// Debits `bytes` from the budget (no-op hold if none is attached).
  Result<MemoryReservation> ReserveMemory(uint64_t bytes) const;

  void set_retry_policy(const RetryPolicy& policy) { retry_policy_ = policy; }
  const RetryPolicy& retry_policy() const { return retry_policy_; }

  /// OK while the query may keep running; Cancelled / DeadlineExceeded
  /// once it must stop. The first failure per context family also
  /// increments rodb.resilience.cancelled / .deadline_exceeded — shared
  /// flag, so a query checked by twelve workers still counts once.
  Status CheckAlive() const;

  /// Context for a sub-unit of this query (a parallel run, a shared-scan
  /// participant): same deadline/budget/policy/metrics identity, child
  /// token — cancelling the child does not cancel this context.
  QueryContext Child() const {
    QueryContext child(*this);
    child.token_ = token_.Child();
    return child;
  }

  /// Closure form of CheckAlive() for layers that cannot see this header
  /// (the io-layer RetryingBackend's AliveCheck).
  AliveCheck MakeAliveCheck() const {
    QueryContext copy = *this;
    return [copy] { return copy.CheckAlive(); };
  }

 private:
  CancellationToken token_;
  std::chrono::steady_clock::time_point deadline_{};
  bool has_deadline_ = false;
  std::shared_ptr<MemoryBudget> budget_;
  RetryPolicy retry_policy_;
  /// Shared across copies/children so lifecycle metrics count per query.
  std::shared_ptr<std::atomic<bool>> reported_;
};

}  // namespace rodb

#endif  // RODB_ENGINE_QUERY_CONTEXT_H_
