// Bounded ctest entry points for the differential fuzz harness. The CLI
// (tools/rodb_fuzz.cc) runs open-ended campaigns; these tests pin a small
// deterministic budget so the whole matrix -- every layout x codec x
// {serial, parallel} x {clean, faulted} against the oracle -- runs on
// every `ctest` invocation in a few seconds.

#include "fuzz_harness.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <sstream>

#include "obs/metrics.h"

namespace rodb::fuzz {
namespace {

FuzzOptions SmokeOptions(uint64_t seed, int iterations) {
  FuzzOptions options;
  options.seed = seed;
  options.iterations = iterations;
  options.parallelism = 3;
  options.min_tuples = 50;
  options.max_tuples = 600;
  // CI prune matrix: RODB_PRUNE=0/1 pins the zone-map axis to one side
  // (datasets and queries stay identical -- only spec.prune changes);
  // unset leaves the per-query coin flip.
  if (const char* env = std::getenv("RODB_PRUNE")) {
    options.force_prune = std::strcmp(env, "0") == 0 ? 0 : 1;
  }
  return options;
}

TEST(FuzzTest, SmokeMatrixAgainstOracle) {
  auto& reg = obs::MetricsRegistry::Default();
  const uint64_t retry_attempts_before =
      reg.GetCounter("rodb.resilience.retry.attempts")->Value();
  const uint64_t retry_giveups_before =
      reg.GetCounter("rodb.resilience.retry.giveups")->Value();
  auto stats = RunFuzz(SmokeOptions(/*seed=*/1, /*iterations=*/12));
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  for (const std::string& failure : stats->failures) {
    ADD_FAILURE() << failure;
  }
  EXPECT_EQ(stats->mismatches, 0u);
  EXPECT_EQ(stats->iterations, 12u);
  // The matrix actually ran: every iteration cross-checks 6 tables
  // serially and in parallel, clean and faulted, plus the cached axis
  // (cold+warm clean, faulted cold + clean warm over one cache).
  EXPECT_GE(stats->clean_runs, 12u * 6u * 4u);
  EXPECT_EQ(stats->fault_runs, 12u * 6u * 4u);
  // The stats-invariance axis ran for every table: one parallel check
  // plus two cached passes against the serial baseline.
  EXPECT_EQ(stats->invariance_checks, 12u * 6u * 3u);
  // Both sides of the vectorized-kernel axis were exercised.
  EXPECT_GT(stats->vectorized_queries, 0u);
  EXPECT_GT(stats->scalar_queries, 0u);
  EXPECT_EQ(stats->vectorized_queries + stats->scalar_queries,
            stats->iterations);
  // The zone-map pruning axis ran: every query drew (or was pinned to) a
  // prune flag, and both sides appear unless the CI matrix pinned one.
  EXPECT_EQ(stats->pruned_queries + stats->unpruned_queries,
            stats->iterations);
  if (std::getenv("RODB_PRUNE") == nullptr) {
    EXPECT_GT(stats->pruned_queries, 0u);
    EXPECT_GT(stats->unpruned_queries, 0u);
  }
  // Every table also survived a damaged synopsis sidecar.
  EXPECT_EQ(stats->synopsis_corrupt_runs, 12u * 6u);
  // Faults fired, and the engine survived them both ways: clean Status
  // errors and fully correct answers -- never silently wrong (that would
  // be a mismatch above).
  EXPECT_GT(stats->injected_faults, 0u);
  EXPECT_GT(stats->fault_errors, 0u);
  EXPECT_EQ(stats->fault_errors + stats->fault_successes,
            stats->fault_runs);
  // The resilience axis ran for every table: a retry-healed fault run, a
  // pre-cancelled context, an expired deadline and a live deadline race.
  EXPECT_EQ(stats->resilience_runs, 12u * 6u * 4u);
  EXPECT_EQ(stats->cancelled_runs, 12u * 6u);
  EXPECT_EQ(stats->deadline_runs, 12u * 6u);
  EXPECT_EQ(stats->live_deadline_runs, 12u * 6u);
  // Retry ledger: transient faults fired and every one is accounted for
  // -- re-issued or given up on, nothing lost, nothing double-counted.
  EXPECT_GT(stats->retry_injected, 0u);
  EXPECT_EQ(stats->retry_injected,
            stats->retry_attempts + stats->retry_giveups);
  // And the process-wide rodb.resilience.* counters tell the same story
  // as the harness's own ledger.
  EXPECT_EQ(reg.GetCounter("rodb.resilience.retry.attempts")->Value() -
                retry_attempts_before,
            stats->retry_attempts);
  EXPECT_EQ(reg.GetCounter("rodb.resilience.retry.giveups")->Value() -
                retry_giveups_before,
            stats->retry_giveups);
}

TEST(FuzzTest, SameSeedIsByteIdentical) {
  // The reproduce-from-seed contract: two runs with the same options see
  // byte-identical datasets and identical outcomes, fault injection
  // included (the state hash digests both), and print the same summary.
  FuzzOptions options = SmokeOptions(/*seed=*/42, /*iterations=*/4);
  std::ostringstream first_log;
  std::ostringstream second_log;
  options.out = &first_log;
  auto first = RunFuzz(options);
  options.out = &second_log;
  auto second = RunFuzz(options);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(first->mismatches, 0u);
  EXPECT_EQ(second->mismatches, 0u);
  EXPECT_EQ(first->state_hash, second->state_hash);
  // The injected-fault count covers the serial faulted legs only, whose
  // draws replay exactly; in the parallel leg a failing worker cancels
  // its siblings at timing-dependent morsel boundaries. Whether a run
  // errors is deterministic either way -- cancellation only ever starts
  // after a genuine failure.
  EXPECT_GT(first->injected_faults, 0u);
  EXPECT_EQ(first->injected_faults, second->injected_faults);
  EXPECT_EQ(first_log.str().rfind("fuzz: ", 0), 0u) << first_log.str();
  EXPECT_EQ(first_log.str(), second_log.str());
  EXPECT_EQ(first->fault_errors, second->fault_errors);
  EXPECT_EQ(first->fault_successes, second->fault_successes);
  // The deterministic resilience configurations replay exactly too: the
  // same transient faults are injected and the same retries fire.
  EXPECT_EQ(first->retry_injected, second->retry_injected);
  EXPECT_EQ(first->retry_attempts, second->retry_attempts);
  EXPECT_EQ(first->retry_giveups, second->retry_giveups);
}

TEST(FuzzTest, DifferentSeedsDiverge) {
  auto a = RunFuzz(SmokeOptions(/*seed=*/7, /*iterations=*/2));
  auto b = RunFuzz(SmokeOptions(/*seed=*/8, /*iterations=*/2));
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_NE(a->state_hash, b->state_hash);
}

}  // namespace
}  // namespace rodb::fuzz
