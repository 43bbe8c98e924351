#!/usr/bin/env bash
# Builds and runs the test suite plus a bounded differential fuzz
# campaign under each sanitizer configuration:
#
#   asan-ubsan   AddressSanitizer + UndefinedBehaviorSanitizer over the
#                full ctest suite and the fuzzer.
#   tsan         ThreadSanitizer over the tests that exercise cross-thread
#                code and the fuzzer (whose parallel runs drive the morsel
#                scheduler and whose cached axis drives the block cache).
#
# The RODB_SANITIZE cache option (top-level CMakeLists.txt) applies the
# sanitizer to every target; each configuration gets its own build tree so
# the instrumented objects never mix.
#
# Usage: tools/run_sanitized_tests.sh [asan-ubsan|tsan|all] [fuzz-iterations]
set -euo pipefail

cd "$(dirname "$0")/.."
MODE="${1:-all}"
FUZZ_ITERATIONS="${2:-200}"

# block_cache_test's concurrent-reader cases and the fuzz harness's
# cached axis (cold/warm passes over one shared BlockCache) both stress
# the per-shard locking under TSan; obs_test races registry snapshots
# against sharded-counter increments and morsel span timers. The
# resilience suites race cancellation/deadline flags against running
# workers, retry loops against fault injection, and admission
# queue/budget handoffs across threads; robustness_sweep_test drives
# the whole matrix under injected faults; zone_map_test's parallel
# checksum cases race morsel workers over prune-filtered page ranges.
# server_test races circulating-scan attach/detach handshakes, engine
# shutdown and socket connection threads. The ingest suites race
# appends/freezes/background merges against epoch-pinned snapshot
# acquisition and lease retirement (snapshot_consistency_test's
# threaded schedules, ingest_fuzz_test's lifecycle sweeps). io_test
# drives FileBackend's producer-thread ring over every range shape and
# depth, drops streams with the producer mid-flight, and churns the
# unit-buffer free list from 8 threads.
# crash_recovery_test stays off this list on purpose: it forks and
# SIGKILLs children, which TSan's runtime can't follow; the ASan leg's
# full ctest covers it, and server_test races the drain/stop paths
# under TSan here.
TSAN_TESTS=(parallel_executor_test scanner_equivalence_test
            block_cache_test fuzz_test obs_test
            resilience_test retry_backend_test admission_test
            robustness_sweep_test zone_map_test server_test
            snapshot_consistency_test ingest_fuzz_test io_test)

status=0

configure_and_build() {
  local build_dir="$1" sanitize="$2"
  shift 2
  cmake -B "$build_dir" -S . -DRODB_SANITIZE="$sanitize" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$build_dir" -j "$(nproc)" "$@"
}

run_fuzz() {
  local build_dir="$1" label="$2"
  echo "=== $label: rodb_fuzz --iterations=$FUZZ_ITERATIONS --seed=1 ==="
  if ! "$build_dir/tools/rodb_fuzz" --iterations="$FUZZ_ITERATIONS" --seed=1; then
    status=1
  fi
  echo "=== $label: rodb_fuzz --ingest --iterations=$FUZZ_ITERATIONS --seed=1 ==="
  if ! "$build_dir/tools/rodb_fuzz" --ingest \
       --iterations="$FUZZ_ITERATIONS" --seed=1; then
    status=1
  fi
}

run_asan_ubsan() {
  local build_dir="build-asan"
  configure_and_build "$build_dir" "address,undefined"
  echo "=== ASan+UBSan: ctest ==="
  if ! (cd "$build_dir" && ctest --output-on-failure -j "$(nproc)"); then
    status=1
  fi
  run_fuzz "$build_dir" "ASan+UBSan"
}

run_tsan() {
  local build_dir="build-tsan"
  local targets=()
  for t in "${TSAN_TESTS[@]}"; do targets+=(--target "$t"); done
  configure_and_build "$build_dir" "thread" "${targets[@]}" --target rodb_fuzz
  for t in "${TSAN_TESTS[@]}"; do
    local bin="$build_dir/tests/$t"
    [ -x "$bin" ] || bin="$build_dir/tests/fuzz/$t"
    echo "=== TSan: $t ==="
    if ! "$bin"; then
      status=1
    fi
  done
  run_fuzz "$build_dir" "TSan"
}

case "$MODE" in
  asan-ubsan) run_asan_ubsan ;;
  tsan) run_tsan ;;
  all)
    run_asan_ubsan
    run_tsan
    ;;
  *)
    echo "usage: $0 [asan-ubsan|tsan|all] [fuzz-iterations]" >&2
    exit 2
    ;;
esac

if [ "$status" -eq 0 ]; then
  echo "Sanitized run clean."
else
  echo "Sanitized run FAILED." >&2
fi
exit "$status"
