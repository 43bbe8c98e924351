# Benchmark harness: one binary per table/figure of the paper's evaluation
# plus google-benchmark micro benchmarks. All binaries land in
# ${CMAKE_BINARY_DIR}/bench so `for b in build/bench/*; do $b; done`
# regenerates every result.

add_library(rodb_bench_support STATIC bench/bench_util.cc)
target_include_directories(rodb_bench_support PUBLIC
  ${CMAKE_SOURCE_DIR}/bench)
target_link_libraries(rodb_bench_support PUBLIC rodb)

function(rodb_bench NAME)
  add_executable(${NAME} bench/${NAME}.cc)
  target_link_libraries(${NAME} PRIVATE rodb_bench_support)
  set_target_properties(${NAME} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

function(rodb_microbench NAME)
  rodb_bench(${NAME})
  target_link_libraries(${NAME} PRIVATE benchmark::benchmark)
endfunction()

rodb_bench(fig02_speedup_contour)
rodb_bench(fig06_baseline_lineitem)
rodb_bench(fig07_selectivity)
rodb_bench(fig08_narrow_orders)
rodb_bench(fig09_compression)
rodb_bench(fig10_prefetch)
rodb_bench(fig11_competition)
rodb_bench(table1_trends)
rodb_bench(sec5_model_checks)
rodb_microbench(micro_codec_bench)
rodb_microbench(micro_scan_bench)
rodb_bench(ablation_scanners)
rodb_bench(capacity_planning)
rodb_bench(memory_resident)
rodb_bench(ablation_compressed_eval)
rodb_bench(parallel_scan_bench)
rodb_bench(block_cache_bench)
rodb_bench(server_concurrency)
rodb_bench(ingest_merge)
rodb_bench(ingest_soak)

# Morsel-parallel smoke: QueryEngine::Execute at 1/2/4/8 threads on row
# and column LINEITEM must match the serial checksum and modeled timing
# (the bench aborts on a mismatch).
add_test(NAME parallel_scan_smoke COMMAND parallel_scan_bench)
set_tests_properties(parallel_scan_smoke PROPERTIES ENVIRONMENT
  "RODB_BENCH_TUPLES=100000;RODB_BENCH_DIR=${CMAKE_BINARY_DIR}/parallel_scan_smoke")

# Ingest smoke: append, merge under queries, then check that the new
# ROS generation holds every appended tuple once (the bench aborts on a
# count or digest mismatch). No RODB_BENCH_DIR: it works in a fresh
# temp dir and removes it.
add_test(NAME ingest_merge_smoke COMMAND ingest_merge)
set_tests_properties(ingest_merge_smoke PROPERTIES ENVIRONMENT
  "RODB_BENCH_TUPLES=20000")

# Block-cache smoke: cold, warm and half-warm scans of row and column
# LINEITEM (the bench aborts if a pass's checksum differs from the cold
# one, the warm pass reads the backend, or the half-warm pass's backend
# and cache bytes do not add up to the cold pass's).
add_test(NAME block_cache_smoke COMMAND block_cache_bench)
set_tests_properties(block_cache_smoke PROPERTIES ENVIRONMENT
  "RODB_BENCH_TUPLES=20000;RODB_BENCH_DIR=${CMAKE_BINARY_DIR}/block_cache_smoke")

# Golden check over the figure benches' stdout (bench/golden/).
add_test(NAME figure_golden_test
  COMMAND ${CMAKE_COMMAND}
    -DBENCH_BIN_DIR=${CMAKE_BINARY_DIR}/bench
    -DGOLDEN_DIR=${CMAKE_SOURCE_DIR}/bench/golden
    -DWORK_DIR=${CMAKE_BINARY_DIR}/figure_golden
    -P ${CMAKE_SOURCE_DIR}/bench/golden/check_figures.cmake)
