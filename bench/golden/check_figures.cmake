# Figure-output golden check: runs the paper-figure benches whose output
# is a pure function of counted events (fig06-fig11, table1_trends,
# ablation_compressed_eval, and ablation_scanners, the one bench that
# runs all four scanners) at a fixed cardinality and compares each
# bench's stdout byte for byte with its committed output in this
# directory. Registered as the ctest target
# figure_golden_test, so any change that moves a counted event -- and
# with it a modeled time or a JSON figure -- fails until the goldens are
# regenerated on purpose.
#
#   cmake -DBENCH_BIN_DIR=<build>/bench -DGOLDEN_DIR=<src>/bench/golden \
#         -DWORK_DIR=<build>/figure_golden -P check_figures.cmake
#
# Each bench gets its own RODB_BENCH_DIR under WORK_DIR; a mismatching
# output is left next to it as <bench>.actual.txt. To regenerate after
# an intended change, copy the .actual.txt files over the goldens.
set(benches
  fig06_baseline_lineitem
  fig07_selectivity
  fig08_narrow_orders
  fig09_compression
  fig10_prefetch
  fig11_competition
  table1_trends
  ablation_scanners
  ablation_compressed_eval)

set(ENV{RODB_BENCH_TUPLES} 100000)
set(failed "")
foreach(bench IN LISTS benches)
  set(ENV{RODB_BENCH_DIR} "${WORK_DIR}/${bench}")
  execute_process(COMMAND "${BENCH_BIN_DIR}/${bench}"
                  OUTPUT_VARIABLE actual
                  RESULT_VARIABLE rc)
  file(READ "${GOLDEN_DIR}/${bench}.txt" golden)
  if(NOT rc EQUAL 0)
    list(APPEND failed "${bench} (exit ${rc})")
  elseif(NOT actual STREQUAL golden)
    file(WRITE "${WORK_DIR}/${bench}.actual.txt" "${actual}")
    list(APPEND failed
         "${bench} (diff ${GOLDEN_DIR}/${bench}.txt ${WORK_DIR}/${bench}.actual.txt)")
  endif()
endforeach()

if(failed)
  list(JOIN failed "\n  " report)
  message(FATAL_ERROR "figure output differs from its golden:\n  ${report}")
endif()
list(LENGTH benches count)
message(STATUS "all ${count} figure outputs match their goldens")
