# cruz_explore --baseline against the committed 0..199 golden sweep: the
# whole range matches it, and a baseline with one verdict flipped makes
# the tool name exactly that seed and exit nonzero.
#
#   cmake -DEXPLORE=<cruz_explore> -DGOLDEN=<sweep file> -DWORK_DIR=<dir> \
#         -P explore_baseline_test.cmake
execute_process(COMMAND ${EXPLORE} --seeds 0..200 --baseline ${GOLDEN}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_QUIET)
if(NOT rc EQUAL 0 OR NOT out STREQUAL "explored 200 scenario(s): 0 changed\n")
  message(FATAL_ERROR "golden sweep differs (exit ${rc}):\n${out}")
endif()

file(READ ${GOLDEN} golden)
string(REPLACE "seed=2 ok" "seed=2 FAIL" altered "${golden}")
set(altered_path ${WORK_DIR}/explore_baseline_altered.txt)
file(WRITE ${altered_path} "${altered}")
execute_process(COMMAND ${EXPLORE} --seeds 0..4 --baseline ${altered_path}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_QUIET)
if(NOT rc EQUAL 1 OR NOT out MATCHES "^changed: seed=2\n  baseline: seed=2 FAIL"
   OR NOT out MATCHES "\nexplored 4 scenario\\(s\\): 1 changed\n$")
  message(FATAL_ERROR "flipped verdict not reported (exit ${rc}):\n${out}")
endif()
