# Runs a bench or example program at its defaults and compares its stdout
# byte for byte with the pinned output. On a mismatch the actual output is
# written next to the test as <bench>.actual for diffing.
#
#   cmake -DBENCH=<bench binary> -DEXPECTED=<pinned .txt> -P check_bench_output.cmake
cmake_minimum_required(VERSION 3.16)
execute_process(COMMAND "${BENCH}" OUTPUT_VARIABLE _got RESULT_VARIABLE _rc)
if(NOT _rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${_rc}")
endif()
file(READ "${EXPECTED}" _want)
if(NOT _got STREQUAL _want)
  get_filename_component(_name "${BENCH}" NAME)
  set(_actual "${CMAKE_CURRENT_BINARY_DIR}/${_name}.actual")
  file(WRITE "${_actual}" "${_got}")
  message(FATAL_ERROR "${_name} output differs from ${EXPECTED}; "
                      "diff it against ${_actual}")
endif()
