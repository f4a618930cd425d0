# Drives a sweep spec through the CLI the way a user would and checks the
# result cache, sharding and the report writers:
#   - a warm rerun against the cold run's cache gets at least MIN_HITS cache
#     hits and writes byte-identical rows;
#   - the rows of shards 0/2 and 1/2, sorted by cell, equal the unsharded rows;
#   - --sweep-report and --sweep-report-json render the saved rows, and the
#     JSON report parses.
# DIR is emptied first, so every run starts from a cold cache.
#
#   cmake -DAXIHC=<axihc binary> -DSPEC=<spec.ini> -DDIR=<scratch dir> \
#         -DMIN_HITS=<n> -P check_sweep_cli.cmake
cmake_minimum_required(VERSION 3.19)
file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")

function(sweep name)
  execute_process(COMMAND "${AXIHC}" "${SPEC}" --sweep --sweep-deterministic
                          --sweep-out "${DIR}/${name}.jsonl" ${ARGN}
                  OUTPUT_VARIABLE _out ERROR_VARIABLE _err
                  RESULT_VARIABLE _rc)
  if(NOT _rc EQUAL 0)
    message(FATAL_ERROR "${name} sweep of ${SPEC} exited ${_rc}: ${_err}")
  endif()
  set(_log_${name} "${_err}" PARENT_SCOPE)
endfunction()

sweep(cold --sweep-cache "${DIR}/cache")
sweep(warm --sweep-cache "${DIR}/cache")
string(REGEX MATCH "([0-9]+) cache hits" _ "${_log_warm}")
if(NOT CMAKE_MATCH_1 OR CMAKE_MATCH_1 LESS MIN_HITS)
  message(FATAL_ERROR "warm rerun had '${CMAKE_MATCH_1}' cache hits, want "
                      ">= ${MIN_HITS}: ${_log_warm}")
endif()
set(_hits ${CMAKE_MATCH_1})
file(READ "${DIR}/cold.jsonl" _cold)
file(READ "${DIR}/warm.jsonl" _warm)
if(NOT _cold STREQUAL _warm)
  message(FATAL_ERROR "cached rerun is not byte-identical to the cold run")
endif()

sweep(shard0 --sweep-no-cache --sweep-shard 0/2)
sweep(shard1 --sweep-no-cache --sweep-shard 1/2)
file(STRINGS "${DIR}/shard0.jsonl" _union)
file(STRINGS "${DIR}/shard1.jsonl" _shard1)
list(APPEND _union ${_shard1})
# Every row starts with {"cell":<n>, so a natural sort orders by cell.
list(SORT _union COMPARE NATURAL)
file(STRINGS "${DIR}/cold.jsonl" _whole)
if(NOT _union STREQUAL _whole)
  message(FATAL_ERROR "shard union differs from the unsharded rows")
endif()

execute_process(COMMAND "${AXIHC}" "${DIR}/cold.jsonl"
                        --sweep-report "${DIR}/report.md"
                        --sweep-report-json "${DIR}/report.json"
                ERROR_VARIABLE _err RESULT_VARIABLE _rc)
if(NOT _rc EQUAL 0 OR NOT EXISTS "${DIR}/report.md")
  message(FATAL_ERROR "--sweep-report exited ${_rc}: ${_err}")
endif()
file(READ "${DIR}/report.json" _report)
string(JSON _type TYPE "${_report}")  # fails the script unless it parses
list(LENGTH _whole _rows)
message(STATUS "${_rows} rows: ${_hits} warm cache hits, shard union == "
               "unsharded, reports written")
