# Runs the `axihc --example` config with the trace and metrics exports on
# and fails unless the run exits 0, the Chrome trace parses as JSON and the
# metrics CSV starts with its `cycle,` header.
#
#   cmake -DAXIHC=<axihc binary> -DDIR=<scratch dir> -P check_obs_exports.cmake
cmake_minimum_required(VERSION 3.19)
file(MAKE_DIRECTORY "${DIR}")
execute_process(COMMAND "${AXIHC}" --example
                OUTPUT_FILE "${DIR}/example.ini")
execute_process(COMMAND "${AXIHC}" "${DIR}/example.ini" --cycles 200000
                        --trace-out "${DIR}/trace.json"
                        --metrics-out "${DIR}/metrics.csv"
                        --sample-every 1000
                OUTPUT_VARIABLE _out ERROR_VARIABLE _err
                RESULT_VARIABLE _rc)
if(NOT _rc EQUAL 0)
  message(FATAL_ERROR "example run exited ${_rc}: ${_out}${_err}")
endif()
file(READ "${DIR}/trace.json" _trace)
string(JSON _records LENGTH "${_trace}")  # fails the script unless it parses
file(STRINGS "${DIR}/metrics.csv" _header LIMIT_COUNT 1)
if(NOT _header MATCHES "^cycle,")
  message(FATAL_ERROR "metrics.csv header is '${_header}'")
endif()
message(STATUS "trace.json: ${_records} records; metrics.csv header ok")
