# Runs one config with the latency audit on, dumping its flight recorder, and
# fails unless the run exits 0 (no transaction beat its WCLA bound), every
# flight record parses as JSON, and each record's cause buckets sum exactly to
# its latency (the provenance accounts for every cycle).
#
#   cmake -DAXIHC=<axihc binary> -DCONFIG=<config.ini> -DOUT=<flight.jsonl> \
#         -P check_flight_causes.cmake
cmake_minimum_required(VERSION 3.19)
execute_process(COMMAND "${AXIHC}" "${CONFIG}" --latency-audit
                        --flight-out "${OUT}"
                OUTPUT_VARIABLE _out ERROR_VARIABLE _err RESULT_VARIABLE _rc)
if(NOT _rc EQUAL 0)
  message(FATAL_ERROR "audited run of ${CONFIG} exited ${_rc}: ${_out}${_err}")
endif()
file(STRINGS "${OUT}" _records)
set(_line 0)
foreach(_record IN LISTS _records)
  math(EXPR _line "${_line} + 1")
  string(JSON _latency GET "${_record}" latency)  # also parses the record
  string(JSON _cause GET "${_record}" cause)
  # The buckets' values are the only numbers in the cause object.
  string(REGEX MATCHALL "[0-9]+" _terms "${_cause}")
  string(REPLACE ";" "+" _sum "0;${_terms}")
  math(EXPR _sum "${_sum}")
  if(NOT _sum EQUAL _latency)
    message(FATAL_ERROR "${OUT}:${_line}: cause buckets sum to ${_sum}, "
                        "latency is ${_latency}")
  endif()
endforeach()
if(_line EQUAL 0)
  message(FATAL_ERROR "${OUT} holds no flight records")
endif()
message(STATUS "${_line} flight records, causes sum to latency")
