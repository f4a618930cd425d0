# Runs one config with the default kernel and with --no-fast-forward and
# fails unless both runs print the same state_digest: the fast-forward must
# be invisible, so the naive one-tick-per-cycle loop lands on the same state.
#
#   cmake -DAXIHC=<axihc binary> -DCONFIG=<config.ini> -DCYCLES=<n> \
#         -P check_fast_forward.cmake
cmake_minimum_required(VERSION 3.16)
foreach(_mode default naive)
  set(_flags --cycles ${CYCLES} --digest)
  if(_mode STREQUAL "naive")
    list(APPEND _flags --no-fast-forward)
  endif()
  execute_process(COMMAND "${AXIHC}" "${CONFIG}" ${_flags}
                  OUTPUT_VARIABLE _out ERROR_VARIABLE _err
                  RESULT_VARIABLE _rc)
  string(REGEX MATCH "state_digest: [0-9a-f]+" _digest_${_mode} "${_out}")
  if(NOT _rc EQUAL 0 OR NOT _digest_${_mode})
    message(FATAL_ERROR "${_mode} run of ${CONFIG} failed (exit ${_rc}, "
                        "digest '${_digest_${_mode}}'): ${_err}")
  endif()
endforeach()
if(NOT _digest_default STREQUAL _digest_naive)
  message(FATAL_ERROR "fast-forward changes ${CONFIG}: default "
                      "'${_digest_default}', naive '${_digest_naive}'")
endif()
message(STATUS "${_digest_default} with and without fast-forward")
