# Runs the static prover on one config and fails unless it exits 0 (nothing
# disproved) and its --prove-json certificate parses as JSON. With
# -DFEASIBLE=true|false the certificate's reservation.feasible must also equal
# that value.
#
#   cmake -DAXIHC=<axihc binary> -DCONFIG=<config.ini> -DOUT=<cert.json> \
#         [-DFEASIBLE=true|false] -P check_prove_json.cmake
cmake_minimum_required(VERSION 3.19)
execute_process(COMMAND "${AXIHC}" "${CONFIG}" --prove --cycles 20000
                        --prove-json "${OUT}"
                OUTPUT_VARIABLE _out ERROR_VARIABLE _err RESULT_VARIABLE _rc)
if(NOT _rc EQUAL 0)
  message(FATAL_ERROR "--prove of ${CONFIG} exited ${_rc}: ${_out}${_err}")
endif()
file(READ "${OUT}" _cert)
string(JSON _verdict GET "${_cert}" certificate verdict)
if(DEFINED FEASIBLE)
  string(JSON _feasible GET "${_cert}" certificate reservation feasible)
  # string(JSON) renders a JSON boolean as ON/OFF.
  if(_feasible)
    set(_feasible true)
  else()
    set(_feasible false)
  endif()
  if(NOT _feasible STREQUAL FEASIBLE)
    message(FATAL_ERROR "${CONFIG}: reservation.feasible is ${_feasible}, "
                        "expected ${FEASIBLE}")
  endif()
endif()
message(STATUS "${CONFIG}: certificate parses, verdict ${_verdict}")
