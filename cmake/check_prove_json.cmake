# Runs the static prover on one config and fails unless it exits 0 (nothing
# disproved) and its --prove-json certificate parses as JSON.
#
#   cmake -DAXIHC=<axihc binary> -DCONFIG=<config.ini> -DOUT=<cert.json> \
#         -P check_prove_json.cmake
cmake_minimum_required(VERSION 3.19)
execute_process(COMMAND "${AXIHC}" "${CONFIG}" --prove --cycles 20000
                        --prove-json "${OUT}"
                OUTPUT_VARIABLE _out ERROR_VARIABLE _err RESULT_VARIABLE _rc)
if(NOT _rc EQUAL 0)
  message(FATAL_ERROR "--prove of ${CONFIG} exited ${_rc}: ${_out}${_err}")
endif()
file(READ "${OUT}" _cert)
string(JSON _verdict GET "${_cert}" certificate verdict)
message(STATUS "${CONFIG}: certificate parses, verdict ${_verdict}")
