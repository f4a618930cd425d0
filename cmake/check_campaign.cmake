# Runs a fault campaign and checks its JSON-lines output: one row per run the
# header announces, every run converged with its budget conserved, and at
# least half the runs went through the recovery loop (the smoke spec is tuned
# so most runs reach the FSM; a collapse means detection or the campaign
# generator regressed). The campaign itself exits nonzero on non-convergence
# or a WCLA bound violation. Stderr is kept next to the rows as
# <OUT>.stderr. With REFERENCE set, the rows and stderr must also be
# byte-identical to that earlier run's (run the two under different
# AXIHC_BENCH_THREADS to check determinism across worker counts).
#
#   cmake -DAXIHC=<axihc binary> -DSPEC=<campaign.ini> -DOUT=<rows.jsonl> \
#         [-DREFERENCE=<rows.jsonl>] -P check_campaign.cmake
cmake_minimum_required(VERSION 3.19)
execute_process(COMMAND "${AXIHC}" "${SPEC}" --campaign
                OUTPUT_FILE "${OUT}" ERROR_VARIABLE _err RESULT_VARIABLE _rc)
file(WRITE "${OUT}.stderr" "${_err}")
if(NOT _rc EQUAL 0)
  message(FATAL_ERROR "campaign ${SPEC} exited ${_rc}: ${_err}")
endif()
file(STRINGS "${OUT}" _lines)
list(POP_FRONT _lines _header)
string(JSON _runs GET "${_header}" campaign runs)
list(LENGTH _lines _rows)
if(NOT _rows EQUAL _runs)
  message(FATAL_ERROR "${OUT}: expected ${_runs} rows, got ${_rows}")
endif()
set(_exercised 0)
foreach(_row IN LISTS _lines)
  string(JSON _run GET "${_row}" run)
  string(JSON _converged GET "${_row}" converged)
  string(JSON _conserved GET "${_row}" budget_conserved)
  if(NOT _converged OR NOT _conserved)
    message(FATAL_ERROR "${OUT}: run ${_run} converged=${_converged} "
                        "budget_conserved=${_conserved}")
  endif()
  string(JSON _recoveries GET "${_row}" recoveries)
  if(_recoveries GREATER 0)
    math(EXPR _exercised "${_exercised} + 1")
  endif()
endforeach()
math(EXPR _half "${_rows} / 2")
if(_exercised LESS _half)
  message(FATAL_ERROR "${OUT}: only ${_exercised} of ${_rows} runs exercised "
                      "the recovery loop (want >= ${_half})")
endif()
if(DEFINED REFERENCE)
  foreach(_suffix "" ".stderr")
    file(READ "${REFERENCE}${_suffix}" _want)
    file(READ "${OUT}${_suffix}" _got)
    if(NOT _got STREQUAL _want)
      message(FATAL_ERROR "${OUT}${_suffix} differs from ${REFERENCE}${_suffix}")
    endif()
  endforeach()
endif()
message(STATUS "${_rows} runs, ${_exercised} exercised the recovery loop")
