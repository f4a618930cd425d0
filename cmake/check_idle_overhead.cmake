# Reads micro_sim_kernel's google-benchmark JSON (run with repetitions and
# aggregates) and fails when a disabled-but-attached layer costs more than 2%
# of the median simulated cycles/s of the same system without it. Medians
# over repetitions keep shared-runner noise out.
#
#   micro_sim_kernel --benchmark_out=<f.json> --benchmark_out_format=json \
#                    --benchmark_repetitions=5 \
#                    --benchmark_report_aggregates_only=true
#   cmake -DJSON=<f.json> -P check_idle_overhead.cmake
cmake_minimum_required(VERSION 3.19)
file(READ "${JSON}" _doc)
string(JSON _count LENGTH "${_doc}" benchmarks)
math(EXPR _last "${_count} - 1")
foreach(_i RANGE ${_last})
  string(JSON _aggregate ERROR_VARIABLE _none
         GET "${_doc}" benchmarks ${_i} aggregate_name)
  if(_aggregate STREQUAL "median")
    string(JSON _name GET "${_doc}" benchmarks ${_i} run_name)
    string(JSON _rate GET "${_doc}" benchmarks ${_i} "cycles/s")
    # Whole cycles/s: the fraction is far below the 2% resolution.
    string(REGEX MATCH "^[0-9]+" _rate_${_name} "${_rate}")
  endif()
endforeach()

set(_failed "")
foreach(_pair "obs|BM_ObsOff|BM_ObsIdleAttached"
              "latency-audit|BM_AuditOff|BM_AuditIdleAttached")
  string(REPLACE "|" ";" _pair "${_pair}")
  list(GET _pair 0 _layer)
  list(GET _pair 1 _off_name)
  list(GET _pair 2 _idle_name)
  set(_off "${_rate_${_off_name}}")
  set(_idle "${_rate_${_idle_name}}")
  if(NOT _off OR NOT _idle)
    message(FATAL_ERROR "${_off_name}/${_idle_name} medians missing from "
                        "${JSON}")
  endif()
  math(EXPR _delta_bp "(${_off} - ${_idle}) * 10000 / ${_off}")
  message(STATUS "${_layer}: off ${_off} cyc/s, idle ${_idle} cyc/s, "
                 "delta ${_delta_bp} basis points (budget 200)")
  # delta > 2% <=> 50 * (off - idle) > off
  math(EXPR _excess "50 * (${_off} - ${_idle}) - ${_off}")
  if(_excess GREATER 0)
    list(APPEND _failed "${_layer}")
  endif()
endforeach()
if(_failed)
  message(FATAL_ERROR "idle overhead exceeds the 2% budget: ${_failed}")
endif()
