# Checks `axihc <file> --config-digest` of every examples/configs/*.ini and
# examples/sweeps/*.ini against examples/config_digests.txt (one
# "<path relative to ROOT> <digest>" per line, '#' comments).
#
#   cmake -DAXIHC=<axihc binary> -DROOT=<repo root> -P check_config_digests.cmake
cmake_minimum_required(VERSION 3.16)
file(STRINGS "${ROOT}/examples/config_digests.txt" _lines REGEX "^[^#]")
file(GLOB _configs RELATIVE "${ROOT}"
     "${ROOT}/examples/configs/*.ini" "${ROOT}/examples/sweeps/*.ini")
set(_failures 0)
set(_pinned "")
foreach(_line IN LISTS _lines)
  separate_arguments(_fields UNIX_COMMAND "${_line}")
  list(GET _fields 0 _path)
  list(GET _fields 1 _want)
  list(APPEND _pinned "${_path}")
  execute_process(COMMAND "${AXIHC}" "${ROOT}/${_path}" --config-digest
                  OUTPUT_VARIABLE _got ERROR_VARIABLE _err
                  OUTPUT_STRIP_TRAILING_WHITESPACE)
  if(NOT _got STREQUAL _want)
    message(SEND_ERROR "${_path}: digest '${_got}' ${_err}(pinned ${_want})")
    math(EXPR _failures "${_failures} + 1")
  endif()
endforeach()
foreach(_config IN LISTS _configs)
  if(NOT _config IN_LIST _pinned)
    message(SEND_ERROR "${_config} has no pinned digest")
    math(EXPR _failures "${_failures} + 1")
  endif()
endforeach()
if(_failures GREATER 0)
  message(FATAL_ERROR "${_failures} config digest mismatch(es)")
endif()
list(LENGTH _pinned _count)
message(STATUS "${_count} config digests match")
