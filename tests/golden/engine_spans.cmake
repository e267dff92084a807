# Runs the engine_spans program and byte-compares its trace CSV with the
# checked-in golden: span names, order, nesting and values must not move.
#
# Usage (see golden_engine_spans in tests/CMakeLists.txt):
#   cmake -DSPANS=<engine_spans-binary> -DGOLDEN=<engine_spans.csv>
#         -DOUT=<actual.csv> -P engine_spans.cmake
#
# After an intentional engine change, regenerate the golden with
# scripts/update_goldens.sh and review the diff row by row.

foreach(var SPANS GOLDEN OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "engine_spans.cmake: missing -D${var}=...")
  endif()
endforeach()

execute_process(
  COMMAND "${SPANS}" "${OUT}"
  RESULT_VARIABLE spans_rc
  ERROR_VARIABLE spans_err)
if(NOT spans_rc EQUAL 0)
  message(FATAL_ERROR "engine_spans failed (rc=${spans_rc}):\n${spans_err}")
endif()

execute_process(
  COMMAND "${CMAKE_COMMAND}" -E compare_files "${GOLDEN}" "${OUT}"
  RESULT_VARIABLE cmp_rc)
if(NOT cmp_rc EQUAL 0)
  message(FATAL_ERROR
    "span trees differ from ${GOLDEN}\n"
    "Inspect with: diff ${GOLDEN} ${OUT}")
endif()
