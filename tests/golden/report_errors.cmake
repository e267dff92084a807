# Asserts hswsim-report fails loudly (exit code exactly 1, with a message
# naming the problem) on the three broken-input classes: a missing file,
# malformed JSON, and a report with an unrecognized schema version.  Exit
# code 2 is reserved for usage errors, so each case checks for 1 precisely.
#
# Usage: cmake -DREPORT=<hswsim-report-binary> -DOUT_DIR=<dir>
#              -P report_errors.cmake

foreach(var REPORT OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "report_errors.cmake: missing -D${var}=...")
  endif()
endforeach()

file(MAKE_DIRECTORY "${OUT_DIR}")

function(expect_rc1 label expect_msg)
  execute_process(
    COMMAND ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 1)
    message(FATAL_ERROR
      "${label}: expected exit code 1, got ${rc}\nstdout:\n${out}\nstderr:\n${err}")
  endif()
  if(NOT err MATCHES "${expect_msg}")
    message(FATAL_ERROR
      "${label}: stderr does not explain the failure (wanted it to match "
      "'${expect_msg}'):\n${err}")
  endif()
endfunction()

# 1. Missing file.
expect_rc1("missing file" "cannot read"
  "${REPORT}" show "${OUT_DIR}/does_not_exist.json")

# 2. Malformed JSON (truncated mid-object).
file(WRITE "${OUT_DIR}/malformed.json" "{\n  \"hswsim_metrics_version\": 1,\n  \"manifest\": {\"tool\"")
expect_rc1("malformed JSON" "not a valid report"
  "${REPORT}" show "${OUT_DIR}/malformed.json")

# 3. Valid JSON, unknown schema version.
file(WRITE "${OUT_DIR}/future.json" "{\n  \"hswsim_metrics_version\": 999,\n  \"manifest\": {\"tool\": \"test\"}\n}\n")
expect_rc1("unknown version" "unknown report version"
  "${REPORT}" show "${OUT_DIR}/future.json")

# The same three classes through the diff entry point (good file first).
file(WRITE "${OUT_DIR}/future2.json" "{\n  \"hswsim_linestats_version\": 999\n}\n")
expect_rc1("diff with unknown version" "unknown report version"
  "${REPORT}" diff "${OUT_DIR}/future.json" "${OUT_DIR}/future2.json")
