# Asserts hswsim-report fails loudly (exit code exactly 1, with a message
# naming the problem) on the broken-input classes: a missing file,
# malformed JSON, a report with an unrecognized schema version (a future
# one, or one of the retired version-1 single-observer reports, named by
# the version key found), and a view whose section the report lacks.  Exit
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
file(WRITE "${OUT_DIR}/malformed.json" "{\n  \"hswsim_report_version\": 2,\n  \"manifest\": {\"tool\"")
expect_rc1("malformed JSON" "not a valid report"
  "${REPORT}" show "${OUT_DIR}/malformed.json")

# 3. Valid JSON, unknown schema version.
file(WRITE "${OUT_DIR}/future.json" "{\n  \"hswsim_report_version\": 999,\n  \"manifest\": {\"tool\": \"test\"}\n}\n")
expect_rc1("unknown version" "unknown report version \\(found hswsim_report_version 999"
  "${REPORT}" show "${OUT_DIR}/future.json")

# 4. The retired version-1 reports: the --metrics document and the
#    standalone --linestats / --resstats files, through every view.
foreach(kind metrics linestats resources)
  file(WRITE "${OUT_DIR}/v1_${kind}.json"
    "{\n  \"hswsim_${kind}_version\": 1,\n  \"manifest\": {\"tool\": \"test\"}\n}\n")
  foreach(view show lines transitions bottlenecks)
    expect_rc1("version-1 ${kind} report (${view})"
      "unknown report version \\(found hswsim_${kind}_version 1"
      "${REPORT}" ${view} "${OUT_DIR}/v1_${kind}.json")
  endforeach()
endforeach()

# 5. A valid document without the section a view needs.
file(WRITE "${OUT_DIR}/metrics_only.json"
  "{\n  \"hswsim_report_version\": 2,\n  \"manifest\": {\"tool\": \"test\"},\n  \"metrics\": {\"accesses\": 0}\n}\n")
foreach(view_section lines:lines transitions:lines bottlenecks:resources)
  string(REPLACE ":" ";" pair "${view_section}")
  list(GET pair 0 view)
  list(GET pair 1 section)
  expect_rc1("${view} without a ${section} section"
    "no ${section} section; rerun with --observe ${section}"
    "${REPORT}" ${view} "${OUT_DIR}/metrics_only.json")
endforeach()

# An unknown version through the diff entry point (a good file first).
expect_rc1("diff with unknown version"
  "unknown report version \\(found hswsim_linestats_version 1"
  "${REPORT}" diff "${OUT_DIR}/metrics_only.json" "${OUT_DIR}/v1_linestats.json")
