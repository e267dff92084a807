# --spec on the benches: a spec whose shared knobs match the flag defaults
# must leave the CSV artifact byte-identical to a plain run (the spec
# overrides seed/engine/protocol, never the sweep geometry), a spec asking
# for a non-MESIF family must trip the same pin policy as --protocol
# (exit 1), and a spec naming the retired set-sampling keys must be refused
# as an unknown key (exit 1).
#
# Usage: cmake -DBENCH=<fig-bench-binary> -DOUT_DIR=<dir>
#              -P spec_override.cmake

foreach(var BENCH OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "spec_override.cmake: missing -D${var}=...")
  endif()
endforeach()

set(work "${OUT_DIR}/spec_override")
file(REMOVE_RECURSE "${work}")
file(MAKE_DIRECTORY "${work}")

# The default shared knobs, spelled as a spec document.
file(WRITE "${work}/defaults.json"
  "{\n  \"hswsim_spec_version\": 1,\n  \"kind\": \"latency\",\n  \"seed\": 1,\n  \"engine\": \"analytic\",\n  \"protocol\": \"mesif\"\n}\n")

execute_process(
  COMMAND "${BENCH}" --quick --csv "${work}/plain.csv"
  OUTPUT_QUIET ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "plain run failed (${rc}):\n${err}")
endif()
execute_process(
  COMMAND "${BENCH}" --quick --spec "${work}/defaults.json"
          --csv "${work}/spec.csv"
  OUTPUT_QUIET ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--spec run failed (${rc}):\n${err}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          "${work}/plain.csv" "${work}/spec.csv"
  RESULT_VARIABLE differs)
if(differs)
  message(FATAL_ERROR
    "--spec with default knobs changed the CSV artifact; the spec must only "
    "override seed/engine/protocol")
endif()

# A non-MESIF spec on a pinned paper bench must refuse, exactly like
# --protocol moesi does.
file(WRITE "${work}/moesi.json"
  "{\n  \"hswsim_spec_version\": 1,\n  \"protocol\": \"moesi\"\n}\n")
execute_process(
  COMMAND "${BENCH}" --quick --spec "${work}/moesi.json"
  OUTPUT_QUIET ERROR_VARIABLE err RESULT_VARIABLE rc)
if(rc EQUAL 0)
  message(FATAL_ERROR
    "a moesi spec on a MESIF-pinned bench must exit nonzero")
endif()
if(NOT err MATCHES "MESIF")
  message(FATAL_ERROR
    "the refusal should name the MESIF pin:\n${err}")
endif()

# A spec naming the retired sample_ratio key must exit 1 naming it, not run
# exact as if the key meant nothing.
file(WRITE "${work}/sampled.json"
  "{\n  \"hswsim_spec_version\": 1,\n  \"sample_ratio\": 0.5\n}\n")
execute_process(
  COMMAND "${BENCH}" --quick --spec "${work}/sampled.json"
  OUTPUT_QUIET ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR
    "a spec naming sample_ratio must exit 1, got ${rc}:\n${err}")
endif()
if(NOT err MATCHES "unknown key 'sample_ratio'")
  message(FATAL_ERROR
    "the refusal should name the unknown key:\n${err}")
endif()
