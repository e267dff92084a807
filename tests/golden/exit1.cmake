# Asserts that a command exits with code 1 exactly (a usage error, not a
# crash and not a silent success) and names the problem on stderr.
#
# Usage: cmake -DCOMMAND=<binary> "-DARGS=<space-separated arguments>"
#              "-DMESSAGE=<regex stderr must match>" -P exit1.cmake

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND "${COMMAND}" ${args}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "expected exit code 1, got ${rc}\nstderr:\n${err}")
endif()
if(NOT err MATCHES "${MESSAGE}")
  message(FATAL_ERROR
    "stderr does not name the problem (wanted it to match '${MESSAGE}'):\n"
    "${err}")
endif()
