# Asserts a bench's output does not depend on how it was run: two runs that
# differ only in RUN_A vs RUN_B (by default --jobs 1 vs --jobs 8) must write
# byte-identical artifacts and stdout.  Sweep points write pre-assigned
# slots and every observer's stream ids come from the sweep configuration
# and fold in stream-id order, so neither --jobs nor a stderr-only flag
# such as --progress may change a byte of a CSV, a trace, or a report.
#
# Usage: cmake -DBENCH=<bench-binary> -DOUT_DIR=<dir> -DNAME=<file stem>
#              -DARTIFACT=<flags before the output path> -DEXTS=<extensions>
#              [-DMASK_JOBS=ON] [-DEXTRA_ARGS=<flags>]
#              [-DRUN_A=<flags>] [-DRUN_B=<flags>]  -P determinism.cmake
# Lists are space-separated.  Each extension is its own pair of runs (the
# trace exporters pick their format from it).  MASK_JOBS masks the report
# manifest's own "jobs" line, the one field that legitimately differs.

foreach(var BENCH OUT_DIR NAME ARTIFACT EXTS)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "determinism.cmake: missing -D${var}=...")
  endif()
endforeach()
if(NOT RUN_A AND NOT RUN_B)
  set(RUN_A "--jobs 1")
  set(RUN_B "--jobs 8")
endif()
foreach(list ARTIFACT EXTS EXTRA_ARGS RUN_A RUN_B)
  separate_arguments(${list})
endforeach()

file(MAKE_DIRECTORY "${OUT_DIR}")

foreach(ext ${EXTS})
  foreach(run A B)
    set(out "${OUT_DIR}/${NAME}.${run}.${ext}")
    execute_process(
      COMMAND "${BENCH}" --quick --seed 1 ${RUN_${run}} ${EXTRA_ARGS}
              ${ARTIFACT} "${out}"
      RESULT_VARIABLE rc
      OUTPUT_VARIABLE stdout ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "bench ${RUN_${run}} failed (rc=${rc}):\n${err}")
    endif()
    if(MASK_JOBS)
      file(READ "${out}" text)
      string(REGEX REPLACE "\"jobs\": *[0-9]+" "\"jobs\": MASKED" text "${text}")
      file(WRITE "${out}" "${text}")
    endif()
    # The runs name different output files, so the "wrote <path>" echo
    # legitimately differs; neutralize it before comparing.
    string(REPLACE "${NAME}.${run}." "${NAME}." stdout "${stdout}")
    file(WRITE "${out}.stdout" "${stdout}")
  endforeach()

  foreach(suffix "" ".stdout")
    execute_process(
      COMMAND ${CMAKE_COMMAND} -E compare_files
              "${OUT_DIR}/${NAME}.A.${ext}${suffix}"
              "${OUT_DIR}/${NAME}.B.${ext}${suffix}"
      RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      list(JOIN RUN_A " " a)
      list(JOIN RUN_B " " b)
      message(FATAL_ERROR
        "${NAME}: '${a}' and '${b}' produced different .${ext}${suffix} bytes")
    endif()
  endforeach()
endforeach()
