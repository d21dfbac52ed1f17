# Runs one bench with --json in the current directory and byte-compares the
# file it writes with the committed golden output:
#   cmake -DBENCH=<bench binary> -DGOLDEN=<bench/golden/NAME.json> -P check.cmake
file(REMOVE out.json)
execute_process(COMMAND "${BENCH}" --json out.json RESULT_VARIABLE exit_code)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${exit_code}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files out.json "${GOLDEN}"
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  execute_process(COMMAND diff -u "${GOLDEN}" out.json)
  message(FATAL_ERROR "out.json differs from ${GOLDEN}")
endif()
