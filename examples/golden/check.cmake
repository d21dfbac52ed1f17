# Runs one example in the current directory and byte-compares its stdout
# with the committed golden output:
#   cmake -DEXAMPLE=<example binary> -DGOLDEN=<examples/golden/NAME.txt>
#         -P check.cmake
file(REMOVE out.txt)
execute_process(COMMAND "${EXAMPLE}" OUTPUT_FILE out.txt
                RESULT_VARIABLE exit_code)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR "${EXAMPLE} exited with ${exit_code}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files out.txt "${GOLDEN}"
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  execute_process(COMMAND diff -u "${GOLDEN}" out.txt)
  message(FATAL_ERROR "stdout of ${EXAMPLE} differs from ${GOLDEN}")
endif()
