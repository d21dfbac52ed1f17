# Runs one yhc command in the current directory and byte-compares its stdout
# with the committed golden output:
#   cmake -DYHC=<yhc binary> "-DARGS=<command and flags>"
#         -DGOLDEN=<tools/golden/NAME> -P check.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
file(REMOVE out.txt)
execute_process(COMMAND "${YHC}" ${args} OUTPUT_FILE out.txt
                RESULT_VARIABLE exit_code)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR "yhc ${ARGS} exited with ${exit_code}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files out.txt "${GOLDEN}"
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  execute_process(COMMAND diff -u "${GOLDEN}" out.txt)
  message(FATAL_ERROR "stdout of yhc ${ARGS} differs from ${GOLDEN}")
endif()
