# Runs one command in the current directory and byte-compares one of its
# outputs with a committed golden file:
#   cmake -DCOMMAND=<binary> "-DARGS=<arguments>" -DGOLDEN=<golden file>
#         [-DOUTPUT=<file the command writes>] -P check_golden.cmake
# Without OUTPUT the command's stdout is compared. The bench, yhc and example
# goldens all run through this script.
separate_arguments(args UNIX_COMMAND "${ARGS}")
if(OUTPUT)
  set(out "${OUTPUT}")
  file(REMOVE "${out}")
  execute_process(COMMAND "${COMMAND}" ${args} RESULT_VARIABLE exit_code)
else()
  set(out out.txt)
  file(REMOVE "${out}")
  execute_process(COMMAND "${COMMAND}" ${args} OUTPUT_FILE "${out}"
                  RESULT_VARIABLE exit_code)
endif()
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR "${COMMAND} ${ARGS} exited with ${exit_code}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${out}" "${GOLDEN}"
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  execute_process(COMMAND diff -u "${GOLDEN}" "${out}")
  message(FATAL_ERROR "${out} of ${COMMAND} ${ARGS} differs from ${GOLDEN}")
endif()
