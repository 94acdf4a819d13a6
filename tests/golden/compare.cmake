# Runs PROGRAM and compares its standard output with the file GOLDEN, byte
# for byte. On a mismatch the run's output is written to ACTUAL and shown as
# a diff against GOLDEN.
#
#   cmake -DPROGRAM=<executable> -DGOLDEN=<file> -DACTUAL=<file> -P compare.cmake
execute_process(COMMAND ${PROGRAM} OUTPUT_VARIABLE actual RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} exited with ${rc}")
endif()
file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
  file(WRITE ${ACTUAL} "${actual}")
  execute_process(COMMAND diff -u ${GOLDEN} ${ACTUAL})
  message(FATAL_ERROR "output differs from ${GOLDEN} (this run's is in ${ACTUAL})")
endif()
