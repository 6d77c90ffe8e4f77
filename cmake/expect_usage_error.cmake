# Passes only when EXE, run with the space-separated ARGS, exits 2 (a usage
# error, not a crash or a normal run) and names FLAG on stderr.
#
#   cmake -DEXE=path -DARGS="--seconds 0.1x" -DFLAG=--seconds -P expect_usage_error.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${args} RESULT_VARIABLE rc OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "${EXE} ${ARGS}: expected exit code 2, got '${rc}'\n${err}")
endif()
string(FIND "${err}" "${FLAG}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${EXE} ${ARGS}: stderr does not name ${FLAG}:\n${err}")
endif()
