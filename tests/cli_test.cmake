# Runs TOOL with the '|'-separated ARGS in the working directory and fails
# unless it exits with EXPECT. With COPY set, that file is first copied
# into the working directory under its own name with a '-' prefixed.
string(REPLACE "|" ";" args "${ARGS}")
if(COPY)
  get_filename_component(name "${COPY}" NAME)
  configure_file("${COPY}" "-${name}" COPYONLY)
endif()
execute_process(COMMAND "${TOOL}" ${args} RESULT_VARIABLE rc
                OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXPECT}")
  message(FATAL_ERROR "${TOOL} ${args}: exit ${rc}, expected ${EXPECT}\n${err}")
endif()
