# Writes the source tree's `git describe` into a header for provenance.cc.
# Runs as a build step (not at configure time), so a build directory reused
# across commits stamps the revision it actually compiles.  The header is
# rewritten only when the string changes, so an unchanged tree rebuilds
# nothing.  Without git or a .git directory the version reads "unknown".
#
#   cmake -DSOURCE_DIR=<dir in the tree> -DOUT=<header> -P stamp_version.cmake
execute_process(
  COMMAND git describe --always --dirty --tags
  WORKING_DIRECTORY ${SOURCE_DIR}
  OUTPUT_VARIABLE version
  OUTPUT_STRIP_TRAILING_WHITESPACE
  ERROR_QUIET
  RESULT_VARIABLE rc
)
if(NOT rc EQUAL 0 OR version STREQUAL "")
  set(version "unknown")
endif()
set(content "// Generated at build time by stamp_version.cmake; do not edit.\n")
string(APPEND content "#define OSUMAC_GIT_DESCRIBE \"${version}\"\n")
set(old "")
if(EXISTS ${OUT})
  file(READ ${OUT} old)
endif()
if(NOT old STREQUAL content)
  file(WRITE ${OUT} "${content}")
endif()
