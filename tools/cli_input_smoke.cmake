# ctest driver for refsched_cli's input contract: malformed or
# out-of-range values and unknown flags stop the CLI with exit status
# 1 and exactly one "fatal:" line on stderr -- never an abort, an
# uncaught exception, or a silent default.
#
# Usage (see tools/CMakeLists.txt):
#   cmake -DCLI=<refsched_cli> -P cli_input_smoke.cmake

if(NOT DEFINED CLI)
    message(FATAL_ERROR "cli_input_smoke.cmake needs -DCLI=...")
endif()

# Each case is one command line, space-separated.
set(cases
    "--measure 0"      # below the range: no measured interval
    "--measure abc"    # not a number at all
    "--cores -3"       # negative core count
    "--shards 2"       # a removed flag is just an unknown option
)

foreach(label IN LISTS cases)
    separate_arguments(args UNIX_COMMAND "${label}")
    execute_process(
        COMMAND "${CLI}" ${args}
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(NOT rc STREQUAL "1")
        message(FATAL_ERROR
            "refsched_cli ${label}: expected exit status 1, got "
            "'${rc}'\nstderr: ${err}")
    endif()
    string(REGEX MATCHALL "\n" newlines "${err}")
    list(LENGTH newlines lines)
    if(NOT lines EQUAL 1 OR NOT err MATCHES "^fatal: [^\n]+\n$")
        message(FATAL_ERROR
            "refsched_cli ${label}: expected one 'fatal:' line on "
            "stderr, got:\n${err}")
    endif()
    if(NOT out STREQUAL "")
        message(FATAL_ERROR
            "refsched_cli ${label}: rejected input still wrote "
            "stdout:\n${out}")
    endif()
    message(STATUS "${label}: ${err}")
endforeach()
