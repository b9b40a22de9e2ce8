# ctest driver for the input contract of refsched_cli, the figure
# benches and golden_diff: malformed or out-of-range values and unknown
# flags stop the tool with exit status 1 and exactly one "fatal:" line
# on stderr -- never an abort, an uncaught exception, a hang or a
# silent default.
#
# Usage (see tools/CMakeLists.txt):
#   cmake -DCLI=<refsched_cli> -DBENCH=<fig10_codesign_ipc>
#         -DGOLDEN=<golden_diff> -DOUT=<dir>
#         -P cli_input_smoke.cmake

foreach(var CLI BENCH GOLDEN OUT)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "cli_input_smoke.cmake needs -D${var}=...")
    endif()
endforeach()

# A scenario script whose event quantum is not a number.
file(WRITE "${OUT}/bad_quantum.scenario" "ev=2x:kill:2\n")
# A phase directive naming a task the 8-task run does not have.
file(WRITE "${OUT}/missing_task.scenario"
    "phase=99:mcf@2000@1|povray@2000@1\n")

# Each case is one command line, space-separated, after the variable
# naming the tool.
set(cases
    "CLI --measure 0"      # below the range: no measured interval
    "CLI --measure abc"    # not a number at all
    "CLI --cores -3"       # negative core count
    "CLI --shards 2"       # a removed flag is just an unknown option
    "CLI --serving arrival=poisson,load=abc,pool=4,queue=8,lines=1"
    "CLI --serving arrival=poisson,load=1,pool=4x,queue=8,lines=1"
    # A load so low its mean gap does not fit in a tick count.
    "CLI --workload WL-1 --policy co-design --serving arrival=poisson,load=1e-300,pool=4,queue=8,lines=1"
    "CLI --scenario ${OUT}/bad_quantum.scenario"
    "CLI --scenario ${OUT}/missing_task.scenario"
    "BENCH --jobs abc"     # the benches share the CLI's parser
    "BENCH --scale 3"      # a timeScale the DRAM model rejects
    "BENCH --bogus"
    "GOLDEN jobs-check --warmup -1"
)

foreach(label IN LISTS cases)
    separate_arguments(args UNIX_COMMAND "${label}")
    list(POP_FRONT args tool)
    execute_process(
        COMMAND "${${tool}}" ${args}
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err
        TIMEOUT 60)
    if(NOT rc STREQUAL "1")
        message(FATAL_ERROR
            "${label}: expected exit status 1, got "
            "'${rc}'\nstderr: ${err}")
    endif()
    string(REGEX MATCHALL "\n" newlines "${err}")
    list(LENGTH newlines lines)
    if(NOT lines EQUAL 1 OR NOT err MATCHES "^fatal: [^\n]+\n$")
        message(FATAL_ERROR
            "${label}: expected one 'fatal:' line on "
            "stderr, got:\n${err}")
    endif()
    if(NOT out STREQUAL "")
        message(FATAL_ERROR
            "${label}: rejected input still wrote "
            "stdout:\n${out}")
    endif()
    message(STATUS "${label}: ${err}")
endforeach()
