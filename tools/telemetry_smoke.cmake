# ctest driver for the sampled-telemetry subsystem: run the same
# 2-channel co-design cell with --telemetry twice and assert
#
#   identity     the telemetry JSONL is byte-identical run to run
#   timeline     the merged counter tracks pass timeline_check's
#                schema + counter validation with samples present
#   csv          the ".csv" spelling of --telemetry produces a
#                header + data rows
#
# Usage (see tools/CMakeLists.txt):
#   cmake -DCLI=<refsched_cli> -DCHECK=<timeline_check> -DOUT=<dir>
#       -P telemetry_smoke.cmake

foreach(var CLI CHECK OUT)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "telemetry_smoke.cmake needs -D${var}=...")
    endif()
endforeach()

file(MAKE_DIRECTORY "${OUT}")

foreach(run 1 2)
    execute_process(
        COMMAND "${CLI}" --policy co-design --workload WL-5
            --channels 2 --warmup 2 --measure 8 --seed 7
            --telemetry "${OUT}/run${run}.telemetry.jsonl"
            --timeline "${OUT}/run${run}.timeline.json"
        RESULT_VARIABLE rc
        OUTPUT_QUIET)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
            "refsched_cli --telemetry run ${run} failed (rc=${rc})")
    endif()
endforeach()

# Byte-identity run to run.
file(READ "${OUT}/run1.telemetry.jsonl" tel1)
file(READ "${OUT}/run2.telemetry.jsonl" tel2)
if(NOT tel1 STREQUAL tel2)
    message(FATAL_ERROR "telemetry diverges between identical runs")
endif()
string(LENGTH "${tel1}" tel_len)
if(tel_len LESS 500)
    message(FATAL_ERROR
        "telemetry export suspiciously small (${tel_len} B)")
endif()

# The merged counter tracks must validate, and samples must be there.
execute_process(
    COMMAND "${CHECK}" "${OUT}/run1.timeline.json"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE check_out)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "timeline_check failed: ${check_out}")
endif()
if(check_out MATCHES " 0 counter samples")
    message(FATAL_ERROR "no counter samples in timeline: ${check_out}")
endif()
if(NOT check_out MATCHES "counter samples")
    message(FATAL_ERROR
        "timeline_check did not report counters: ${check_out}")
endif()

# CSV spelling.
execute_process(
    COMMAND "${CLI}" --policy co-design --workload WL-5
        --channels 2 --warmup 2 --measure 4 --seed 7
        --telemetry "${OUT}/export.csv"
    RESULT_VARIABLE rc
    OUTPUT_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "refsched_cli CSV telemetry failed (rc=${rc})")
endif()
file(READ "${OUT}/export.csv" csv)
if(NOT csv MATCHES "^tick,")
    message(FATAL_ERROR "telemetry CSV missing header row")
endif()
string(REGEX MATCHALL "\n" csv_newlines "${csv}")
list(LENGTH csv_newlines csv_rows)
if(csv_rows LESS 3)
    message(FATAL_ERROR "telemetry CSV has no data rows (${csv_rows})")
endif()
