# Exit-code check for CLI rejection tests:
#
#   cmake [-DEMPTY_STDOUT=ON] -P tools/expect_exit.cmake -- <cmd> [args...]
#
# Runs <cmd> and passes only when it exits with code 2 and writes a
# reason to stderr. Any other code fails, including 1 (sim::fatal) and
# a signal such as SIGABRT. EMPTY_STDOUT=ON also requires that nothing
# reached stdout, i.e. the input was rejected before any output.

cmake_minimum_required(VERSION 3.16)

set(cmd "")
set(seen_separator OFF)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
    if(seen_separator)
        list(APPEND cmd "${CMAKE_ARGV${i}}")
    elseif(CMAKE_ARGV${i} STREQUAL "--")
        set(seen_separator ON)
    endif()
endforeach()
if(NOT cmd)
    message(FATAL_ERROR "expect_exit: no command given after --")
endif()

execute_process(COMMAND ${cmd}
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                RESULT_VARIABLE rc)
if(NOT rc STREQUAL "2")
    message(FATAL_ERROR "expect_exit: exit '${rc}', want 2\n"
                        "stderr: ${err}")
endif()
if(err STREQUAL "")
    message(FATAL_ERROR "expect_exit: exit 2 without a reason on stderr")
endif()
if(EMPTY_STDOUT AND NOT out STREQUAL "")
    message(FATAL_ERROR "expect_exit: stdout not empty:\n${out}")
endif()
message(STATUS "expect_exit: exit 2: ${err}")
