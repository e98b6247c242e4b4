# CLI golden test: runs every row of tests/goldens/cli.tsv and compares
# the SHA-256 of each output the row names against the recorded value.
#
#   cmake -DBGNSIM=<path> -DBGNSERVE=<path> -DWORK=<scratch dir>
#         [-DUPDATE=ON] -P tests/cli_golden.cmake
#
# Each row runs in a fresh WORK directory with BGN_JOBS=2 (bgnsim grids
# print their worker count) and must exit with the recorded code (1 =
# a run reported FAILED, e.g. reads aborted by a kill). UPDATE=ON
# rewrites the manifest with the hashes just measured and lists the
# rows that moved.

cmake_minimum_required(VERSION 3.16)

set(manifest "${CMAKE_CURRENT_LIST_DIR}/goldens/cli.tsv")
foreach(var BGNSIM BGNSERVE WORK)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "cli_golden: -D${var}=... is required")
    endif()
endforeach()

# The output file each hash column covers ("" = captured stdout).
set(outputs "" m.json m.csv rows.csv t.json)
set(columns stdout metrics metrics_csv csv trace)

set(ENV{BGN_JOBS} 2)
file(STRINGS "${manifest}" lines)
set(rewritten "")
set(failures 0)
set(rows 0)
foreach(line IN LISTS lines)
    if(line MATCHES "^#" OR line STREQUAL "")
        string(APPEND rewritten "${line}\n")
        continue()
    endif()
    string(REPLACE "\t" ";" fields "${line}")
    list(LENGTH fields n)
    if(NOT n EQUAL 9)
        message(FATAL_ERROR "cli_golden: malformed row: ${line}")
    endif()
    list(GET fields 0 name)
    list(GET fields 1 tool)
    list(GET fields 2 want_rc)
    list(GET fields 3 argstr)
    separate_arguments(args UNIX_COMMAND "${argstr}")
    if(tool STREQUAL "bgnsim")
        set(exe "${BGNSIM}")
    elseif(tool STREQUAL "bgnserve")
        set(exe "${BGNSERVE}")
    else()
        message(FATAL_ERROR "cli_golden: ${name}: unknown tool ${tool}")
    endif()

    file(REMOVE_RECURSE "${WORK}")
    file(MAKE_DIRECTORY "${WORK}")
    execute_process(COMMAND "${exe}" ${args}
                    WORKING_DIRECTORY "${WORK}"
                    OUTPUT_FILE "${WORK}/stdout.txt"
                    ERROR_VARIABLE err
                    RESULT_VARIABLE rc)
    if(NOT rc STREQUAL want_rc)
        message(SEND_ERROR "${name}: exit ${rc}, want ${want_rc}: ${err}")
        math(EXPR failures "${failures} + 1")
    endif()
    math(EXPR rows "${rows} + 1")

    set(row "${name}\t${tool}\t${want_rc}\t${argstr}")
    foreach(i RANGE 4)
        list(GET outputs ${i} file)
        list(GET columns ${i} column)
        math(EXPR field "${i} + 4")
        list(GET fields ${field} want)
        if(file STREQUAL "")
            set(file stdout.txt)
        endif()
        set(got "-")
        if(EXISTS "${WORK}/${file}")
            file(SHA256 "${WORK}/${file}" got)
        endif()
        string(APPEND row "\t${got}")
        if(NOT got STREQUAL want)
            if(UPDATE)
                message(STATUS "${name}: ${column} moved")
            else()
                message(SEND_ERROR "${name}: ${column} is ${got}, "
                                   "recorded ${want}")
                math(EXPR failures "${failures} + 1")
            endif()
        endif()
    endforeach()
    string(APPEND rewritten "${row}\n")
endforeach()
file(REMOVE_RECURSE "${WORK}")

if(UPDATE)
    file(WRITE "${manifest}" "${rewritten}")
    message(STATUS "cli_golden: rewrote ${rows} row(s) of ${manifest}")
elseif(failures GREATER 0)
    message(FATAL_ERROR "cli_golden: ${failures} mismatch(es)")
else()
    message(STATUS "cli_golden: ${rows} row(s) match")
endif()
