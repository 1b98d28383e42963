# Run one command-line tool once and check the outcome; driven by the
# `cli` ctest cases in tests/CMakeLists.txt:
#
#   cmake -DJRS=<binary> "-DARGS=<arguments>" -DRC=<exit status>
#         ["-DFILES=<files>"] ["-DSTDERR=<regex>"] -P cli_expect.cmake
#
# A run killed by a signal (an abort) reports a string instead of a
# number, so it never matches RC. Every file in FILES must be written
# afresh and be non-empty; *.json files must also parse.
get_filename_component(tool ${JRS} NAME)
separate_arguments(args UNIX_COMMAND "${ARGS}")
separate_arguments(files UNIX_COMMAND "${FILES}")
if(files)
    file(REMOVE ${files})
endif()
execute_process(COMMAND ${JRS} ${args}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc STREQUAL RC)
    message(FATAL_ERROR "${tool} ${ARGS}: exit '${rc}', expected ${RC}\n"
                        "--- stdout\n${out}--- stderr\n${err}")
endif()
if(STDERR AND NOT err MATCHES "${STDERR}")
    message(FATAL_ERROR "${tool} ${ARGS}: stderr does not match "
                        "'${STDERR}':\n${err}")
endif()
foreach(f IN LISTS files)
    if(NOT EXISTS ${f})
        message(FATAL_ERROR "${tool} ${ARGS}: did not write ${f}")
    endif()
    file(READ ${f} content)
    if(content STREQUAL "")
        message(FATAL_ERROR "${tool} ${ARGS}: wrote an empty ${f}")
    endif()
    if(f MATCHES "\\.json$" AND CMAKE_VERSION VERSION_GREATER_EQUAL 3.19)
        string(JSON type ERROR_VARIABLE json_err TYPE "${content}")
        if(json_err)
            message(FATAL_ERROR "${tool} ${ARGS}: ${f} is not JSON: ${json_err}")
        endif()
    endif()
endforeach()
