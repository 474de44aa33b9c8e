# The obs_seam check: the timing model (src/core, src/cpu, src/mem,
# src/stats) observes itself only through obs::Probe.  Fails when any
# file there names obs::Tracer or obs::Profiler, or includes their
# headers, so a second set of hooks cannot grow back.
#
# Usage: cmake -DSRC_DIR=<repo>/src -P tests/obs_seam.cmake

if(NOT SRC_DIR)
    message(FATAL_ERROR "obs_seam: pass -DSRC_DIR=<path to src>")
endif()

set(files)
foreach(dir core cpu mem stats)
    file(GLOB_RECURSE found "${SRC_DIR}/${dir}/*.cc" "${SRC_DIR}/${dir}/*.hh")
    if(NOT found)
        message(FATAL_ERROR "obs_seam: no sources under ${SRC_DIR}/${dir}")
    endif()
    list(APPEND files ${found})
endforeach()

set(pattern
    "obs::(Tracer|Profiler)([^A-Za-z0-9_]|$)|#[ \t]*include[ \t]*[<\"]obs/(tracer|profiler)\\.hh[>\"]|class[ \t]+(Tracer|Profiler)[ \t]*;")
set(violations 0)
foreach(path ${files})
    file(STRINGS "${path}" lines REGEX "${pattern}")
    foreach(line ${lines})
        message(SEND_ERROR "obs_seam: ${path}: ${line}")
        math(EXPR violations "${violations} + 1")
    endforeach()
endforeach()

list(LENGTH files checked)
if(violations)
    message(FATAL_ERROR
        "obs_seam: ${violations} reference(s) to obs::Tracer/obs::Profiler "
        "in the timing model; hook sites emit through obs::Probe")
endif()
message(STATUS "obs_seam: ${checked} model files observe only through obs::Probe")
