# Adds the bench/system target to a build of the repository root
# without an add_subdirectory line in bench/CMakeLists.txt:
#
#   cmake -S . -B build-system \
#       -DCMAKE_PROJECT_quest_INCLUDE=$PWD/bench/system/hook.cmake
#
# CMake includes this file right after project(quest). The deferred
# call runs once the top-level CMakeLists.txt has been processed, so
# quest_core exists and the benchmark gets the same flags, trace and
# sanitizer settings as every other target. (Deferred calls may not
# add subdirectories, hence include().) It does nothing when the tree
# already adds bench/system itself.
function(quest_add_system_bench)
    if(NOT TARGET system_throughput)
        include(${CMAKE_SOURCE_DIR}/bench/system/CMakeLists.txt)
    endif()
endfunction()
cmake_language(DEFER CALL quest_add_system_bench)
