# Included by CMake right after the repository's top-level project() call
# (CMAKE_PROJECT_INCLUDE), so the benchmark becomes part of that project. The
# library targets it links are defined later in the top-level
# CMakeLists.txt; CMake resolves target names when it generates.
include_guard(GLOBAL)
add_subdirectory("${CMAKE_CURRENT_LIST_DIR}" perfbench)
