# Flag-parsing check for the perf-regression harness, run as a ctest:
#   cmake -DREGRESSION=<regression binary> -P regression_usage_test.cmake
#
# Every harness flag takes a value. A lone flag (`--help`), a trailing
# flag with no value (`--quick`) or a number that does not parse whole
# (`--tolerance abc`, `--reps 3x`) must print the usage line and exit
# nonzero before any stage runs — never fall through to the full bench.

if(NOT DEFINED REGRESSION)
  message(FATAL_ERROR "pass -DREGRESSION=... to regression_usage_test.cmake")
endif()

foreach(argv "--help" "--quick" "--reps;3;--seed" "--tolerance;abc"
               "--reps;3x")
  execute_process(
    COMMAND "${REGRESSION}" ${argv}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    TIMEOUT 30)
  if(rc EQUAL 0)
    message(FATAL_ERROR "regression ${argv}: exited 0, expected a usage error")
  endif()
  if(NOT err MATCHES "usage: regression")
    message(FATAL_ERROR
      "regression ${argv}: no usage line on stderr (rc=${rc}):\n${err}")
  endif()
  if(err MATCHES "train:")
    message(FATAL_ERROR "regression ${argv}: ran a stage before failing")
  endif()
endforeach()
