# Prometheus exposition-format conformance check, run as a ctest:
#   cmake -DCLI=<crowdselect_cli> -DWORK_DIR=<scratch dir> \
#         -P cli_prom_format_test.cmake
#
# Runs a small simulate with every telemetry sink enabled and all three
# periodic threads running (exporter, SLO rotation, watchdog), then walks
# the emitted .prom file line by line and enforces what a scraper needs:
#   * every sample is preceded by "# HELP" and "# TYPE" for its family,
#     in that order, and samples never appear under a foreign family;
#   * no family ships the "(no description registered)" fallback help —
#     every exported metric must be documented in the registry;
#   * histogram bucket counts are cumulative (non-decreasing), end in
#     le="+Inf", and the +Inf bucket equals the _count sample;
#   * every histogram family carries exactly one _sum and one _count.

foreach(var CLI WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "pass -D${var}=... to cli_prom_format_test.cmake")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}/world")

execute_process(
  COMMAND "${CLI}" generate --platform stack --out "${WORK_DIR}/world" --seed 3
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "crowdselect_cli generate failed (rc=${rc})")
endif()

file(WRITE "${WORK_DIR}/rules.txt"
  "alert fmt_probe when quality.tdpm.rmse.mean > 99 for 2\n")

execute_process(
  COMMAND "${CLI}" simulate --data "${WORK_DIR}/world"
          --k 4 --iters 4 --tasks 40 --top 8 --quality-window 10
          --alert-rules "${WORK_DIR}/rules.txt"
          --quality-out "${WORK_DIR}/quality.jsonl"
          --prom-out "${WORK_DIR}/metrics.prom" --prom-interval-ms 5
          --slo-rotate-ms 5 --watchdog-ms 5
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "simulate failed (rc=${rc})")
endif()

file(READ "${WORK_DIR}/metrics.prom" prom)
string(REPLACE ";" "\\;" prom "${prom}")
string(REPLACE "\n" ";" lines "${prom}")

set(family "")            # Family currently allowed to emit samples.
set(family_type "")
set(help_pending "")      # Set by # HELP, consumed by # TYPE.
set(prev_bucket -1)       # Last cumulative bucket count in this family.
set(last_bucket_le "")
set(last_bucket_value -1)
set(saw_sum FALSE)
set(saw_count FALSE)
set(families 0)
set(histograms 0)
set(lineno 0)

# Close out the current family; histograms must have completed their
# bucket run and shipped _sum/_count.
macro(finish_family)
  if(family_type STREQUAL "histogram")
    if(NOT last_bucket_le STREQUAL "+Inf")
      message(FATAL_ERROR
        "histogram ${family} does not end in le=\"+Inf\" "
        "(last le=\"${last_bucket_le}\")")
    endif()
    if(NOT saw_sum OR NOT saw_count)
      message(FATAL_ERROR
        "histogram ${family} missing _sum or _count "
        "(sum=${saw_sum} count=${saw_count})")
    endif()
  endif()
endmacro()

foreach(line IN LISTS lines)
  math(EXPR lineno "${lineno} + 1")
  if(line STREQUAL "")
    continue()
  endif()

  if(line MATCHES "^# HELP ([A-Za-z_:][A-Za-z0-9_:]*) (.+)$")
    finish_family()
    set(help_pending "${CMAKE_MATCH_1}")
    set(family "")
    if(CMAKE_MATCH_2 MATCHES "no description registered")
      message(FATAL_ERROR
        "line ${lineno}: ${help_pending} has no registry description")
    endif()
    continue()
  endif()

  if(line MATCHES "^# TYPE ([A-Za-z_:][A-Za-z0-9_:]*) (counter|gauge|histogram)$")
    if(NOT CMAKE_MATCH_1 STREQUAL help_pending)
      message(FATAL_ERROR
        "line ${lineno}: TYPE for ${CMAKE_MATCH_1} not preceded by its "
        "HELP (pending: '${help_pending}')")
    endif()
    set(family "${CMAKE_MATCH_1}")
    set(family_type "${CMAKE_MATCH_2}")
    set(help_pending "")
    set(prev_bucket -1)
    set(last_bucket_le "")
    set(last_bucket_value -1)
    set(saw_sum FALSE)
    set(saw_count FALSE)
    math(EXPR families "${families} + 1")
    if(family_type STREQUAL "histogram")
      math(EXPR histograms "${histograms} + 1")
    endif()
    continue()
  endif()

  if(line MATCHES "^#")
    message(FATAL_ERROR "line ${lineno}: unrecognized comment: ${line}")
  endif()

  # Sample line: <name>[{labels}] <value>
  if(NOT line MATCHES "^([A-Za-z_:][A-Za-z0-9_:]*)(\\{[^}]*\\})? (.+)$")
    message(FATAL_ERROR "line ${lineno}: unparseable sample: ${line}")
  endif()
  set(sample_name "${CMAKE_MATCH_1}")
  set(sample_labels "${CMAKE_MATCH_2}")
  set(sample_value "${CMAKE_MATCH_3}")
  if(family STREQUAL "")
    message(FATAL_ERROR
      "line ${lineno}: sample ${sample_name} before any HELP/TYPE")
  endif()

  if(family_type STREQUAL "histogram")
    if(sample_name STREQUAL "${family}_bucket")
      if(NOT sample_labels MATCHES "le=\"([^\"]+)\"")
        message(FATAL_ERROR "line ${lineno}: bucket without le label: ${line}")
      endif()
      set(last_bucket_le "${CMAKE_MATCH_1}")
      if(NOT sample_value MATCHES "^[0-9]+$")
        message(FATAL_ERROR
          "line ${lineno}: bucket count not an integer: ${sample_value}")
      endif()
      if(sample_value LESS prev_bucket)
        message(FATAL_ERROR
          "line ${lineno}: bucket counts not cumulative in ${family}: "
          "${sample_value} after ${prev_bucket}")
      endif()
      set(prev_bucket "${sample_value}")
      set(last_bucket_value "${sample_value}")
    elseif(sample_name STREQUAL "${family}_sum")
      set(saw_sum TRUE)
    elseif(sample_name STREQUAL "${family}_count")
      set(saw_count TRUE)
      if(NOT sample_value EQUAL last_bucket_value)
        message(FATAL_ERROR
          "line ${lineno}: ${family}_count (${sample_value}) != +Inf "
          "bucket (${last_bucket_value})")
      endif()
    else()
      message(FATAL_ERROR
        "line ${lineno}: sample ${sample_name} inside histogram ${family}")
    endif()
  else()
    if(NOT sample_name STREQUAL family)
      message(FATAL_ERROR
        "line ${lineno}: sample ${sample_name} under family ${family}")
    endif()
  endif()
endforeach()
finish_family()

if(families LESS 20)
  message(FATAL_ERROR "suspiciously few families parsed: ${families}")
endif()
if(histograms LESS 1)
  message(FATAL_ERROR "no histogram family in the exposition")
endif()

# Spot-check a few families this PR is responsible for.
string(REPLACE "\\;" ";" raw "${prom}")
foreach(needle "# TYPE crowdselect_quality_tdpm_rmse_mean gauge"
        "# TYPE crowdselect_alert_state gauge"
        "# HELP crowdselect_serve_queries Queries served")
  if(NOT raw MATCHES "${needle}")
    message(FATAL_ERROR "metrics.prom missing '${needle}'")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
message(STATUS "cli_prom_format_test passed (${families} families, "
  "${histograms} histograms)")
