# End-to-end observability check, run as a ctest:
#   cmake -DCLI=<crowdselect_cli> -DWORK_DIR=<scratch dir> -P cli_stats_test.cmake
#
# Generates a synthetic world, pushes tasks through the full blue path
# (train -> select -> dispatch -> feedback) with --stats-out/--trace-out,
# and asserts the snapshot carries the payload DESIGN.md documents:
# nonzero E-step/CG/M-step span timings, the per-iteration ELBO history,
# and the dispatcher counters.

foreach(var CLI WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "pass -D${var}=... to cli_stats_test.cmake")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}/world")

execute_process(
  COMMAND "${CLI}" generate --platform stack --out "${WORK_DIR}/world" --seed 7
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "crowdselect_cli generate failed (rc=${rc})")
endif()

execute_process(
  COMMAND "${CLI}" simulate --data "${WORK_DIR}/world"
          --k 6 --iters 4 --tasks 3 --top 3 --slo-window 2
          --stats-out "${WORK_DIR}/stats.json"
          --trace-out "${WORK_DIR}/trace.json"
          --prom-out "${WORK_DIR}/metrics.prom"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "crowdselect_cli simulate failed (rc=${rc})")
endif()

file(READ "${WORK_DIR}/stats.json" stats)

# Dispatcher counters: 3 tasks through the blue path, >= 1 answer each.
foreach(counter dispatch\\.tasks dispatch\\.answers em\\.cg\\.iterations
        em\\.cg\\.solves select\\.queries)
  if(NOT stats MATCHES "\"${counter}\": [1-9]")
    message(FATAL_ERROR "stats.json missing nonzero counter ${counter}:\n${stats}")
  endif()
endforeach()

# Per-iteration ELBO gauge with a non-empty history array.
if(NOT stats MATCHES "\"em\\.elbo\": {\"value\": [^,]+, \"history\": \\[-?[0-9]")
  message(FATAL_ERROR "stats.json missing em.elbo history:\n${stats}")
endif()

# Every EM phase span ran and accumulated nonzero wall time. Span summary
# entries are single-line: {"name": ..., "count": ..., "total_us": ...}.
foreach(phase em\\.fit em\\.iteration em\\.e_step\\.workers em\\.e_step\\.tasks
        em\\.m_step foldin\\.project select\\.topk dispatch\\.task)
  if(NOT stats MATCHES "\"name\": \"${phase}\", \"count\": [1-9]")
    message(FATAL_ERROR "stats.json missing span summary for ${phase}:\n${stats}")
  endif()
  if(stats MATCHES "\"name\": \"${phase}\", \"count\": [0-9]+, \"total_us\": 0[,}]")
    message(FATAL_ERROR "span ${phase} reports zero total_us:\n${stats}")
  endif()
endforeach()

# The derived span metrics made it into the histogram section too.
if(NOT stats MATCHES "\"span\\.em\\.m_step\\.us\": {\"count\": [1-9]")
  message(FATAL_ERROR "stats.json missing span.em.m_step.us histogram:\n${stats}")
endif()

file(READ "${WORK_DIR}/trace.json" trace)
if(NOT trace MATCHES "\"traceEvents\"")
  message(FATAL_ERROR "trace.json is not Chrome trace_event JSON:\n${trace}")
endif()
if(NOT trace MATCHES "\"name\":\"em\\.fit\"")
  message(FATAL_ERROR "trace.json missing the em.fit span:\n${trace}")
endif()

# SLO windows: --slo-window rotated the sliding latency windows, so the
# gauges carry the serve.select and crowd.process_task quantiles.
foreach(gauge slo\\.serve\\.select\\.p95 slo\\.serve\\.select\\.window_count
        slo\\.crowd\\.process_task\\.p95)
  if(NOT stats MATCHES "\"${gauge}\": {\"value\": [1-9]")
    message(FATAL_ERROR "stats.json missing nonzero SLO gauge ${gauge}:\n${stats}")
  endif()
endforeach()

# Prometheus exposition: sanitized crowdselect_ names with type headers,
# cumulative histogram buckets, and the SLO gauges.
file(READ "${WORK_DIR}/metrics.prom" prom)
foreach(line "# TYPE crowdselect_serve_queries counter"
        "# TYPE crowdselect_slo_serve_select_p95 gauge"
        "# TYPE crowdselect_span_serve_select_us histogram"
        "crowdselect_span_serve_select_us_bucket{le=\"\\+Inf\"}")
  if(NOT prom MATCHES "${line}")
    message(FATAL_ERROR "metrics.prom missing '${line}':\n${prom}")
  endif()
endforeach()

# EXPLAIN: train a model, then the explain command must render the plan —
# stage latencies, cache outcome, Newton iterations and convergence, score
# decomposition — and its ranking must be byte-identical to a plain select.
execute_process(
  COMMAND "${CLI}" train --data "${WORK_DIR}/world"
          --model "${WORK_DIR}/model.bin" --k 6 --iters 4
  RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "crowdselect_cli train failed (rc=${rc})")
endif()

execute_process(
  COMMAND "${CLI}" explain --data "${WORK_DIR}/world"
          --model "${WORK_DIR}/model.bin" --task "tag1 tag2 tag3" --top 4
          --explain-out "${WORK_DIR}/explain.json"
  RESULT_VARIABLE rc OUTPUT_VARIABLE explain_out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "crowdselect_cli explain failed (rc=${rc})")
endif()
foreach(needle "EXPLAIN crowd-selection query" "snapshot" "cache MISS"
        "Newton [0-9]+ iterations" "converged" "fold-in" "scan" "total" "ranking" "#1"
        "margin" "cutoff")
  if(NOT explain_out MATCHES "${needle}")
    message(FATAL_ERROR "explain output missing '${needle}':\n${explain_out}")
  endif()
endforeach()

file(READ "${WORK_DIR}/explain.json" explain_json)
foreach(field "\"snapshot\"" "\"cache_hit\"" "\"cg_iterations\"" "\"converged\""
        "\"latency_us\"" "\"ranking\"" "\"terms\"")
  if(NOT explain_json MATCHES "${field}")
    message(FATAL_ERROR "explain.json missing ${field}:\n${explain_json}")
  endif()
endforeach()

# Parity: select with --explain-out prints the same ranking lines as the
# plain select (the EXPLAIN scan must not change what is returned).
execute_process(
  COMMAND "${CLI}" select --data "${WORK_DIR}/world"
          --model "${WORK_DIR}/model.bin" --task "tag1 tag2 tag3" --top 4
  RESULT_VARIABLE rc OUTPUT_VARIABLE select_plain)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "crowdselect_cli select failed (rc=${rc})")
endif()
execute_process(
  COMMAND "${CLI}" select --data "${WORK_DIR}/world"
          --model "${WORK_DIR}/model.bin" --task "tag1 tag2 tag3" --top 4
          --explain-out "${WORK_DIR}/explain_select.json"
  RESULT_VARIABLE rc OUTPUT_VARIABLE select_explained)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "crowdselect_cli select --explain-out failed (rc=${rc})")
endif()
if(NOT select_plain STREQUAL select_explained)
  message(FATAL_ERROR "select ranking changed when stats were attached:\n"
          "plain:\n${select_plain}\nexplained:\n${select_explained}")
endif()

# Removed model ids fail loudly: `ensemble` and `dawid_skene` are gone,
# so naming either exits nonzero with an error that names the id instead
# of silently serving something else.
foreach(cmd "evaluate;--models;tdpm,ensemble;--k;6;--iters;2"
        "select;--model;dawid_skene;--task;tag1 tag2 tag3")
  list(GET cmd 0 subcommand)
  list(GET cmd 2 id_arg)
  string(REGEX REPLACE "^tdpm," "" removed_id "${id_arg}")
  execute_process(
    COMMAND "${CLI}" ${cmd} --data "${WORK_DIR}/world"
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(rc EQUAL 0)
    message(FATAL_ERROR "${subcommand} with removed id ${removed_id} exited 0")
  endif()
  if(NOT err MATCHES "\"${removed_id}\"")
    message(FATAL_ERROR
      "${subcommand}: error does not name ${removed_id} (rc=${rc}):\n${err}")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
message(STATUS "cli_stats_test passed")
