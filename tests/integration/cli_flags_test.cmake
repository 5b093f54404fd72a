# Flag-value checks for crowdselect_cli, run as a ctest:
#   cmake -DCLI=<crowdselect_cli> -DWORK_DIR=<scratch dir> -P cli_flags_test.cmake
#
# A numeric flag whose value is not a whole number (`--seed abc`,
# `--spammers 0.1x`, `--thresholds 1,x`), a negative count (`--top -1`),
# a trailing flag with no value, a flag the command does not read
# (`--qaunt`, a retired `--quant`, `dbinfo --top`), a `generate` shape
# flag on a platform other than hetero, and a token without `--` in flag
# position must exit nonzero with an error naming the flag, before the
# command does any work. None may fall back to a default.

if(NOT DEFINED CLI OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "pass -DCLI=... -DWORK_DIR=... to cli_flags_test.cmake")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}/out")

# Runs the CLI on ARGN and checks that it failed naming `flag` without
# writing anything.
function(expect_rejected flag)
  execute_process(
    COMMAND "${CLI}" ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    TIMEOUT 60)
  if(rc EQUAL 0)
    message(FATAL_ERROR "crowdselect_cli ${ARGN}: exited 0, expected an error")
  endif()
  if(NOT err MATCHES "error: ${flag} ")
    message(FATAL_ERROR
      "crowdselect_cli ${ARGN}: stderr does not name ${flag} (rc=${rc}):\n"
      "${err}")
  endif()
  file(GLOB written "${WORK_DIR}/out/*")
  if(written)
    message(FATAL_ERROR "crowdselect_cli ${ARGN}: ran before failing")
  endif()
endfunction()

set(out "${WORK_DIR}/out")
expect_rejected(--seed generate --platform stack --out "${out}" --seed abc)
expect_rejected(--seed generate --platform stack --out "${out}" --seed 7x)
expect_rejected(--workers
  generate --platform hetero --out "${out}" --workers 3.5)
expect_rejected(--spammers
  generate --platform hetero --out "${out}" --spammers 0.1x)
expect_rejected(--thresholds stats --data "${out}" --thresholds 1,x)
# A negative count is rejected, not wrapped around to a huge size.
expect_rejected(--top debug-dump --top -1 --out "${out}/dump.jsonl")
expect_rejected(--workers generate --platform hetero --out "${out}" --workers -5)
# Only the hetero platform reads the world-shape flags.
expect_rejected(--workers generate --platform stack --out "${out}" --workers 5)
# A trailing flag with no value.
expect_rejected(--seed generate --platform stack --out "${out}" --seed)
# Flags the command does not read: a typo, a retired flag, and a real flag
# of another command.
expect_rejected(--qaunt
  select --data "${out}" --model tdpm --task "b tree" --qaunt 1)
expect_rejected(--quant
  select --data "${out}" --model router --quant int8 --labels 9)
expect_rejected(--top dbinfo --db-dir "${WORK_DIR}/db" --top 3)
# A bare token in flag position is not taken as a flag.
expect_rejected(data stats data "${out}")

# A well-formed value still runs.
execute_process(
  COMMAND "${CLI}" stats --data "${WORK_DIR}/missing" --thresholds 1,2
  RESULT_VARIABLE rc
  ERROR_VARIABLE err
  TIMEOUT 60)
if(err MATCHES "--thresholds")
  message(FATAL_ERROR "well-formed --thresholds 1,2 was rejected:\n${err}")
endif()
