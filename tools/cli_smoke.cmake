# CLI smoke test: simulate -> analyze (saving a checkpoint) -> resume.

set(trace ${WORK}/cli_smoke_trace.csv)
set(ckpt ${WORK}/cli_smoke.ckpt)

execute_process(COMMAND ${CLI} simulate ${trace} --days 6 --scenario stuck-at
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "simulate failed: ${out}")
endif()

execute_process(COMMAND ${CLI} analyze ${trace} --save-checkpoint ${ckpt}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "analyze failed: ${out}")
endif()
if(NOT out MATCHES "stuck-at")
  message(FATAL_ERROR "analyze did not classify the stuck-at fault:\n${out}")
endif()

execute_process(COMMAND ${CLI} analyze ${trace} --checkpoint ${ckpt} --json
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "resume failed: ${out}")
endif()
if(NOT out MATCHES "\"kind\":\"stuck-at\"")
  message(FATAL_ERROR "resumed analyze lost the diagnosis:\n${out}")
endif()

execute_process(COMMAND ${CLI} scenarios RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES "dynamic-creation")
  message(FATAL_ERROR "scenarios listing failed:\n${out}")
endif()

execute_process(COMMAND ${CLI} health ${trace} RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES "completeness")
  message(FATAL_ERROR "health report failed:\n${out}")
endif()

set(clean ${WORK}/cli_smoke_clean.csv)
set(attacked ${WORK}/cli_smoke_attacked.csv)
execute_process(COMMAND ${CLI} simulate ${clean} --days 10 RESULT_VARIABLE rc)
execute_process(COMMAND ${CLI} inject ${clean} ${attacked} --scenario deletion
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "inject failed: ${out}")
endif()
execute_process(COMMAND ${CLI} analyze ${attacked} RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES "dynamic-deletion")
  message(FATAL_ERROR "re-injected attack not classified:\n${out}")
endif()

execute_process(COMMAND ${CLI} analyze ${trace} --auto RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES "stuck-at")
  message(FATAL_ERROR "auto-tuned analyze failed:\n${out}")
endif()

# One record at t = 1e300 clamps to window 9e18: the batch path must skip the
# gap in one step, not walk it window by window.
set(far ${WORK}/cli_smoke_far_future.csv)
file(READ ${trace} body)
file(WRITE ${far} "${body}0,1e300,20.0,50.0\n")
execute_process(COMMAND ${CLI} analyze ${far} RESULT_VARIABLE rc OUTPUT_VARIABLE out TIMEOUT 30)
if(NOT rc EQUAL 0 OR NOT out MATCHES "stuck-at")
  message(FATAL_ERROR "analyze with a far-future record failed (rc=${rc}):\n${out}")
endif()

# Crash-consistent checkpoint store (docs/RELIABILITY.md): analyze commits an
# epoch on the first run, resumes from it on the second, and the printed
# diagnosis must not change. A corrupted manifest must fail with a one-line
# data-loss status and a nonzero exit, never a garbage report.
set(store ${WORK}/cli_smoke_store)
file(REMOVE_RECURSE ${store})
execute_process(COMMAND ${CLI} analyze ${trace} --resume ${store}
                RESULT_VARIABLE rc OUTPUT_VARIABLE first ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT err MATCHES "checkpoint committed")
  message(FATAL_ERROR "analyze with checkpoint store failed:\n${first}\n${err}")
endif()
execute_process(COMMAND ${CLI} analyze ${trace} --resume ${store}
                RESULT_VARIABLE rc OUTPUT_VARIABLE second ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT err MATCHES "resumed from")
  message(FATAL_ERROR "analyze resume failed:\n${second}\n${err}")
endif()
if(NOT first STREQUAL second)
  message(FATAL_ERROR "resumed analyze report diverges from the original")
endif()

execute_process(COMMAND ${CLI} fleet ${trace} --resume ${store} --checkpoint-every 2000
                RESULT_VARIABLE rc OUTPUT_VARIABLE fleet_first)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "fleet with checkpoint store failed:\n${fleet_first}")
endif()
execute_process(COMMAND ${CLI} fleet ${trace} --resume ${store} --checkpoint-every 2000
                RESULT_VARIABLE rc OUTPUT_VARIABLE fleet_second ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT err MATCHES "resumed: checkpoint covers")
  message(FATAL_ERROR "fleet resume failed:\n${fleet_second}\n${err}")
endif()
if(NOT fleet_first STREQUAL fleet_second)
  message(FATAL_ERROR "resumed fleet report diverges from the original")
endif()

file(READ ${store}/MANIFEST manifest)
string(SUBSTRING "${manifest}" 0 20 truncated)
file(WRITE ${store}/MANIFEST "${truncated}")
execute_process(COMMAND ${CLI} fleet ${trace} --resume ${store}
                RESULT_VARIABLE rc ERROR_VARIABLE err)
if(rc EQUAL 0 OR NOT err MATCHES "data-loss")
  message(FATAL_ERROR "corrupt manifest not rejected (rc=${rc}):\n${err}")
endif()
