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

# SNTRB1: convert the trace to binary and that back to CSV. analyze of
# either must print what analyze of the original prints (stdout, not the
# files: convert drops the schema comment).
set(snt ${WORK}/cli_smoke_trace.snt)
set(back ${WORK}/cli_smoke_trace_back.csv)
execute_process(COMMAND ${CLI} analyze ${trace} RESULT_VARIABLE rc OUTPUT_VARIABLE want)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "analyze failed: ${want}")
endif()
foreach(pair "${trace};${snt}" "${snt};${back}")
  list(GET pair 0 from)
  list(GET pair 1 to)
  execute_process(COMMAND ${CLI} convert ${from} ${to} RESULT_VARIABLE rc OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "convert ${from} -> ${to} failed (rc=${rc}):\n${out}\n${err}")
  endif()
  execute_process(COMMAND ${CLI} analyze ${to} RESULT_VARIABLE rc OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 0 OR NOT out STREQUAL want)
    message(FATAL_ERROR "analyze of ${to} differs from the original's (rc=${rc}):\n${out}\n${err}")
  endif()
endforeach()

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

# A FIFO is refused before it is opened: the format probe would eat the head
# of the stream, and with no writer the open would block. A timeout is a
# failure too, so the exit code must be a number.
set(fifo ${WORK}/cli_smoke_trace.fifo)
file(REMOVE ${fifo})
execute_process(COMMAND mkfifo ${fifo} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "mkfifo failed (rc=${rc})")
endif()
execute_process(COMMAND ${CLI} analyze ${fifo} RESULT_VARIABLE rc OUTPUT_VARIABLE out
                ERROR_VARIABLE err TIMEOUT 30)
file(REMOVE ${fifo})
if(NOT rc MATCHES "^[0-9]+$" OR rc EQUAL 0 OR NOT err MATCHES "not a regular file")
  message(FATAL_ERROR "analyze on a FIFO was not refused (rc=${rc}):\n${out}\n${err}")
endif()

# A threads = 4 fleet runs on the shared pool, whose post and wake-up
# counters the metrics export must carry.
set(fleet_metrics ${WORK}/cli_smoke_fleet_metrics.json)
execute_process(COMMAND ${CLI} fleet ${trace} ${trace} --threads 4 --metrics-json ${fleet_metrics}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "fleet --threads 4 --metrics-json failed:\n${out}\n${err}")
endif()
file(READ ${fleet_metrics} metrics)
foreach(name threadpool.tasks_posted threadpool.worker_wakeups)
  if(NOT metrics MATCHES "\"${name}\"")
    message(FATAL_ERROR "fleet metrics export lacks ${name}:\n${metrics}")
  endif()
endforeach()

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

# A region whose pipeline fails reports the same bytes at any thread count.
# The wide trace is the clean one with a third column: its first batch
# fails, the trace is read to its end, and every record from that batch on
# is counted as dropped, whichever thread applied it and whenever.
set(wide ${WORK}/cli_smoke_wide.csv)
file(READ ${clean} body)
string(REGEX REPLACE "([0-9])\n" "\\1,1.5\n" body "${body}")
file(WRITE ${wide} "${body}")
execute_process(COMMAND ${CLI} fleet ${clean} ${wide} --threads 1
                RESULT_VARIABLE rc OUTPUT_VARIABLE want ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT want MATCHES "cli_smoke_wide\\] quarantined")
  message(FATAL_ERROR "fleet did not quarantine the wide trace (rc=${rc}):\n${want}\n${err}")
endif()
foreach(threads 4 4 4 4 4 0)
  execute_process(COMMAND ${CLI} fleet ${clean} ${wide} --threads ${threads}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0 OR NOT out STREQUAL want)
    message(FATAL_ERROR "fleet --threads ${threads} differs from --threads 1 (rc=${rc}):\n"
                        "${out}\nwant:\n${want}\n${err}")
  endif()
endforeach()

# A count, port or seed option takes only a finite integral value in its
# type's range, and a window, duration or interval option only a whole
# value that parses to a finite number; anything else is a usage error
# (exit 2) that names the flag.
foreach(case
    "fleet;${trace};--states;-1"
    "fleet;${trace};--threads;nan"
    "fleet;${trace};--threads;four"
    "fleet;${trace};--checkpoint-every;1.5"
    "serve;--bootstrap;${trace};--port;70000"
    "stream;--port;70000"
    "simulate;${WORK}/cli_smoke_unwritten.csv;--seed;-3"
    "analyze;${trace};--window;abc"
    "analyze;${trace};--window;3600abc"
    "simulate;${WORK}/cli_smoke_unwritten.csv;--days;inf"
    "health;${trace};--period;nan"
    "serve;--bootstrap;${trace};--checkpoint-interval;nan"
    "serve;--bootstrap;${trace};--checkpoint-interval;-1"
    "serve;--bootstrap;${trace};--checkpoint-interval;2e9")
  list(GET case -2 flag)
  execute_process(COMMAND ${CLI} ${case} RESULT_VARIABLE rc OUTPUT_VARIABLE out
                  ERROR_VARIABLE err TIMEOUT 30)
  if(NOT rc STREQUAL "2" OR NOT err MATCHES "${flag}")
    message(FATAL_ERROR "bad ${flag} value not refused as a usage error (rc=${rc}): ${case}\n${err}")
  endif()
endforeach()
