// sentinel_cli -- command-line front end for the library.
//
//   sentinel_cli simulate <out.csv> [--days N] [--seed S] [--scenario KIND]
//       Generate a synthetic GDI-like deployment trace, optionally with one
//       of the canonical fault/attack injections (stuck-at, calibration,
//       additive, random-noise, creation, deletion, change, mixed, benign).
//
//   sentinel_cli analyze <trace.csv> [--window SECONDS] [--states K] [--auto]
//                [--json] [--checkpoint IN] [--save-checkpoint OUT]
//                [--resume DIR]
//       --auto derives the clustering thresholds and initial states from the
//       trace itself (core/autotune.h) instead of the defaults.
//       Run the detection pipeline over a CSV trace (sensor,time,attrs...)
//       and print the diagnosis; optionally resume from / write a
//       checkpoint. --resume uses a crash-consistent checkpoint store
//       (docs/RELIABILITY.md): the pipeline restores from the store's last
//       committed epoch, replays only the trace tail past the records the
//       checkpoint already covers, and commits a fresh epoch at the end. A
//       corrupt or torn store prints a one-line status and exits nonzero --
//       never a garbage report.
//
//   sentinel_cli inject <in.csv> <out.csv> [--scenario KIND] [--seed S]
//       Re-inject a canonical fault/attack into a *recorded* trace (the
//       paper's section 4.2 methodology): ground truth is reconstructed from
//       the recording itself and the targeted sensors' readings rewritten.
//
//   sentinel_cli health <trace.csv> [--period SECONDS]
//       Per-sensor trace health report: completeness, gaps, noise.
//
//   sentinel_cli convert <in> <out> [--to csv|binary]
//       Transcode a trace between CSV and the SNTRB1 binary format. The
//       input format is auto-detected by magic bytes; the output format
//       follows --to, or the output extension (.snt/.bin = binary) when the
//       flag is absent. Streams batch-by-batch: converts traces larger than
//       RAM.
//
//   sentinel_cli fleet <trace1> [<trace2> ...] [--window SECONDS] [--states K]
//                [--threads N] [--timers] [--metrics-json PATH]
//                [--resume DIR] [--checkpoint-every N]
//       Run a multi-region fleet, one region per trace file. A trace that
//       cannot be opened or turns out malformed/truncated quarantines its
//       region; the remaining regions complete and report normally.
//       --resume points at a crash-consistent checkpoint store: each region
//       restores from its last committed epoch (fresh when absent), replays
//       only its trace tail, and commits periodically while ingesting
//       (--checkpoint-every records, default 262144). A corrupt store entry
//       prints a one-line status and exits nonzero.
//
//   sentinel_cli serve --bootstrap <trace> [--port P] [--port-file PATH] ...
//       Resident fleet service: keep one FleetMonitor alive behind a
//       localhost TCP listener (SNTRS1 protocol, docs/SERVICE.md). Tenants
//       bind regions per connection; reports/metrics/health are served
//       live; `serve --resume DIR` continues bit-identically from the last
//       committed checkpoint.
//
//   sentinel_cli stream [<trace1> ...] --port P [--report] [--final]
//                [--shutdown] [--metrics-json PATH]
//       Feed traces (if any) to a running server, one connection per
//       region; then optionally fetch the fleet report and shut the server
//       down.
//
//   sentinel_cli scenarios
//       List the canonical injection scenarios.
//
// analyze and fleet accept --metrics-json PATH (dump the process metrics
// registry plus per-region pipeline counters as JSON) and --timers (record
// coarse per-stage wall-clock histograms; observational only, reports are
// byte-identical either way).
//
// Every command that reads a trace (analyze, inject, health, convert,
// fleet, stream) accepts CSV or binary input interchangeably -- detection
// is by file content, never by extension.
//
// Each subcommand is its own translation unit under tools/cli/; this file
// is only the dispatch table.

#include <cstdio>
#include <cstring>

#include "cli/common.h"
#include "util/fault_test.h"

int main(int argc, char** argv) {
  // Arm crash-fault injection from SENTINEL_FAULT_* when the build compiles
  // the points in -- lets the chaos harness pull the plug on the real CLI.
  sentinel::util::fault::init_from_env();
  using sentinel::cli::Args;
  const auto args = sentinel::cli::parse(argc, argv);
  if (!args) return sentinel::cli::usage();

  struct Entry {
    const char* name;
    int (*run)(const Args&);
  };
  static constexpr Entry kCommands[] = {
      {"scenarios", sentinel::cli::cmd_scenarios},
      {"simulate", sentinel::cli::cmd_simulate},
      {"analyze", sentinel::cli::cmd_analyze},
      {"fleet", sentinel::cli::cmd_fleet},
      {"serve", sentinel::cli::cmd_serve},
      {"stream", sentinel::cli::cmd_stream},
      {"health", sentinel::cli::cmd_health},
      {"inject", sentinel::cli::cmd_inject},
      {"convert", sentinel::cli::cmd_convert},
  };
  try {
    for (const Entry& e : kCommands) {
      if (args->command == e.name) return e.run(*args);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return sentinel::cli::usage();
}
