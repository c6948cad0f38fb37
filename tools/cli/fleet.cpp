// `sentinel_cli fleet`: batch multi-region run, one region per trace file.
// Split out of the historical monolithic sentinel_cli.cpp; output is
// byte-identical to it. The bootstrap and region-naming helpers now live in
// cli/common.cpp because `serve`/`stream` share them -- that sharing is what
// makes a served run's report comparable byte-for-byte with this command's.

#include <cstdio>
#include <map>

#include "cli/common.h"
#include "core/fleet.h"

namespace sentinel::cli {

int cmd_fleet(const Args& args) {
  core::FleetConfig fc;
  fc.threads = opt_unsigned<std::size_t>(args, "--threads", 1);
  const std::string resume_dir = opt_str(args, "--resume", "");
  fc.checkpoint_dir = resume_dir;
  fc.checkpoint_every_records =
      opt_unsigned(args, "--checkpoint-every", core::FleetConfig{}.checkpoint_every_records);
  core::FleetMonitor fleet(fc);

  core::PipelineConfig cfg;
  cfg.window_seconds = opt_double(args, "--window", cfg.window_seconds);
  cfg.stage_timers = args.options.count("--timers") > 0;
  if (!apply_screen_mode(args, cfg)) return 2;
  const auto k = opt_unsigned<std::size_t>(args, "--states", 6);

  // Bootstrap the shared initial model states from the first trace that
  // parses (offline clustering over per-window means, paper section 4.1).
  // A trace that cannot even bootstrap will quarantine its region later.
  if (!bootstrap_initial_states(args.paths, cfg, k)) {
    std::fprintf(stderr, "no trace long enough to bootstrap %zu initial states\n", k);
    return 1;
  }

  // One region per trace; region names derive from the file stem.
  const auto feeds = region_feeds(args.paths);
  std::map<std::string, std::size_t> skip;  // resume offsets per region
  for (const auto& [name, path] : feeds) {
    if (resume_dir.empty()) {
      fleet.add_region(name, cfg);
      continue;
    }
    // Restore from the store's last committed epoch; a corrupt entry is a
    // one-line status + nonzero exit, never a silently-fresh region.
    const auto resumed = fleet.add_region_resumed(name, cfg);
    if (!resumed.is_ok()) {
      std::fprintf(stderr, "%s\n", resumed.status().to_string().c_str());
      return 1;
    }
    skip[name] = static_cast<std::size_t>(resumed.value());
    if (resumed.value() > 0) {
      std::fprintf(stderr, "[region %s] resumed: checkpoint covers %llu records\n", name.c_str(),
                   static_cast<unsigned long long>(resumed.value()));
    }
  }

  for (const auto& [name, path] : feeds) {
    const auto sum = fleet.ingest_file(name, path, 0, skip[name]);
    std::fprintf(stderr, "[region %s] ingested %zu records from %s%s%s\n", name.c_str(),
                 sum.records, path.c_str(), sum.status.is_ok() ? "" : " -- ",
                 sum.status.is_ok() ? "" : sum.status.to_string().c_str());
  }
  if (!resume_dir.empty()) fleet.checkpoint_now();
  fleet.finish();
  const auto report = fleet.diagnose();
  std::printf("%s", core::to_string(report).c_str());

  auto snap = util::metrics().snapshot();
  core::export_region_metrics(snap, fleet);
  return write_metrics_json(args, snap);
}

}  // namespace sentinel::cli
