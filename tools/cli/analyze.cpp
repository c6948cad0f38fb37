// `sentinel_cli analyze`: single-trace detection run with optional
// checkpoint restore/save and crash-consistent resume. Split out of the
// historical monolithic sentinel_cli.cpp; output is byte-identical to it.

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <vector>

#include "cli/common.h"
#include "core/autotune.h"
#include "core/checkpoint_store.h"
#include "core/offline_kmeans.h"
#include "trace/trace_io.h"
#include "trace/windower.h"
#include "util/rng.h"
#include "util/vecn.h"

namespace sentinel::cli {

int cmd_analyze(const Args& args) {
  core::PipelineConfig cfg;
  cfg.window_seconds = opt_double(args, "--window", cfg.window_seconds);
  cfg.stage_timers = args.options.count("--timers") > 0;
  if (!apply_screen_mode(args, cfg)) return 2;
  const auto k = opt_unsigned<std::size_t>(args, "--states", 6);

  const auto read = read_trace_file(args.path);
  if (read.records.empty()) {
    std::fprintf(stderr, "no parseable records in %s (%s)\n", args.path.c_str(),
                 to_string(read.malformed).c_str());
    return 1;
  }
  std::fprintf(stderr, "read %zu records (skipped: %s)\n", read.records.size(),
               to_string(read.malformed).c_str());
  if (!read.status.is_ok()) {
    std::fprintf(stderr, "warning: source ended early: %s\n", read.status.to_string().c_str());
  }

  Rng rng(7, "cli-kmeans");
  if (args.options.count("--auto")) {
    // Derive thresholds and S_o from the data (core/autotune.h).
    const auto tuned = core::suggest_configuration(read.records, cfg.window_seconds, k, rng);
    cfg.initial_states = tuned.initial_states;
    cfg.model_states = tuned.suggested;
    std::fprintf(stderr,
                 "auto-tune: noise %.2f, regime spacing %.1f%s -> merge %.1f, spawn %.1f\n",
                 tuned.noise_scale, tuned.state_spacing,
                 tuned.scales_separated ? "" : " (WARNING: scales not separated)",
                 tuned.suggested.merge_threshold, tuned.suggested.spawn_threshold);
  } else {
    // Bootstrap the initial model states from the trace itself (offline
    // clustering over per-window means, paper section 4.1).
    std::vector<AttrVec> history;
    for (auto& w : window_trace(read.records, cfg.window_seconds)) {
      history.push_back(std::move(w.cached_mean));
    }
    if (history.size() < k) {
      std::fprintf(stderr, "trace too short: %zu windows for %zu initial states\n",
                   history.size(), k);
      return 1;
    }
    cfg.initial_states = core::kmeans(history, k, rng).centroids;
  }

  std::unique_ptr<core::DetectionPipeline> pipeline;
  const std::string checkpoint_in = opt_str(args, "--checkpoint", "");
  const std::string resume_dir = opt_str(args, "--resume", "");
  if (!checkpoint_in.empty() && !resume_dir.empty()) {
    std::fprintf(stderr, "--checkpoint and --resume are mutually exclusive\n");
    return 2;
  }

  // --resume: restore from the crash-consistent store's last committed epoch
  // and fast-forward past the records that epoch already covers. Any torn or
  // corrupt state surfaces as a clean one-line status + nonzero exit.
  std::unique_ptr<core::CheckpointStore> store;
  std::uint64_t skip = 0;
  if (!resume_dir.empty()) {
    store = std::make_unique<core::CheckpointStore>(resume_dir);
    const auto manifest = store->load_manifest();
    if (manifest.is_ok()) {
      const auto it = manifest->regions.find("analyze");
      if (it != manifest->regions.end()) {
        std::string bytes;
        if (const util::Status s = store->read_region(it->second, bytes); !s.is_ok()) {
          std::fprintf(stderr, "%s\n", s.to_string().c_str());
          return 1;
        }
        std::istringstream in(bytes);
        try {
          pipeline = std::make_unique<core::DetectionPipeline>(cfg, in);
        } catch (const std::exception& e) {
          const util::Status s(util::StatusCode::kDataLoss,
                               "checkpoint restore failed: " + std::string(e.what()));
          std::fprintf(stderr, "%s\n", s.to_string().c_str());
          return 1;
        }
        skip = it->second.records_applied;
        std::fprintf(stderr, "resumed from %s epoch %llu (skipping %llu covered records)\n",
                     resume_dir.c_str(), static_cast<unsigned long long>(it->second.epoch),
                     static_cast<unsigned long long>(skip));
      }
    } else if (manifest.status().code() != util::StatusCode::kNotFound) {
      std::fprintf(stderr, "%s\n", manifest.status().to_string().c_str());
      return 1;
    }
  }
  if (!pipeline && !checkpoint_in.empty()) {
    std::ifstream in(checkpoint_in);
    if (!in) {
      std::fprintf(stderr, "cannot open checkpoint %s\n", checkpoint_in.c_str());
      return 1;
    }
    try {
      pipeline = std::make_unique<core::DetectionPipeline>(cfg, in);
    } catch (const std::exception& e) {
      const util::Status s(util::StatusCode::kDataLoss,
                           "checkpoint " + checkpoint_in + ": " + std::string(e.what()));
      std::fprintf(stderr, "%s\n", s.to_string().c_str());
      return 1;
    }
    std::fprintf(stderr, "resumed from checkpoint %s\n", checkpoint_in.c_str());
  }
  if (!pipeline) pipeline = std::make_unique<core::DetectionPipeline>(cfg);

  if (skip >= read.records.size()) {
    if (skip > read.records.size()) {
      std::fprintf(stderr, "warning: checkpoint covers %llu records but trace holds %zu\n",
                   static_cast<unsigned long long>(skip), read.records.size());
    }
  } else if (skip > 0) {
    const std::vector<SensorRecord> tail(read.records.begin() + static_cast<std::ptrdiff_t>(skip),
                                         read.records.end());
    pipeline->process_trace(tail);
  } else {
    pipeline->process_trace(read.records);
  }

  const auto report = pipeline->diagnose();
  if (args.options.count("--json")) {
    std::printf("%s\n", core::to_json(report).c_str());
  } else {
    std::printf("windows: %zu processed, %zu skipped; %zu model states\n",
                pipeline->windows_processed(), pipeline->windows_skipped(),
                pipeline->model_states().size());
    const auto m_c = pipeline->correct_model();
    const auto lookup = pipeline->centroid_lookup();
    std::printf("environment model M_C:\n");
    for (const auto id : m_c.states()) {
      if (const auto c = lookup(id)) {
        std::printf("  state %-4u %-12s occupancy %.3f\n", id, vecn::to_string(*c, 0).c_str(),
                    m_c.occupancy()[*m_c.index_of(id)]);
      }
    }
    std::printf("%s", core::to_string(report).c_str());
  }

  const std::string checkpoint_out = opt_str(args, "--save-checkpoint", "");
  if (!checkpoint_out.empty()) {
    std::ofstream out(checkpoint_out);
    if (!out) {
      std::fprintf(stderr, "cannot write checkpoint %s\n", checkpoint_out.c_str());
      return 1;
    }
    pipeline->save_checkpoint(out);
    std::fprintf(stderr, "checkpoint written to %s\n", checkpoint_out.c_str());
  }

  if (store) {
    core::RegionCheckpointMeta meta;
    meta.records_applied =
        std::max<std::uint64_t>(skip, static_cast<std::uint64_t>(read.records.size()));
    if (const util::Status s = store->commit_region("analyze", *pipeline, meta); !s.is_ok()) {
      std::fprintf(stderr, "%s\n", s.to_string().c_str());
      return 1;
    }
    std::fprintf(stderr, "checkpoint committed to %s (%llu records covered)\n",
                 resume_dir.c_str(), static_cast<unsigned long long>(meta.records_applied));
  }

  auto snap = util::metrics().snapshot();
  core::export_pipeline_metrics(snap, "pipeline.", *pipeline);
  return write_metrics_json(args, snap);
}

}  // namespace sentinel::cli
