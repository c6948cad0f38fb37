// ROC / latency sweep for the first-tier screens against the full HMM
// pipeline (EXPERIMENTS.md "Screen tier").
//
// Reuses the fig09/fig10/fig11 injection scenarios -- stuck-at on sensor 6,
// deletion and creation coalitions on {7,8,9} -- plus a clean control, over
// several simulation seeds. For each (kind, seed):
//
//  - the off-mode run (the historical pipeline) gives the HMM tier's
//    diagnosis accuracy and its detection latency (first filtered alarm on
//    an afflicted sensor at/after the injection start);
//  - a screen-mode run at the default thresholds gives the gated pipeline's
//    diagnosis accuracy -- the "accuracy loss" acceptance number;
//  - screen-mode runs across a threshold sweep trace the tier's ROC:
//    escalation recall on afflicted sensors, escalation latency, and the
//    false-escalation rate on healthy sensors (escalation edges per healthy
//    sensor-window, the direct driver of screen-mode cost: every false
//    escalation buys deescalate_after windows of full-path work).
//
// The simulated traces are generated once per (kind, seed) and replayed
// against every pipeline variant, so all columns describe the same data.

#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/scenario.h"
#include "core/pipeline.h"

namespace {

using namespace sentinel;

struct EscalationTrace {
  bool detected = false;      // every afflicted sensor escalated after start
  double latency_windows = 0; // mean, afflicted first-escalation - start
  std::size_t false_edges = 0;        // escalation edges on healthy sensors
  std::size_t healthy_sensor_windows = 0;
  bench::ScenarioScore score;         // diagnosis vs injected ground truth
};

/// Replay `trace` through a pipeline with `screen_cfg`, polling escalation
/// state per record so first-escalation times are exact to the window.
EscalationTrace replay_screened(const std::vector<SensorRecord>& trace,
                                core::PipelineConfig cfg,
                                const screen::ScreenConfig& screen_cfg,
                                const std::set<SensorId>& afflicted, std::size_t num_sensors,
                                double start_time, bench::InjectionKind kind) {
  cfg.screen = screen_cfg;
  core::DetectionPipeline p(cfg);
  std::vector<bool> was_escalated(num_sensors, true);  // unseen start escalated
  std::map<SensorId, double> first_escalation;
  EscalationTrace out;
  for (const auto& rec : trace) {
    p.add_record(rec);
    const auto* screens = p.screens();
    if (screens == nullptr) continue;
    for (SensorId s = 0; s < num_sensors; ++s) {
      const bool esc = screens->is_escalated(s);
      if (esc && !was_escalated[s] && afflicted.count(s) == 0) ++out.false_edges;
      // An afflicted sensor counts as caught from the first moment at/after
      // the injection start it sits on the full path -- whether the screens
      // just tripped or never let it de-escalate in the first place.
      if (esc && rec.time >= start_time && afflicted.count(s) != 0) {
        first_escalation.emplace(s, rec.time);
      }
      was_escalated[s] = esc;
    }
  }
  p.finish();
  out.detected = !afflicted.empty() && first_escalation.size() == afflicted.size();
  for (const auto& [s, t] : first_escalation) {
    out.latency_windows += (t - start_time) / cfg.window_seconds /
                           static_cast<double>(first_escalation.size());
  }
  out.healthy_sensor_windows =
      p.windows_processed() * (num_sensors - afflicted.size());
  out.score = bench::score_report(p.diagnose(), kind);
  return out;
}

/// First filtered alarm on any afflicted sensor at/after start, from the
/// off-mode run's window series: the HMM tier's own detection latency.
double hmm_latency_windows(const std::vector<core::WindowSummary>& windows,
                           const std::set<SensorId>& afflicted, double start_time) {
  for (const auto& w : windows) {
    if (w.window_start < start_time) continue;
    for (const auto& [sensor, info] : w.sensors) {
      if (info.filtered_alarm && afflicted.count(sensor) != 0) {
        return (w.window_start - start_time) / 3600.0;
      }
    }
  }
  return -1.0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sentinel;

  std::size_t num_seeds = 5;
  double days = 31.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--seeds=", 8) == 0) num_seeds = std::strtoul(argv[i] + 8, nullptr, 10);
    if (std::strncmp(argv[i], "--days=", 7) == 0) days = std::strtod(argv[i] + 7, nullptr);
  }

  const double start_time = 2.0 * kSecondsPerDay;
  const std::vector<bench::InjectionKind> kinds = {
      bench::InjectionKind::kClean, bench::InjectionKind::kStuckAt,
      bench::InjectionKind::kDeletion, bench::InjectionKind::kCreation};
  // (chi2, runs_z) operating points: the screen.h defaults (3.0, 3.2), the
  // BENCH_screen operating point (3.5, 3.5), and the sweep around them.
  const std::vector<std::pair<double, double>> sweep = {
      {2.0, 2.0}, {2.5, 2.6}, {3.0, 3.2}, {3.5, 3.5}, {4.0, 4.0}, {6.0, 6.0}};

  std::printf("# Screen-tier ROC / latency vs the HMM pipeline\n");
  std::printf("# %zu seed(s), %.0f days, injection from day %.0f; screens: window=16, warmup=8, K=24\n\n",
              num_seeds, days, start_time / kSecondsPerDay);

  // accuracy[mode][kind] = (detected, exact) counts over seeds.
  struct Acc {
    std::size_t detected = 0, exact = 0, runs = 0;
  };
  std::map<std::string, std::map<std::string, Acc>> accuracy;
  // roc[(chi2,runs_z)] aggregated over seeds and faulty kinds.
  struct RocRow {
    std::size_t detected = 0, faulty_runs = 0;
    double latency_sum = 0;
    std::size_t false_edges = 0, healthy_windows = 0;
  };
  std::map<std::pair<double, double>, RocRow> roc;
  double hmm_latency_sum = 0;
  std::size_t hmm_latency_n = 0;

  for (const auto kind : kinds) {
    const std::set<SensorId> afflicted =
        kind == bench::InjectionKind::kClean    ? std::set<SensorId>{}
        : kind == bench::InjectionKind::kStuckAt ? std::set<SensorId>{6}
                                                 : std::set<SensorId>{7, 8, 9};
    for (std::size_t i = 0; i < num_seeds; ++i) {
      bench::ScenarioConfig sc;
      sc.seed = 42 + i;
      sc.duration_days = days;
      // Off mode (the default ScenarioConfig): HMM-tier baseline.
      const bench::ScenarioResult base =
          bench::run_scenario({}, sc, bench::make_injection(kind, sc.seed, start_time));
      const auto base_score = bench::score_report(base.pipeline->diagnose(), kind);
      auto& off = accuracy["off"][bench::to_string(kind)];
      ++off.runs;
      off.detected += base_score.detected;
      off.exact += base_score.exact;
      if (!afflicted.empty()) {
        const double lat = hmm_latency_windows(base.windows, afflicted, start_time);
        if (lat >= 0) {
          hmm_latency_sum += lat;
          ++hmm_latency_n;
        }
      }

      // Screen-mode replays over the same delivered trace.
      for (const auto& [chi2, runs_z] : sweep) {
        screen::ScreenConfig scfg;
        scfg.mode = screen::ScreenMode::kScreen;
        scfg.chi2_threshold = chi2;
        scfg.runs_z_threshold = runs_z;
        const EscalationTrace t =
            replay_screened(base.sim.trace, base.pipeline_config, scfg, afflicted,
                            sc.num_sensors, start_time, kind);
        auto& row = roc[{chi2, runs_z}];
        if (!afflicted.empty()) {
          ++row.faulty_runs;
          row.detected += t.detected;
          if (t.detected) row.latency_sum += t.latency_windows;
        }
        row.false_edges += t.false_edges;
        row.healthy_windows += t.healthy_sensor_windows;
        if (chi2 == 3.0) {  // default operating point: accuracy column
          auto& scr = accuracy["screen"][bench::to_string(kind)];
          ++scr.runs;
          scr.detected += t.score.detected;
          scr.exact += t.score.exact;
        }
      }
    }
  }

  std::printf("## Diagnosis accuracy: screen_mode=off vs screen (chi2=3.0, runs_z=3.2)\n");
  std::printf("%-12s %-22s %-22s\n", "scenario", "off detected/exact", "screen detected/exact");
  for (const auto kind : kinds) {
    const auto& off = accuracy["off"][bench::to_string(kind)];
    const auto& scr = accuracy["screen"][bench::to_string(kind)];
    std::printf("%-12s %zu/%zu of %zu            %zu/%zu of %zu\n", bench::to_string(kind),
                off.detected, off.exact, off.runs, scr.detected, scr.exact, scr.runs);
  }

  std::printf("\n## Screen-tier ROC over (chi2, runs_z) -- faulty kinds pooled\n");
  std::printf("%-14s %-10s %-18s %-24s\n", "(chi2,runs_z)", "recall", "latency (windows)",
              "false esc / healthy k-windows");
  for (const auto& [point, row] : roc) {
    const double recall =
        row.faulty_runs ? static_cast<double>(row.detected) / row.faulty_runs : 0.0;
    const double lat = row.detected ? row.latency_sum / row.detected : -1.0;
    const double fp_rate = row.healthy_windows
                               ? 1000.0 * static_cast<double>(row.false_edges) / row.healthy_windows
                               : 0.0;
    std::printf("(%.1f, %.1f)     %-10.2f %-18.1f %.2f\n", point.first, point.second, recall,
                lat, fp_rate);
  }
  if (hmm_latency_n > 0) {
    std::printf("\nHMM tier (off mode) detection latency: %.1f windows mean over %zu runs\n",
                hmm_latency_sum / hmm_latency_n, hmm_latency_n);
  }
  return 0;
}
