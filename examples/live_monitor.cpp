// Streaming use of the pipeline, the way a real base station would run it:
// records are pushed one at a time with add_record(); the pipeline closes
// windows as time advances, and the monitor prints alarm edges and a daily
// diagnosis as they happen -- "on-the-fly", no batch pass.

#include <cstdio>
#include <memory>

#include "core/offline_kmeans.h"
#include "core/pipeline.h"
#include "faults/fault_models.h"
#include "faults/injection_plan.h"
#include "sim/simulator.h"

int main() {
  using namespace sentinel;
  const double duration = 10.0 * kSecondsPerDay;

  sim::GdiEnvironmentConfig env_cfg;
  env_cfg.duration_seconds = duration;
  const sim::GdiEnvironment env(env_cfg);
  auto simulator = sim::make_gdi_deployment(env, {});

  auto plan = std::make_shared<faults::InjectionPlan>();
  plan->add(4, std::make_unique<faults::AdditiveFault>(AttrVec{8.0, 5.0}),
            4.0 * kSecondsPerDay);
  simulator.set_transform(faults::make_transform(plan));
  const auto trace = simulator.run(duration).trace;

  core::PipelineConfig cfg;
  std::vector<AttrVec> history;
  for (double t = 0.0; t < kSecondsPerDay; t += 30.0 * kSecondsPerMinute) {
    history.push_back(env.truth(t));
  }
  Rng rng(9, "live-kmeans");
  cfg.initial_states = core::kmeans(history, 6, rng).centroids;
  core::DetectionPipeline pipeline(cfg);

  // Stream records; a record closes at most one window, so a grown
  // windows_processed() means last_window() holds a fresh one.
  std::size_t seen_windows = 0;
  std::map<SensorId, bool> filtered_state;
  int last_day_reported = -1;

  for (const auto& rec : trace) {
    pipeline.add_record(rec);
    if (seen_windows < pipeline.windows_processed()) {
      seen_windows = pipeline.windows_processed();
      const auto& w = pipeline.last_window();
      for (const auto& [sensor, info] : w.sensors) {
        bool& prev = filtered_state[sensor];
        if (info.filtered_alarm && !prev) {
          std::printf("[day %4.1f] ALARM RAISED  sensor %u (mapped to state %u, correct %u)\n",
                      w.window_start / kSecondsPerDay, sensor, info.mapped, w.correct);
        } else if (!info.filtered_alarm && prev) {
          std::printf("[day %4.1f] alarm cleared sensor %u\n",
                      w.window_start / kSecondsPerDay, sensor);
        }
        prev = info.filtered_alarm;
      }
      const int day = static_cast<int>(w.window_start / kSecondsPerDay);
      if (day != last_day_reported) {
        last_day_reported = day;
        const auto net = pipeline.diagnose_network();
        std::printf("[day %4d] daily check: network %s, %zu model states, %zu tracks\n", day,
                    core::to_string(net.verdict).c_str(), pipeline.model_states().size(),
                    pipeline.tracks().total_tracks());
      }
    }
  }
  pipeline.finish();

  std::printf("\nfinal diagnosis:\n%s", core::to_string(pipeline.diagnose()).c_str());
  return 0;
}
