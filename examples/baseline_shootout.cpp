// Side-by-side run of the three detectors on one calibration-fault scenario:
// Sentinel (this paper), the Warrender-style HMM detector (needs a clean
// training phase, detection only), and the median-deviation rule (detection
// only). Shows what "distinguishing errors from attacks" buys.

#include <cstdio>
#include <memory>

#include "baseline/median_detector.h"
#include "baseline/warrender.h"
#include "core/offline_kmeans.h"
#include "core/pipeline.h"
#include "faults/fault_models.h"
#include "faults/injection_plan.h"
#include "sim/simulator.h"
#include "trace/windower.h"

namespace {

using namespace sentinel;

core::PipelineConfig make_config(const sim::Environment& env, double duration) {
  core::PipelineConfig cfg;
  std::vector<AttrVec> history;
  for (double t = 0.0; t < duration; t += 30.0 * kSecondsPerMinute) {
    history.push_back(env.truth(t));
  }
  Rng rng(5, "shootout-kmeans");
  cfg.initial_states = core::kmeans(history, 6, rng).centroids;
  return cfg;
}

std::vector<SensorRecord> simulate(const sim::Environment& env, double duration, bool inject) {
  auto simulator = sim::make_gdi_deployment(env, {});
  auto plan = std::make_shared<faults::InjectionPlan>();
  if (inject) {
    plan->add(6, std::make_unique<faults::CalibrationFault>(AttrVec{0.70, 0.80}),
              2.0 * kSecondsPerDay);
  }
  simulator.set_transform(faults::make_transform(plan));
  return simulator.run(duration).trace;
}

}  // namespace

int main() {
  using namespace sentinel;
  const double duration = 14.0 * kSecondsPerDay;

  sim::GdiEnvironmentConfig env_cfg;
  env_cfg.duration_seconds = duration;
  const sim::GdiEnvironment env(env_cfg);

  const auto clean_trace = simulate(env, duration, false);
  const auto faulty_trace = simulate(env, duration, true);

  // --- Sentinel ---
  core::DetectionPipeline pipeline(make_config(env, duration));
  pipeline.process_trace(faulty_trace);
  std::printf("=== sentinel ===\n%s\n", core::to_string(pipeline.diagnose()).c_str());

  // --- Warrender baseline: train on the clean run's observable sequence ---
  core::DetectionPipeline clean_pipeline(make_config(env, duration));
  clean_pipeline.process_trace(clean_trace);
  std::vector<hmm::StateId> train_seq, test_seq;
  for (const auto& w : clean_pipeline.history()) train_seq.push_back(w.observable);
  for (const auto& w : pipeline.history()) test_seq.push_back(w.observable);

  baseline::WarrenderDetector warrender((baseline::WarrenderConfig()));
  const auto stats = warrender.train(train_seq);
  const auto flags = warrender.detect(test_seq);
  std::size_t flagged = 0;
  for (const bool f : flags) flagged += f;
  std::printf("=== warrender baseline ===\n");
  std::printf("trained %zu Baum-Welch iterations on a guaranteed-clean run (eta %.3f)\n",
              stats.iterations, stats.threshold);
  std::printf("flagged %zu/%zu windows; cannot localize the sensor or name the fault\n\n",
              flagged, flags.size());

  // --- Median-deviation baseline ---
  baseline::MedianDetector median_det((baseline::MedianDetectorConfig()));
  for (const auto& w : window_trace(faulty_trace, 3600.0)) median_det.process(w);
  std::printf("=== median-deviation baseline ===\n");
  for (SensorId s = 0; s < 10; ++s) {
    const std::size_t n = median_det.windows(s);
    if (n == 0) continue;
    const double rate = 100.0 * static_cast<double>(median_det.flags(s)) /
                        static_cast<double>(n);
    if (rate > 1.0) std::printf("sensor %u flagged in %.1f%% of windows\n", s, rate);
  }
  std::printf("localizes the sensor but cannot say error vs attack, nor the type\n");
  return 0;
}
