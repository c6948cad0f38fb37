// Tests: trace replay / re-injection (the paper's section 4.2 methodology:
// inject anomalies into a recorded trace).

#include <gtest/gtest.h>

#include <memory>

#include "core/offline_kmeans.h"
#include "core/pipeline.h"
#include "faults/attack_models.h"
#include "faults/fault_models.h"
#include "faults/replay.h"
#include "sim/simulator.h"
#include "util/vecn.h"

namespace sentinel::faults {
namespace {

std::vector<SensorRecord> recorded_deployment(double days, std::uint64_t seed) {
  sim::GdiEnvironmentConfig ec;
  ec.duration_seconds = days * kSecondsPerDay;
  ec.seed = seed;
  const sim::GdiEnvironment env(ec);
  sim::GdiDeploymentConfig dc;
  dc.seed = seed;
  auto simulator = sim::make_gdi_deployment(env, dc);
  return simulator.run(ec.duration_seconds).trace;
}

TEST(TraceEnvironmentTest, ReconstructsTruthFromRecording) {
  sim::GdiEnvironmentConfig ec;
  ec.duration_seconds = 4.0 * kSecondsPerDay;
  const sim::GdiEnvironment real_env(ec);
  const auto trace = recorded_deployment(4.0, ec.seed);

  const TraceEnvironment reconstructed(trace);
  EXPECT_EQ(reconstructed.dims(), 2u);
  EXPECT_GT(reconstructed.windows(), 90u);

  // The reconstruction tracks the true environment to within the sensor
  // noise / interpolation error.
  double worst = 0.0;
  for (double t = kSecondsPerHour; t < ec.duration_seconds - kSecondsPerHour;
       t += 2.0 * kSecondsPerHour) {
    worst = std::max(worst, vecn::dist(reconstructed.truth(t), real_env.truth(t)));
  }
  EXPECT_LT(worst, 4.0);
}

TEST(TraceEnvironmentTest, RobustToAFaultySensorInTheRecording) {
  // The recording itself contains a stuck sensor; the median-based truth
  // reconstruction must ignore it.
  auto trace = recorded_deployment(2.0, 7);
  for (auto& r : trace) {
    if (r.sensor == 4) r.attrs = {15.0, 1.0};
  }
  sim::GdiEnvironmentConfig ec;
  ec.duration_seconds = 2.0 * kSecondsPerDay;
  ec.seed = 7;
  const sim::GdiEnvironment real_env(ec);
  const TraceEnvironment reconstructed(trace);
  for (double t = kSecondsPerHour; t < ec.duration_seconds; t += 6.0 * kSecondsPerHour) {
    EXPECT_LT(vecn::dist(reconstructed.truth(t), real_env.truth(t)), 4.0) << t;
  }
}

TEST(TraceEnvironmentTest, ClampsAndValidates) {
  EXPECT_THROW(TraceEnvironment({}, {}), std::invalid_argument);
  const std::vector<SensorRecord> tiny{{0, 100.0, {5.0}}, {1, 120.0, {7.0}}};
  const TraceEnvironment env(tiny);
  EXPECT_EQ(env.truth(-100.0), env.truth(0.0));   // clamp left
  EXPECT_EQ(env.truth(1e9), env.truth(100000.0));  // clamp right
  // A window whose readings disagree in width is rejected, as the windower
  // rejects it.
  const std::vector<SensorRecord> mixed{{0, 100.0, {5.0}}, {1, 120.0, {7.0, 1.0}}};
  EXPECT_THROW(TraceEnvironment{mixed}, std::invalid_argument);
  // A far-future reading clamps into its own window instead of a gap walk.
  const std::vector<SensorRecord> far{{0, 100.0, {5.0}}, {1, 1e300, {7.0}}};
  EXPECT_EQ(TraceEnvironment(far).windows(), 2u);
}

TEST(InjectIntoTrace, OnlyTargetedSensorsRewritten) {
  const auto trace = recorded_deployment(1.0, 3);
  const TraceEnvironment env(trace);
  InjectionPlan plan;
  plan.add(2, std::make_unique<StuckAtFault>(AttrVec{15.0, 1.0}));

  const auto injected = inject_into_trace(trace, plan, env);
  ASSERT_EQ(injected.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (trace[i].sensor == 2) {
      EXPECT_EQ(injected[i].attrs, (AttrVec{15.0, 1.0}));
    } else {
      EXPECT_EQ(injected[i].attrs, trace[i].attrs);
    }
    EXPECT_DOUBLE_EQ(injected[i].time, trace[i].time);
  }
}

TEST(InjectIntoTrace, SuppressedPacketsDropped) {
  const auto trace = recorded_deployment(1.0, 3);
  const TraceEnvironment env(trace);
  InjectionPlan plan;
  plan.add(2, std::make_unique<MuteFault>());
  const auto injected = inject_into_trace(trace, plan, env);
  std::size_t sensor2 = 0;
  for (const auto& r : injected) sensor2 += r.sensor == 2;
  EXPECT_EQ(sensor2, 0u);
  EXPECT_LT(injected.size(), trace.size());
}

TEST(InjectIntoTrace, ReinjectedAttackIsClassifiedEndToEnd) {
  // The paper's full section 4.2 loop on a *recording*: reconstruct truth,
  // inject a deletion coalition, run the pipeline, classify.
  const auto trace = recorded_deployment(14.0, 42);
  const TraceEnvironment env(trace);

  InjectionPlan plan;
  for (const SensorId s : {7u, 8u, 9u}) {
    DeletionAttackConfig ac;
    ac.deleted = StateRegion{{31.0, 56.0}, 7.0};
    ac.hold_state = {24.0, 70.0};
    ac.fraction = 0.3;
    plan.add(s, std::make_unique<DynamicDeletionAttack>(ac), 2.0 * kSecondsPerDay);
  }
  const auto attacked = inject_into_trace(trace, plan, env);

  core::PipelineConfig cfg;
  for (double t = 0.0; t < 14.0 * kSecondsPerDay; t += 3.0 * kSecondsPerHour) {
    cfg.initial_states.push_back(env.truth(t));
  }
  Rng rng(2, "replay-kmeans");
  cfg.initial_states = core::kmeans(cfg.initial_states, 6, rng).centroids;

  core::DetectionPipeline p(cfg);
  p.process_trace(attacked);
  const auto report = p.diagnose();
  EXPECT_EQ(report.network.verdict, core::Verdict::kAttack);
  EXPECT_EQ(report.network.kind, core::AnomalyKind::kDynamicDeletion);
}

}  // namespace
}  // namespace sentinel::faults
