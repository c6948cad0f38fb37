// Tests: data-driven parameter suggestion (core/autotune.h) and the
// classical HMM's save/load.

#include <gtest/gtest.h>

#include "core/autotune.h"
#include "core/pipeline.h"
#include "faults/fault_models.h"
#include "faults/injection_plan.h"
#include "hmm/hmm.h"
#include "sim/simulator.h"
#include "text_codec.h"

namespace sentinel::core {
namespace {

TEST(Autotune, GdiTraceYieldsSeparatedScalesAndSaneThresholds) {
  sim::GdiEnvironmentConfig ec;
  ec.duration_seconds = 7.0 * kSecondsPerDay;
  const sim::GdiEnvironment env(ec);
  auto simulator = sim::make_gdi_deployment(env, {});
  const auto trace = simulator.run(ec.duration_seconds).trace;

  Rng rng(1, "autotune-test");
  const auto report = suggest_configuration(trace, 3600.0, 6, rng);

  // Noise scale reflects the injected sigma 0.4 (per-attribute) -> RMS over
  // two attributes ~ 0.55.
  EXPECT_NEAR(report.noise_scale, 0.55, 0.25);
  // Regime spacing is the cluster scale of the diurnal states.
  EXPECT_GT(report.state_spacing, 5.0);
  EXPECT_TRUE(report.scales_separated);
  // Suggested thresholds live between noise and spacing, spawn above merge.
  EXPECT_GT(report.suggested.merge_threshold, 2.0 * report.noise_scale);
  EXPECT_LT(report.suggested.merge_threshold, report.state_spacing);
  EXPECT_GT(report.suggested.spawn_threshold, report.suggested.merge_threshold);
  EXPECT_EQ(report.initial_states.size(), 6u);
}

TEST(Autotune, SuggestedConfigActuallyWorksEndToEnd) {
  sim::GdiEnvironmentConfig ec;
  ec.duration_seconds = 10.0 * kSecondsPerDay;
  const sim::GdiEnvironment env(ec);
  auto simulator = sim::make_gdi_deployment(env, {});
  auto plan = std::make_shared<faults::InjectionPlan>();
  plan->add(6, std::make_unique<faults::StuckAtFault>(AttrVec{15.0, 1.0}),
            2.0 * kSecondsPerDay);
  simulator.set_transform(faults::make_transform(plan));
  const auto trace = simulator.run(ec.duration_seconds).trace;

  // Tune on the (mostly healthy) first two days, then run with it.
  std::vector<SensorRecord> head;
  for (const auto& r : trace) {
    if (r.time < 2.0 * kSecondsPerDay) head.push_back(r);
  }
  Rng rng(2, "autotune-e2e");
  const auto tuned = suggest_configuration(head, 3600.0, 6, rng);

  PipelineConfig cfg;
  cfg.initial_states = tuned.initial_states;
  cfg.model_states = tuned.suggested;
  DetectionPipeline p(cfg);
  p.process_trace(trace);

  const auto diag = p.diagnose();
  ASSERT_TRUE(diag.sensors.count(6));
  EXPECT_EQ(diag.sensors.at(6).kind, AnomalyKind::kStuckAt);
}

TEST(Autotune, NoisyFlatEnvironmentIsFlaggedAsNotSeparated) {
  // A flat environment observed through heavy noise: regime spacing is pure
  // noise structure, so the separation flag must warn.
  const sim::ConstantEnvironment env(AttrVec{20.0, 70.0});
  sim::Simulator s(env);
  for (std::size_t i = 0; i < 8; ++i) {
    sim::MoteConfig mc;
    mc.id = static_cast<SensorId>(i);
    mc.noise_sigma = 5.0;
    mc.seed = 3;
    s.add_mote(mc);
  }
  const auto trace = s.run(3.0 * kSecondsPerDay).trace;
  Rng rng(3, "autotune-flat");
  const auto report = suggest_configuration(trace, 3600.0, 4, rng);
  EXPECT_FALSE(report.scales_separated);
}

TEST(Autotune, ThrowsOnTooShortTrace) {
  Rng rng(4, "autotune-short");
  const std::vector<SensorRecord> tiny{{0, 0.0, {1.0, 2.0}}, {0, 10.0, {1.0, 2.0}}};
  EXPECT_THROW(suggest_configuration(tiny, 3600.0, 6, rng), std::invalid_argument);
}

TEST(HmmSaveLoad, RoundTripExact) {
  Rng rng(5, "hmm-ckpt");
  const auto model = hmm::Hmm::random(4, 6, rng);
  const auto loaded = hmm::Hmm::load(test::ReaderOver(test::text_bytes(model)));
  EXPECT_DOUBLE_EQ(loaded.transition().max_abs_diff(model.transition()), 0.0);
  EXPECT_DOUBLE_EQ(loaded.emission().max_abs_diff(model.emission()), 0.0);
  EXPECT_EQ(loaded.initial(), model.initial());
  // Identical likelihoods on a probe sequence.
  const auto s = model.sample(64, rng);
  EXPECT_DOUBLE_EQ(loaded.log_likelihood(s.symbols), model.log_likelihood(s.symbols));
}

TEST(HmmSaveLoad, RejectsCorruptedInput) {
  EXPECT_THROW(hmm::Hmm::load(test::ReaderOver("hmm\n2 2 0.5 0.5 0.9")), std::runtime_error);
  EXPECT_THROW(hmm::Hmm::load(test::ReaderOver("markov-chain\n")), std::runtime_error);
}

}  // namespace
}  // namespace sentinel::core
