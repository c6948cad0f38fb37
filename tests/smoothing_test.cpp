// Tests: Viterbi smoothing of the correct-state sequence, plus the bursty
// (Gilbert-Elliott) deployment option it helps against.

#include <gtest/gtest.h>

#include "common/scenario.h"
#include "core/pipeline.h"
#include "core/smoothing.h"
#include "faults/fault_models.h"
#include "faults/injection_plan.h"
#include "sim/simulator.h"

namespace sentinel::core {
namespace {

hmm::MarkovChain dwell_chain() {
  // Two states that dwell long (learned from a clean cycle).
  hmm::MarkovChain mc;
  std::vector<hmm::StateId> seq;
  for (int cycle = 0; cycle < 20; ++cycle) {
    for (int i = 0; i < 12; ++i) seq.push_back(0);
    for (int i = 0; i < 12; ++i) seq.push_back(1);
  }
  mc.add_sequence(seq);
  return mc;
}

TEST(Smoothing, RepairsIsolatedGlitch) {
  const auto mc = dwell_chain();
  std::vector<hmm::StateId> observed(24, 0);
  observed[10] = 1;  // single-window majority flip
  const auto smoothed = smooth_correct_sequence(mc, observed);
  ASSERT_EQ(smoothed.size(), observed.size());
  EXPECT_EQ(smoothed[10], 0u);
  EXPECT_EQ(smoothing_repairs(observed, smoothed), 1u);
}

TEST(Smoothing, KeepsGenuineTransition) {
  const auto mc = dwell_chain();
  std::vector<hmm::StateId> observed;
  for (int i = 0; i < 12; ++i) observed.push_back(0);
  for (int i = 0; i < 12; ++i) observed.push_back(1);
  const auto smoothed = smooth_correct_sequence(mc, observed);
  EXPECT_EQ(smoothed, observed);
  EXPECT_EQ(smoothing_repairs(observed, smoothed), 0u);
}

TEST(Smoothing, PreservesNovelRegime) {
  // A sustained run of a state the chain has never seen must NOT be erased:
  // it is a real new regime (e.g. a fresh fault), not a glitch.
  const auto mc = dwell_chain();
  std::vector<hmm::StateId> observed(10, 0);
  for (int i = 0; i < 8; ++i) observed.push_back(42);
  const auto smoothed = smooth_correct_sequence(mc, observed);
  std::size_t novel = 0;
  for (const auto s : smoothed) novel += s == 42;
  EXPECT_GE(novel, 7u);
}

TEST(Smoothing, Validation) {
  const auto mc = dwell_chain();
  EXPECT_THROW(smooth_correct_sequence(mc, {0, 0, 1}, 0.0), std::invalid_argument);
  EXPECT_THROW(smooth_correct_sequence(mc, {0, 0, 1}, 0.5), std::invalid_argument);
  EXPECT_EQ(smooth_correct_sequence(mc, {0}), std::vector<hmm::StateId>{0});
  EXPECT_THROW(smoothing_repairs({0, 1}, {0}), std::invalid_argument);
}

TEST(Smoothing, PipelineCorrectSequenceAccessor) {
  sim::GdiEnvironmentConfig ec;
  ec.duration_seconds = 2.0 * kSecondsPerDay;
  const sim::GdiEnvironment env(ec);
  auto simulator = sim::make_gdi_deployment(env, {});
  const auto trace = simulator.run(ec.duration_seconds).trace;

  PipelineConfig cfg;
  for (double t = 0.0; t < kSecondsPerDay; t += 4.0 * kSecondsPerHour) {
    cfg.initial_states.push_back(env.truth(t));
  }
  DetectionPipeline p(cfg);
  std::vector<StateId> seq;
  for (const auto& w : bench::collect_windows(p, trace)) seq.push_back(w.correct);
  EXPECT_EQ(seq.size(), p.windows_processed());
  // Smoothing a clean run changes little.
  const auto smoothed = smooth_correct_sequence(p.m_c(), seq);
  EXPECT_LE(smoothing_repairs(seq, smoothed), seq.size() / 10);
}

TEST(BurstyLoss, GilbertElliottDeploymentMatchesLossBudget) {
  sim::GdiEnvironmentConfig ec;
  ec.duration_seconds = 7.0 * kSecondsPerDay;
  const sim::GdiEnvironment env(ec);
  sim::GdiDeploymentConfig dc;
  dc.bursty_loss = true;
  dc.packet_loss = 0.15;
  auto simulator = sim::make_gdi_deployment(env, dc);
  const auto result = simulator.run(ec.duration_seconds);
  const double loss_rate =
      static_cast<double>(result.stats.lost) / static_cast<double>(result.stats.sampled);
  EXPECT_NEAR(loss_rate, 0.15, 0.04);
}

TEST(BurstyLoss, PipelineStillDiagnosesUnderBursts) {
  sim::GdiEnvironmentConfig ec;
  ec.duration_seconds = 10.0 * kSecondsPerDay;
  const sim::GdiEnvironment env(ec);
  sim::GdiDeploymentConfig dc;
  dc.bursty_loss = true;
  dc.packet_loss = 0.2;
  auto simulator = sim::make_gdi_deployment(env, dc);

  auto plan = std::make_shared<faults::InjectionPlan>();
  plan->add(6, std::make_unique<faults::StuckAtFault>(AttrVec{15.0, 1.0}),
            2.0 * kSecondsPerDay);
  simulator.set_transform(faults::make_transform(plan));
  const auto trace = simulator.run(ec.duration_seconds).trace;

  PipelineConfig cfg;
  for (double t = 0.0; t < 2.0 * kSecondsPerDay; t += 8.0 * kSecondsPerHour) {
    cfg.initial_states.push_back(env.truth(t));
  }
  DetectionPipeline p(cfg);
  p.process_trace(trace);
  const auto report = p.diagnose();
  ASSERT_TRUE(report.sensors.count(6));
  EXPECT_EQ(report.sensors.at(6).kind, AnomalyKind::kStuckAt);
}

}  // namespace
}  // namespace sentinel::core
