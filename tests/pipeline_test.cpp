// Integration-style unit tests of DetectionPipeline on small controlled
// scenarios: windowing, alarms, tracks, M_C extraction, and end-to-end
// detection of a blunt fault.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <random>
#include <sstream>

#include "common/scenario.h"
#include "core/pipeline.h"
#include "faults/fault_models.h"
#include "faults/injection_plan.h"
#include "sim/simulator.h"

namespace sentinel::core {
namespace {

// A scripted two-state environment cycling A(10,80) <-> B(30,40) every 2h.
class CycleEnvironment final : public sim::Environment {
 public:
  std::size_t dims() const override { return 2; }
  AttrVec truth(double t) const override {
    const auto phase = static_cast<long>(t / (2.0 * kSecondsPerHour));
    return (phase % 2 == 0) ? AttrVec{10.0, 80.0} : AttrVec{30.0, 40.0};
  }
};

PipelineConfig test_config() {
  PipelineConfig cfg;
  cfg.window_seconds = kSecondsPerHour;
  cfg.initial_states = {{10.0, 80.0}, {30.0, 40.0}};
  return cfg;
}

std::vector<SensorRecord> simulate(const sim::Environment& env, double duration,
                                   std::shared_ptr<faults::InjectionPlan> plan,
                                   std::size_t sensors = 6) {
  sim::Simulator s(env);
  for (std::size_t i = 0; i < sensors; ++i) {
    sim::MoteConfig mc;
    mc.id = static_cast<SensorId>(i);
    mc.noise_sigma = 0.3;
    mc.seed = 11;
    s.add_mote(mc);
  }
  if (plan) s.set_transform(faults::make_transform(plan));
  return s.run(duration).trace;
}

TEST(Pipeline, CleanRunLearnsTheCycle) {
  const CycleEnvironment env;
  DetectionPipeline p(test_config());
  p.process_trace(simulate(env, 2.0 * kSecondsPerDay, nullptr));

  EXPECT_EQ(p.windows_processed(), 48u);
  EXPECT_EQ(p.windows_skipped(), 0u);
  // M_C sees both states with ~equal occupancy and mutual transitions.
  const auto m_c = p.correct_model();
  ASSERT_EQ(m_c.num_states(), 2u);
  for (const double occ : m_c.occupancy()) EXPECT_NEAR(occ, 0.5, 0.1);
  EXPECT_GT(m_c.transition_count(0, 1), 5u);
  EXPECT_GT(m_c.transition_count(1, 0), 5u);

  // No anomalies anywhere.
  const auto report = p.diagnose();
  EXPECT_EQ(report.network.verdict, Verdict::kNormal);
  EXPECT_TRUE(report.sensors.empty());
}

TEST(Pipeline, ObservableTracksCorrectOnCleanData) {
  const CycleEnvironment env;
  DetectionPipeline p(test_config());
  p.process_trace(simulate(env, kSecondsPerDay, nullptr));
  for (const auto& w : p.history()) {
    EXPECT_EQ(w.observable, w.correct);
  }
}

TEST(Pipeline, StuckSensorGetsTrackAndDiagnosis) {
  const CycleEnvironment env;
  auto plan = std::make_shared<faults::InjectionPlan>();
  plan->add(2, std::make_unique<faults::StuckAtFault>(AttrVec{20.0, 5.0}),
            0.5 * kSecondsPerDay);

  DetectionPipeline p(test_config());
  p.process_trace(simulate(env, 4.0 * kSecondsPerDay, plan));

  // A track opened for sensor 2 and for nobody else.
  EXPECT_EQ(p.tracks().tracked_sensors(), std::vector<SensorId>{2});
  ASSERT_NE(p.m_ce(2), nullptr);
  EXPECT_EQ(p.m_ce(5), nullptr);

  const auto report = p.diagnose();
  EXPECT_EQ(report.network.verdict, Verdict::kNormal);
  ASSERT_TRUE(report.sensors.count(2));
  EXPECT_EQ(report.sensors.at(2).verdict, Verdict::kError);
  EXPECT_EQ(report.sensors.at(2).kind, AnomalyKind::kStuckAt);
  // The stuck state's centroid is near the injected value.
  ASSERT_TRUE(report.sensors.at(2).stuck_state.has_value());
  EXPECT_NEAR(report.sensors.at(2).stuck_value[0], 20.0, 2.0);
  EXPECT_NEAR(report.sensors.at(2).stuck_value[1], 5.0, 2.0);
}

TEST(Pipeline, AlarmsRaisedOnlyForFaultySensor) {
  const CycleEnvironment env;
  auto plan = std::make_shared<faults::InjectionPlan>();
  plan->add(2, std::make_unique<faults::StuckAtFault>(AttrVec{20.0, 5.0}),
            0.5 * kSecondsPerDay);
  DetectionPipeline p(test_config());
  p.process_trace(simulate(env, 2.0 * kSecondsPerDay, plan));

  std::size_t faulty_raw = 0, healthy_raw = 0, healthy_windows = 0;
  for (const auto& w : p.history()) {
    for (const auto& [id, info] : w.sensors) {
      if (id == 2) {
        faulty_raw += info.raw_alarm;
      } else {
        ++healthy_windows;
        healthy_raw += info.raw_alarm;
      }
    }
  }
  EXPECT_GT(faulty_raw, 20u);
  // With noise_sigma 0.3 and states 45 units apart, healthy raw alarms are
  // essentially impossible in this controlled setup.
  EXPECT_LT(static_cast<double>(healthy_raw) / static_cast<double>(healthy_windows), 0.02);
}

TEST(Pipeline, StreamingMatchesBatch) {
  const CycleEnvironment env;
  const auto trace = simulate(env, kSecondsPerDay, nullptr);

  DetectionPipeline batch(test_config());
  batch.process_trace(trace);

  DetectionPipeline streaming(test_config());
  for (const auto& rec : trace) streaming.add_record(rec);
  streaming.finish();

  ASSERT_EQ(batch.windows_processed(), streaming.windows_processed());
  for (std::size_t i = 0; i < batch.history().size(); ++i) {
    EXPECT_EQ(batch.history()[i].correct, streaming.history()[i].correct) << i;
    EXPECT_EQ(batch.history()[i].observable, streaming.history()[i].observable) << i;
  }
}

TEST(Pipeline, SkipsWindowsBelowSensorMinimum) {
  PipelineConfig cfg = test_config();
  cfg.min_sensors_per_window = 3;
  DetectionPipeline p(cfg);
  // Two sensors only: every window skipped.
  p.process_window(bench::make_window(1, cfg.window_seconds, {0, 1}, {{10.0, 80.0}, {10.0, 80.0}}));
  EXPECT_EQ(p.windows_processed(), 0u);
  EXPECT_EQ(p.windows_skipped(), 1u);
}

TEST(Pipeline, HandBuiltWindowMustMatchItsArrays) {
  // The stages index rep_points and rep_sums by rep_sensors and rep_total by
  // the window mean's width; a window that disagrees is rejected before any
  // of them reads past an array.
  const ObservationSet good = bench::make_window(
      1, kSecondsPerHour, {0, 1, 2}, {{10.0, 80.0}, {10.5, 79.0}, {9.5, 81.0}});
  std::vector<ObservationSet> bad(4, good);
  bad[0].rep_points.pop_back();
  bad[1].rep_sums.pop_back();
  bad[2].rep_total.push_back(0.0);
  bad[3].rep_sensors.push_back(3);
  DetectionPipeline p(test_config());
  for (std::size_t i = 0; i < bad.size(); ++i) {
    EXPECT_THROW(p.process_window(bad[i]), std::invalid_argument) << i;
  }
  EXPECT_EQ(p.windows_processed() + p.windows_skipped(), 0u);
  p.process_window(good);
  EXPECT_EQ(p.windows_processed(), 1u);
}

TEST(Pipeline, NanTimeSortsFirstWhereverItSits) {
  // A NaN time clamps into window 1. process_trace must sort it there from
  // any position: `a.time < b.time` alone is no strict weak order with a
  // NaN present, and a NaN left mid-trace turned later records late.
  const CycleEnvironment env;
  auto trace = simulate(env, 4.0 * kSecondsPerDay, nullptr);
  std::shuffle(trace.begin(), trace.end(), std::mt19937_64(17));
  const SensorRecord nan_rec{3, std::numeric_limits<double>::quiet_NaN(), {10.0, 80.0}};
  const auto run = [&](std::size_t at) {
    auto t = trace;
    t.insert(t.begin() + static_cast<std::ptrdiff_t>(at), nan_rec);
    DetectionPipeline p(test_config());
    p.process_trace(t);
    EXPECT_EQ(p.counters().late_records, 0u) << "NaN at " << at;
    EXPECT_EQ(p.counters().clamped_records, 1u) << "NaN at " << at;
    std::ostringstream os;
    p.save_checkpoint(os);
    return os.str();
  };
  const std::string first = run(0);
  EXPECT_EQ(run(trace.size() / 2), first);
  EXPECT_EQ(run(trace.size()), first);
}

TEST(Pipeline, ConfigValidation) {
  PipelineConfig cfg = test_config();
  cfg.min_sensors_per_window = 0;
  EXPECT_THROW(DetectionPipeline{cfg}, std::invalid_argument);
  PipelineConfig cfg2 = test_config();
  cfg2.initial_states.clear();
  EXPECT_THROW(DetectionPipeline{cfg2}, std::invalid_argument);
}

TEST(Pipeline, CountersMirrorObservableActivity) {
  const CycleEnvironment env;
  auto plan = std::make_shared<faults::InjectionPlan>();
  plan->add(2, std::make_unique<faults::StuckAtFault>(AttrVec{20.0, 5.0}),
            0.5 * kSecondsPerDay);
  DetectionPipeline p(test_config());
  p.process_trace(simulate(env, 4.0 * kSecondsPerDay, plan));

  const PipelineCounters c = p.counters();
  EXPECT_EQ(c.windows_processed, p.windows_processed());
  EXPECT_EQ(c.windows_skipped, p.windows_skipped());
  EXPECT_EQ(c.windows_processed, 96u);

  // Cross-check the alarm counters against the recorded history: the
  // counters are the no-history view of the same events.
  std::size_t raw = 0, filtered = 0;
  for (const auto& w : p.history()) {
    for (const auto& [id, info] : w.sensors) {
      raw += info.raw_alarm;
      filtered += info.filtered_alarm;
    }
  }
  EXPECT_EQ(c.raw_alarms, raw);
  EXPECT_EQ(c.filtered_alarms, filtered);
  EXPECT_GT(c.raw_alarms, 0u);
  EXPECT_GE(c.raw_alarms, c.filtered_alarms);

  // The stuck sensor opened a track; its persistence drove HMM updates.
  EXPECT_GE(c.track_opens, 1u);
  EXPECT_LE(c.track_closes, c.track_opens);
  EXPECT_GT(c.hmm_updates, 0u);
  EXPECT_EQ(c.late_records, 0u);
  EXPECT_EQ(c.clamped_records, 0u);
}

TEST(Pipeline, StageTimersDoNotChangeResults) {
  // stage_timers is observational only: identical history, identical
  // diagnosis, identical counters -- the toggle adds clock reads, nothing
  // else. (The golden tests pin the same property on full reports.)
  const CycleEnvironment env;
  const auto trace = simulate(env, 2.0 * kSecondsPerDay, nullptr);

  DetectionPipeline plain(test_config());
  plain.process_trace(trace);

  PipelineConfig cfg = test_config();
  cfg.stage_timers = true;
  DetectionPipeline timed(cfg);
  timed.process_trace(trace);

  ASSERT_EQ(plain.windows_processed(), timed.windows_processed());
  for (std::size_t i = 0; i < plain.history().size(); ++i) {
    EXPECT_EQ(plain.history()[i].correct, timed.history()[i].correct) << i;
    EXPECT_EQ(plain.history()[i].observable, timed.history()[i].observable) << i;
  }
  EXPECT_EQ(to_string(plain.diagnose()), to_string(timed.diagnose()));
  const PipelineCounters a = plain.counters();
  const PipelineCounters b = timed.counters();
  EXPECT_EQ(a.raw_alarms, b.raw_alarms);
  EXPECT_EQ(a.filtered_alarms, b.filtered_alarms);
  EXPECT_EQ(a.hmm_updates, b.hmm_updates);
}

TEST(Pipeline, MuteSensorSimplyDisappears) {
  const CycleEnvironment env;
  auto plan = std::make_shared<faults::InjectionPlan>();
  plan->add(1, std::make_unique<faults::MuteFault>(), 0.25 * kSecondsPerDay);
  DetectionPipeline p(test_config());
  p.process_trace(simulate(env, kSecondsPerDay, plan));

  // The pipeline keeps running on the survivors; sensor 1 contributes no
  // windows after going mute and no track is fabricated for it.
  EXPECT_EQ(p.windows_processed(), 24u);
  EXPECT_FALSE(p.tracks().has_active_track(1));
  std::size_t windows_with_1 = 0;
  for (const auto& w : p.history()) windows_with_1 += w.sensors.count(1);
  EXPECT_LT(windows_with_1, 8u);
}

TEST(Pipeline, BlockBoundarySensorCountsDiagnoseAndCheckpointStably) {
  // The alarm/track stage iterates sensors in 256-wide blocks. Fleet sizes
  // straddling that block size -- including a final partial block of one --
  // must behave exactly like any other size: faulted sensors at the block
  // edges get their tracks, everyone else stays clean, and the checkpoint
  // (which drains active tracks out of the slab) round-trips byte-stably.
  const CycleEnvironment env;
  for (const std::size_t n_sensors : {255ul, 256ul, 257ul}) {
    auto plan = std::make_shared<faults::InjectionPlan>();
    // Faults on the first sensor of the run, the last of the first block,
    // and the first/last of the final (possibly 1-wide) block.
    std::vector<SensorId> faulted = {0, 254};
    if (n_sensors > 255) faulted.push_back(255);
    if (n_sensors > 256) faulted.push_back(256);
    for (const SensorId s : faulted) {
      plan->add(s, std::make_unique<faults::StuckAtFault>(AttrVec{20.0, 5.0}),
                0.25 * kSecondsPerDay);
    }
    DetectionPipeline p(test_config());
    p.process_trace(simulate(env, kSecondsPerDay, plan, n_sensors));

    EXPECT_EQ(p.windows_processed(), 24u) << n_sensors;
    EXPECT_EQ(p.tracks().tracked_sensors(), faulted) << n_sensors;
    for (const SensorId s : faulted) {
      EXPECT_NE(p.m_ce(s), nullptr) << "sensor " << s << " of " << n_sensors;
    }

    std::stringstream first;
    p.save_checkpoint(first);
    std::istringstream in(first.str());
    DetectionPipeline restored(test_config(), in);
    std::stringstream second;
    restored.save_checkpoint(second);
    EXPECT_EQ(second.str(), first.str()) << n_sensors;
  }
}

}  // namespace
}  // namespace sentinel::core
