// Tests: the parallel fleet path. The headline guarantee is determinism --
// the same record stream through a threads=1 fleet and a threads=4 fleet
// must yield bit-identical FleetReports (per-region pipelines are
// single-writer, diagnosis reads quiescent state, results assemble in
// region-name order) -- plus worker-fault quarantine (a pipeline exception
// in a pool worker is parked in the shard and folded into the region's
// health record on the caller thread, never rethrown to the producer), and
// the parallel simulator's trace-identity guarantee.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/fleet.h"
#include "faults/attack_models.h"
#include "faults/fault_models.h"
#include "faults/injection_plan.h"
#include "sim/simulator.h"
#include "util/thread_pool.h"

namespace sentinel::core {
namespace {

class CycleEnvironment final : public sim::Environment {
 public:
  std::size_t dims() const override { return 2; }
  AttrVec truth(double t) const override {
    const auto phase = static_cast<long>(t / (3.0 * kSecondsPerHour));
    return (phase % 2 == 0) ? AttrVec{10.0, 60.0} : AttrVec{30.0, 40.0};
  }
};

PipelineConfig region_config() {
  PipelineConfig cfg;
  cfg.window_seconds = kSecondsPerHour;
  cfg.initial_states = {{10.0, 60.0}, {30.0, 40.0}};
  return cfg;
}

std::vector<SensorRecord> simulate_region(const sim::Environment& env, double duration,
                                          std::uint64_t seed,
                                          std::shared_ptr<faults::InjectionPlan> plan = nullptr) {
  sim::Simulator s(env);
  for (std::size_t i = 0; i < 6; ++i) {
    sim::MoteConfig mc;
    mc.id = static_cast<SensorId>(i);
    mc.noise_sigma = 0.3;
    mc.seed = seed;
    s.add_mote(mc);
  }
  if (plan) s.set_transform(faults::make_transform(plan));
  return s.run(duration).trace;
}

/// A 4-region workload with enough variety to exercise every diagnosis
/// path: two clean regions, one with a stuck sensor, one whose majority is
/// compromised (structural outlier).
std::vector<std::vector<SensorRecord>> make_workload(const sim::Environment& env) {
  std::vector<std::vector<SensorRecord>> traces;
  traces.push_back(simulate_region(env, 3.0 * kSecondsPerDay, 1));
  traces.push_back(simulate_region(env, 3.0 * kSecondsPerDay, 2));

  auto stuck = std::make_shared<faults::InjectionPlan>();
  stuck->add(2, std::make_unique<faults::StuckAtFault>(AttrVec{20.0, 5.0}), 0.5 * kSecondsPerDay);
  traces.push_back(simulate_region(env, 3.0 * kSecondsPerDay, 3, stuck));

  auto compromised = std::make_shared<faults::InjectionPlan>();
  for (SensorId s = 0; s < 5; ++s) {  // 5 of 6 sensors: internal majority defeated
    faults::ChangeAttackConfig ac;
    ac.victim = faults::StateRegion{{30.0, 40.0}, 8.0};
    ac.observed_as = {55.0, 20.0};
    ac.fraction = 5.0 / 6.0;
    compromised->add(s, std::make_unique<faults::DynamicChangeAttack>(ac), 0.0);
  }
  traces.push_back(simulate_region(env, 3.0 * kSecondsPerDay, 4, compromised));
  return traces;
}

FleetReport run_fleet(const std::vector<std::vector<SensorRecord>>& traces, std::size_t threads,
                      std::vector<std::size_t>* windows_out = nullptr) {
  FleetConfig fc;
  fc.threads = threads;
  FleetMonitor fleet(fc);
  const std::vector<std::string> names = {"east", "north", "south", "west"};
  for (const auto& name : names) fleet.add_region(name, region_config());

  // Interleave across regions so parallel shards genuinely overlap.
  for (std::size_t i = 0;; ++i) {
    bool any = false;
    for (std::size_t r = 0; r < traces.size(); ++r) {
      if (i < traces[r].size()) {
        fleet.add_record(names[r], traces[r][i]);
        any = true;
      }
    }
    if (!any) break;
  }
  fleet.finish();
  if (windows_out) {
    windows_out->clear();
    for (const auto& name : names) {
      windows_out->push_back(fleet.region(name).windows_processed());
    }
  }
  return fleet.diagnose();
}

TEST(FleetParallel, ReportIdenticalToSerial) {
  const CycleEnvironment env;
  const auto traces = make_workload(env);

  std::vector<std::size_t> windows_serial, windows_parallel;
  const FleetReport serial = run_fleet(traces, 1, &windows_serial);
  const FleetReport parallel = run_fleet(traces, 4, &windows_parallel);

  EXPECT_EQ(windows_parallel, windows_serial);
  EXPECT_EQ(parallel.overall, serial.overall);
  EXPECT_EQ(parallel.structural_outliers, serial.structural_outliers);
  ASSERT_EQ(parallel.regions.size(), serial.regions.size());
  EXPECT_EQ(to_string(parallel), to_string(serial));

  // The workload is rich enough that identity is meaningful: a fault, an
  // outlier, and clean regions all present.
  EXPECT_EQ(serial.overall, Verdict::kError);
  ASSERT_TRUE(serial.regions.at("south").sensors.count(2));
  EXPECT_EQ(serial.regions.at("south").sensors.at(2).kind, AnomalyKind::kStuckAt);
  EXPECT_EQ(serial.structural_outliers, std::vector<std::string>{"west"});
}

TEST(FleetParallel, HardwareThreadCountAlsoIdentical) {
  const CycleEnvironment env;
  // Smaller workload; the point is an arbitrary pool size, not diagnosis.
  std::vector<std::vector<SensorRecord>> traces;
  traces.push_back(simulate_region(env, 1.0 * kSecondsPerDay, 7));
  traces.push_back(simulate_region(env, 1.0 * kSecondsPerDay, 8));
  traces.push_back(simulate_region(env, 1.0 * kSecondsPerDay, 9));
  traces.push_back(simulate_region(env, 1.0 * kSecondsPerDay, 10));

  const FleetReport serial = run_fleet(traces, 1);
  const FleetReport parallel = run_fleet(traces, 0);  // 0 = hardware concurrency
  EXPECT_EQ(to_string(parallel), to_string(serial));
}

TEST(FleetParallel, WorkerExceptionQuarantinesRegionWithAttribution) {
  FleetConfig fc;
  fc.threads = 4;
  FleetMonitor fleet(fc);
  fleet.add_region("ok", region_config());
  fleet.add_region("bad", region_config());

  // Dimension-mismatched records make the pipeline throw inside a pool
  // worker (AttrVec distance on a 2-dim model). That must NOT resurface as
  // an exception on the caller thread: the sick region is quarantined with
  // the error attributed to it, later records for it are dropped and
  // counted, and the healthy region completes untouched.
  for (int i = 0; i < 5000; ++i) {
    const double t = 60.0 * i;
    for (SensorId s = 0; s < 6; ++s) {
      fleet.add_record("bad", {s, t, {1.0, 2.0, 3.0}});  // 3 dims into a 2-dim region
      fleet.add_record("ok", {s, t, {10.0, 60.0}});
    }
  }
  fleet.finish();

  const RegionState& bad = fleet.region_health("bad");
  EXPECT_EQ(bad.health, RegionHealth::kQuarantined);
  EXPECT_FALSE(bad.status.is_ok());
  // The status message carries the region name -- a fleet log line must say
  // *which* feed died, not just that one did.
  EXPECT_NE(bad.status.message().find("bad"), std::string::npos) << bad.status.to_string();
  EXPECT_GT(bad.records_dropped, 0u);
  // The original exception rides along for callers that want the real type.
  ASSERT_TRUE(bad.error);
  EXPECT_THROW(std::rethrow_exception(bad.error), std::invalid_argument);

  // drain() stays a quiescence point and never throws region poison.
  EXPECT_NO_THROW(fleet.drain());
  EXPECT_EQ(fleet.region_health("ok").health, RegionHealth::kHealthy);
  EXPECT_GT(fleet.region("ok").windows_processed(), 0u);

  // The quarantined region is absent from the report body but present --
  // with its captured cause -- in the health section.
  const FleetReport report = fleet.diagnose();
  EXPECT_EQ(report.regions.count("bad"), 0u);
  EXPECT_EQ(report.regions.count("ok"), 1u);
  ASSERT_EQ(report.health.count("bad"), 1u);
  EXPECT_EQ(report.health.at("bad").health, RegionHealth::kQuarantined);
}

/// The poisoned fleet of WorkerExceptionQuarantinesRegionWithAttribution:
/// 3-dim records into a 2-dim region next to a healthy one, offered
/// record by record, then finished and diagnosed.
constexpr std::size_t kPoisonSteps = 5000;
constexpr std::size_t kPoisonOffered = kPoisonSteps * 6;  // records per region

FleetReport run_poisoned_fleet(std::size_t threads, std::size_t batch_records) {
  FleetConfig fc;
  fc.threads = threads;
  fc.batch_records = batch_records;
  FleetMonitor fleet(fc);
  fleet.add_region("ok", region_config());
  fleet.add_region("bad", region_config());
  for (std::size_t i = 0; i < kPoisonSteps; ++i) {
    const double t = 60.0 * static_cast<double>(i);
    for (SensorId s = 0; s < 6; ++s) {
      fleet.add_record("bad", {s, t, {1.0, 2.0, 3.0}});
      fleet.add_record("ok", {s, t, {10.0, 60.0}});
    }
  }
  fleet.finish();
  return fleet.diagnose();
}

TEST(FleetParallel, QuarantineAccountingIsThreadCountInvariant) {
  // Handing off every record on its own pins the failing call to the same
  // record at any thread count, so the whole report -- the health section
  // with its ingested/dropped split included -- must match threads=1.
  const std::string want = to_string(run_poisoned_fleet(1, 1));
  ASSERT_NE(want.find("[region bad] quarantined"), std::string::npos) << want;
  for (int run = 0; run < 10; ++run) {
    EXPECT_EQ(to_string(run_poisoned_fleet(4, 1)), want) << "threads=4 run " << run;
  }
  // At the default batch size the failing batch is dropped whole, so the
  // split may move with the thread count, but every offered record is
  // counted exactly once: ingested (applied) or dropped.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const FleetReport report = run_poisoned_fleet(threads, FleetConfig{}.batch_records);
    ASSERT_EQ(report.health.size(), 2u);
    for (const auto& [name, st] : report.health) {
      EXPECT_EQ(st.records_ingested + st.records_dropped, kPoisonOffered)
          << name << " threads=" << threads;
    }
    EXPECT_EQ(report.health.at("ok").records_dropped, 0u);
    EXPECT_GT(report.health.at("bad").records_dropped, 0u);
  }
}

/// Hand-built window `index` (1-based hours) over the trace records inside
/// it: each sensor's mean, shifted by `offset` on the first attribute, and
/// the mean of those as the window mean.
ObservationSet window_from(const std::vector<SensorRecord>& trace, std::size_t index,
                           double offset) {
  ObservationSet w;
  w.window_index = index;
  w.window_start = kSecondsPerHour * static_cast<double>(index - 1);
  w.window_end = w.window_start + kSecondsPerHour;
  std::map<SensorId, double> counts;
  for (const auto& rec : trace) {
    if (rec.time < w.window_start || rec.time >= w.window_end) continue;
    AttrVec& sum = w.per_sensor[rec.sensor];
    sum.resize(rec.attrs.size(), 0.0);
    for (std::size_t a = 0; a < sum.size(); ++a) sum[a] += rec.attrs[a];
    counts[rec.sensor] += 1.0;
  }
  w.cached_mean.assign(2, 0.0);
  for (auto& [id, p] : w.per_sensor) {
    for (auto& a : p) a /= counts[id];
    p[0] += offset;
    for (std::size_t a = 0; a < p.size(); ++a) w.cached_mean[a] += p[a];
  }
  for (auto& a : w.cached_mean) a /= static_cast<double>(w.per_sensor.size());
  return w;
}

TEST(FleetParallel, RecordsAndWindowsApplyInCallerOrder) {
  const CycleEnvironment env;
  const auto trace = simulate_region(env, 2.0 * kSecondsPerDay, 21);
  // Records for the first 20 hours, then windows 25..30 uploaded
  // pre-aggregated (shifted off the environment, so their position in the
  // sequence shows in the learned model), then the remaining records --
  // all without a drain() between the phases.
  const double cut = 20.0 * kSecondsPerHour;
  std::vector<SensorRecord> head, tail;
  for (const auto& rec : trace) (rec.time < cut ? head : tail).push_back(rec);
  std::vector<ObservationSet> windows;
  for (std::size_t i = 25; i <= 30; ++i) windows.push_back(window_from(trace, i, 12.0));

  const auto run = [&](std::size_t threads) {
    FleetConfig fc;
    fc.threads = threads;
    FleetMonitor fleet(fc);
    fleet.add_region("r", region_config());
    // Record by record, so at threads=4 several batches are in flight
    // around the windows.
    for (const auto& rec : head) fleet.add_record("r", rec);
    for (const auto& w : windows) fleet.add_window("r", w);
    for (const auto& rec : tail) fleet.add_record("r", rec);
    fleet.finish();
    EXPECT_EQ(fleet.region_health("r").records_ingested, trace.size() + windows.size() * 6);
    // The learned model state is order-sensitive even where the verdicts
    // are not, so compare the checkpoint bytes too.
    std::ostringstream checkpoint;
    fleet.region("r").save_checkpoint(checkpoint);
    return to_string(fleet.diagnose()) + checkpoint.str();
  };
  const std::string want = run(1);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(run(4), want) << "threads=4 run " << i;
}

TEST(FleetParallel, DrainIsQuiescencePoint) {
  const CycleEnvironment env;
  const auto trace = simulate_region(env, 1.0 * kSecondsPerDay, 5);

  FleetConfig fc;
  fc.threads = 4;
  FleetMonitor fleet(fc);
  fleet.add_region("r", region_config());
  for (const auto& rec : trace) fleet.add_record("r", rec);
  fleet.drain();
  // After drain every queued record reached the pipeline: the streaming
  // windower has closed all but the final partial window.
  const std::size_t before_finish = fleet.region("r").windows_processed();
  EXPECT_GT(before_finish, 20u);
  fleet.finish();
  EXPECT_GE(fleet.region("r").windows_processed(), before_finish);
}

TEST(FleetParallel, ConfigValidation) {
  FleetConfig bad_tol;
  bad_tol.state_match_tol = 0.0;
  EXPECT_THROW(FleetMonitor{bad_tol}, std::invalid_argument);
  FleetConfig bad_queue;
  bad_queue.max_queue_records = 0;
  EXPECT_THROW(FleetMonitor{bad_queue}, std::invalid_argument);
}

TEST(SimulatorParallel, TraceIdenticalToSerial) {
  sim::GdiEnvironmentConfig ec;
  ec.duration_seconds = 2.0 * kSecondsPerDay;
  ec.seed = 11;
  const sim::GdiEnvironment env(ec);

  sim::GdiDeploymentConfig dc;
  dc.num_sensors = 10;
  dc.seed = 11;

  auto serial_sim = sim::make_gdi_deployment(env, dc);
  const auto serial = serial_sim.run(ec.duration_seconds);

  auto parallel_sim = sim::make_gdi_deployment(env, dc);
  util::ThreadPool pool(4);
  const auto parallel = parallel_sim.run(ec.duration_seconds, pool);

  EXPECT_EQ(parallel.trace, serial.trace);
  EXPECT_EQ(parallel.stats.sampled, serial.stats.sampled);
  EXPECT_EQ(parallel.stats.suppressed, serial.stats.suppressed);
  EXPECT_EQ(parallel.stats.lost, serial.stats.lost);
  EXPECT_EQ(parallel.stats.malformed, serial.stats.malformed);
  EXPECT_EQ(parallel.stats.delivered, serial.stats.delivered);
}

TEST(SimulatorParallel, WithInjectionPlanIdenticalToSerial) {
  sim::GdiEnvironmentConfig ec;
  ec.duration_seconds = 1.0 * kSecondsPerDay;
  ec.seed = 13;
  const sim::GdiEnvironment env(ec);

  const auto make = [&] {
    sim::GdiDeploymentConfig dc;
    dc.num_sensors = 8;
    dc.seed = 13;
    auto s = sim::make_gdi_deployment(env, dc);
    auto plan = std::make_shared<faults::InjectionPlan>();
    plan->add(3, std::make_unique<faults::StuckAtFault>(AttrVec{15.0, 1.0}), 0.2 * kSecondsPerDay);
    plan->add(5, std::make_unique<faults::RandomNoiseFault>(10.0, 13), 0.1 * kSecondsPerDay);
    s.set_transform(faults::make_transform(plan));
    return s;
  };

  auto serial_sim = make();
  const auto serial = serial_sim.run(ec.duration_seconds);
  auto parallel_sim = make();
  util::ThreadPool pool(3);
  const auto parallel = parallel_sim.run(ec.duration_seconds, pool);
  EXPECT_EQ(parallel.trace, serial.trace);
}

}  // namespace
}  // namespace sentinel::core
