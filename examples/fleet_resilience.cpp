// Fleet + checkpointing, together: three cluster-head regions monitored by
// one base station; the base station checkpoints every region daily and
// "crashes" halfway through the deployment, restoring all pipelines from the
// latest checkpoints and continuing. One region has a degraded sensor; in
// another, a majority of sensors is compromised -- which defeats that
// region's own majority assumption but is caught at the fleet tier by the
// cross-region structural check.

#include <cstdio>
#include <map>
#include <memory>
#include <sstream>

#include "core/fleet.h"
#include "core/offline_kmeans.h"
#include "faults/attack_models.h"
#include "faults/fault_models.h"
#include "faults/injection_plan.h"
#include "sim/simulator.h"

namespace {

using namespace sentinel;

core::PipelineConfig region_config(const sim::Environment& env) {
  core::PipelineConfig cfg;
  std::vector<AttrVec> history;
  for (double t = 0.0; t < 2.0 * kSecondsPerDay; t += 30.0 * kSecondsPerMinute) {
    history.push_back(env.truth(t));
  }
  Rng rng(11, "fleet-kmeans");
  cfg.initial_states = core::kmeans(history, 6, rng).centroids;
  return cfg;
}

}  // namespace

int main() {
  using namespace sentinel;
  const double duration = 12.0 * kSecondsPerDay;
  const double crash_at = 6.0 * kSecondsPerDay;

  sim::GdiEnvironmentConfig ec;
  ec.duration_seconds = duration;
  const sim::GdiEnvironment env(ec);

  // Per-region traces. Region "east" gets a calibration fault on sensor 2;
  // region "south" has 4 of 6 sensors compromised with a change attack.
  std::map<std::string, std::vector<SensorRecord>> traces;
  std::uint64_t seed = 100;
  for (const std::string name : {"north", "east", "south"}) {
    sim::Simulator s(env);
    for (std::size_t i = 0; i < 6; ++i) {
      sim::MoteConfig mc;
      mc.id = static_cast<SensorId>(i);
      mc.noise_sigma = 0.4;
      mc.seed = seed;
      s.add_mote(mc);
    }
    auto plan = std::make_shared<faults::InjectionPlan>();
    if (name == "east") {
      plan->add(2, std::make_unique<faults::CalibrationFault>(AttrVec{0.70, 0.80}),
                2.0 * kSecondsPerDay);
    } else if (name == "south") {
      for (SensorId m = 0; m < 4; ++m) {
        faults::ChangeAttackConfig ac;
        ac.victim = faults::StateRegion{{12.0, 94.0}, 8.0};
        ac.observed_as = {20.0, 55.0};
        ac.fraction = 4.0 / 6.0;
        plan->add(m, std::make_unique<faults::DynamicChangeAttack>(ac), 2.0 * kSecondsPerDay);
      }
    }
    s.set_transform(faults::make_transform(plan));
    traces[name] = s.run(duration).trace;
    ++seed;
  }

  // Phase 1: run until the crash, checkpointing each region daily.
  core::FleetMonitor fleet;
  for (const auto& [name, trace] : traces) fleet.add_region(name, region_config(env));

  std::map<std::string, std::string> checkpoints;
  double next_checkpoint = kSecondsPerDay;
  std::map<std::string, std::size_t> cursor;
  const auto feed_until = [&](core::FleetMonitor& f, double t_end) {
    for (auto& [name, trace] : traces) {
      auto& i = cursor[name];
      while (i < trace.size() && trace[i].time < t_end) f.add_record(name, trace[i++]);
    }
  };

  while (next_checkpoint <= crash_at) {
    feed_until(fleet, next_checkpoint);
    fleet.drain();  // every record fed so far reaches its pipeline
    for (const auto& name : fleet.region_names()) {
      std::ostringstream os;
      fleet.region(name).save_checkpoint(os);
      checkpoints[name] = os.str();
    }
    next_checkpoint += kSecondsPerDay;
  }
  std::printf("day %.0f: base station crash -- %zu regions checkpointed\n",
              crash_at / kSecondsPerDay, checkpoints.size());

  // Phase 2: cold restart -- every region restored from its checkpoint.
  // The replay runs with a worker pool (FleetConfig::threads): regions drain
  // concurrently, and the report is bit-identical to a serial run
  // (docs/CONCURRENCY.md), so turning threads up is purely a wall-clock knob.
  core::FleetConfig fleet_cfg;
  fleet_cfg.threads = 2;
  core::FleetMonitor restored(fleet_cfg);
  for (const auto& [name, trace] : traces) {
    (void)trace;
    std::istringstream is(checkpoints.at(name));
    restored.add_region(name, region_config(env), is);
  }
  feed_until(restored, duration + 1.0);
  restored.finish();

  const auto report = restored.diagnose();
  std::printf("\n=== fleet report after restart ===\n%s", core::to_string(report).c_str());
  std::printf("\nexpected: east/sensor 2 calibration error; south flagged as a structural\n");
  std::printf("outlier (its internal majority is compromised, the fleet tier catches it)\n");
  return 0;
}
