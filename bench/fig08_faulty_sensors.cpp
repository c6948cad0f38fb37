// Fig. 8 reproduction: humidity (and temperature) reported over one week by
// the two faulty sensors versus a healthy one. The paper's sensor 6 reports
// a continuously decreasing humidity that bottoms out near zero; sensor 7
// reports ~10% higher humidity than correct sensors; sensor 9 is healthy.
// We inject the corresponding DriftFault and CalibrationFault (DESIGN.md
// substitution #2).

#include <algorithm>
#include <cstdio>
#include <map>

#include "common/scenario.h"
#include "faults/fault_models.h"
#include "trace/windower.h"

int main() {
  using namespace sentinel;

  bench::ScenarioConfig sc;
  sc.duration_days = 7.0;

  const bench::ScenarioResult r =
      bench::run_scenario({}, sc, [](faults::InjectionPlan& plan, const sim::Environment&) {
        // Sensor 6: humidity drifts to ~0 over four days, then sticks there.
        plan.add(6, std::make_unique<faults::DriftFault>(/*attr=*/1, /*floor=*/1.0,
                                                         /*start_time=*/0.5 * kSecondsPerDay,
                                                         /*drift_seconds=*/4.0 * kSecondsPerDay));
        // Sensor 7: humidity calibration error, ~10% high.
        plan.add(7, std::make_unique<faults::CalibrationFault>(AttrVec{1.0, 1.10}));
      });

  // Hourly per-sensor means straight from the delivered trace.
  std::printf("# Fig. 8 -- humidity reported in one week by sensors 6 (drift-to-floor),\n");
  std::printf("# 7 (calibration +10%%), and 9 (healthy)\n");
  std::printf("%8s %10s %10s %10s\n", "hour", "s6_hum", "s7_hum", "s9_hum");

  const auto windows = window_trace(r.sim.trace, kSecondsPerHour);
  for (const auto& w : windows) {
    const auto get = [&](SensorId id) -> double {
      const auto it = std::lower_bound(w.rep_sensors.begin(), w.rep_sensors.end(), id);
      if (it == w.rep_sensors.end() || *it != id) return -1.0;
      return w.rep_points[static_cast<std::size_t>(it - w.rep_sensors.begin())][1];
    };
    std::printf("%8.0f %10.2f %10.2f %10.2f\n", w.window_start / kSecondsPerHour, get(6), get(7),
                get(9));
  }

  std::printf("\n# expected: s6 decays toward ~1 and stays; s7 tracks s9 scaled by ~1.10;\n");
  std::printf("# s9 follows the diurnal humidity cycle\n");
  std::printf("\npipeline diagnosis after the week (still maturing -- a drifting fault has no\n");
  std::printf("fixed signature yet; the month-long E5/E6 benches show the settled verdicts):\n%s",
              core::to_string(r.pipeline->diagnose()).c_str());
  return 0;
}
