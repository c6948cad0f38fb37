// Fig. 12 reproduction: raw alarms generated for a faulty and a non-faulty
// node. Expected shape: the healthy node shows a sparse scatter of raw
// alarms (the paper measures ~1.5% false-alarm rate); the faulty node's raw
// alarms switch on solidly once the fault manifests. Filtering (k-of-n)
// suppresses the isolated false alarms.

#include <cstdio>

#include "common/scenario.h"
#include "faults/fault_models.h"

int main() {
  using namespace sentinel;

  const bench::ScenarioConfig sc;
  const double fault_start = 10.0 * kSecondsPerDay;

  const bench::ScenarioResult r =
      bench::run_scenario({}, sc, [&](faults::InjectionPlan& plan, const sim::Environment&) {
        plan.add(6, std::make_unique<faults::StuckAtFault>(AttrVec{15.0, 1.0}), fault_start);
      });
  const auto& p = *r.pipeline;

  std::printf("# Fig. 12 -- raw alarms for faulty sensor 6 (stuck-at from day 10) and\n");
  std::printf("# healthy sensor 9, one line per window (. = no alarm, R = raw alarm,\n");
  std::printf("# F = raw alarm while filtered alarm active)\n\n");

  std::size_t raw6 = 0, raw9 = 0, n6 = 0, n9 = 0;
  std::size_t raw9_prefault = 0, n9_prefault = 0;
  std::string row6, row9;
  for (const auto& w : r.windows) {
    const auto render = [&](SensorId id, std::string& row, std::size_t& raw, std::size_t& n) {
      const auto it = w.sensors.find(id);
      if (it == w.sensors.end()) {
        row += ' ';
        return;
      }
      ++n;
      if (it->second.raw_alarm) {
        ++raw;
        row += it->second.filtered_alarm ? 'F' : 'R';
      } else {
        row += '.';
      }
    };
    render(6, row6, raw6, n6);
    render(9, row9, raw9, n9);
    if (w.window_start < fault_start) {
      const auto it = w.sensors.find(9);
      if (it != w.sensors.end()) {
        ++n9_prefault;
        if (it->second.raw_alarm) ++raw9_prefault;
      }
    }
  }

  // Print as day-per-line strips (24 windows/day).
  const auto print_strip = [](const char* name, const std::string& row) {
    std::printf("%s\n", name);
    for (std::size_t i = 0; i < row.size(); i += 24) {
      std::printf("  day %2zu |%s|\n", i / 24 + 1, row.substr(i, 24).c_str());
    }
  };
  print_strip("sensor 6 (faulty):", row6);
  print_strip("sensor 9 (healthy):", row9);

  std::printf("\nraw alarm rate, sensor 6: %.1f%% of %zu windows\n",
              100.0 * static_cast<double>(raw6) / static_cast<double>(n6), n6);
  std::printf("raw alarm rate, sensor 9: %.1f%% of %zu windows (paper: ~1.5%% for healthy)\n",
              100.0 * static_cast<double>(raw9) / static_cast<double>(n9), n9);
  std::printf("filtered alarms active for sensor 9: %s\n",
              p.alarms().filtered_active(9) ? "yes (unexpected)" : "no");
  return 0;
}
