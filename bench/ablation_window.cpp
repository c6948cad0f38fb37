// Ablation A2: observation window size w.
//
// The paper argues w must be "large enough to create nonempty sets O_i yet
// small enough to accurately sample changes in Theta(t)" and picks 12
// samples (1 hour). This bench sweeps w and reports, for a stuck-at
// injection: detection latency (hours from fault onset to the sensor's
// filtered alarm), the healthy sensors' raw false-alarm rate, and whether
// classification still lands on stuck-at.
//
// Expected shape: tiny windows inflate false alarms (few readings per
// window, noisy majority); huge windows delay detection and blur diurnal
// transitions; w around the paper's choice balances both.

#include <cstdio>
#include <optional>

#include "common/scenario.h"

int main() {
  using namespace sentinel;
  const double fault_start = 3.0 * kSecondsPerDay;

  std::printf("# A2 -- window size sweep (stuck-at on sensor 6 at day 3, 14-day runs)\n");
  std::printf("%10s %14s %18s %14s %12s\n", "w_samples", "latency_h", "false_alarm_rate",
              "classified", "windows");

  for (const std::size_t w : {2u, 4u, 8u, 12u, 24u, 48u}) {
    bench::ScenarioConfig sc;
    sc.duration_days = 14.0;
    sc.window_samples = w;
    const auto r = bench::run_scenario(
        {}, sc, bench::make_injection(bench::InjectionKind::kStuckAt, sc.seed, fault_start));
    const auto& p = *r.pipeline;

    // Detection latency: first window where sensor 6's filtered alarm is on.
    std::optional<double> detect_time;
    std::size_t healthy_raw = 0, healthy_n = 0;
    for (const auto& hist : r.windows) {
      const auto it6 = hist.sensors.find(6);
      if (!detect_time && it6 != hist.sensors.end() && it6->second.filtered_alarm &&
          hist.window_start >= fault_start) {
        detect_time = hist.window_start - fault_start;
      }
      for (const auto& [id, info] : hist.sensors) {
        if (id == 6) continue;
        ++healthy_n;
        healthy_raw += info.raw_alarm;
      }
    }

    const auto report = p.diagnose();
    const auto score = bench::score_report(report, bench::InjectionKind::kStuckAt);
    std::printf("%10zu %14s %17.2f%% %14s %12zu\n", static_cast<std::size_t>(w),
                detect_time ? std::to_string(*detect_time / kSecondsPerHour).substr(0, 6).c_str()
                            : "miss",
                100.0 * static_cast<double>(healthy_raw) / static_cast<double>(healthy_n),
                core::to_string(score.kind).c_str(), p.windows_processed());
  }
  return 0;
}
