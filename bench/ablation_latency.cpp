// Extension bench A8: diagnosis latency per anomaly type.
//
// The paper shows end-of-month classifications; an operator also cares how
// long the evidence takes to accumulate. Processing windows incrementally,
// this bench records, per injected anomaly type:
//   - alarm latency: onset -> first filtered alarm on an injected sensor,
//   - diagnosis latency: onset -> first day whose diagnose() output matches
//     the injected ground truth and stays correct until the end of the run.
//
// Expected shape: alarms within hours (filter depth x window); errors are
// classified once a few (correct, error) state pairs accumulate (~1-3 days);
// state-gated attacks wait for the environment to revisit the victim state.

#include <cstdio>
#include <optional>

#include "common/scenario.h"
#include "trace/windower.h"

int main() {
  using namespace sentinel;
  const double onset = 2.0 * kSecondsPerDay;

  std::printf("# A8 -- time from fault/attack onset to alarm and to stable correct diagnosis\n");
  std::printf("%-14s %14s %20s\n", "injected", "alarm_latency_h", "diagnosis_latency_d");

  for (const auto kind : bench::all_injection_kinds()) {
    if (kind == bench::InjectionKind::kClean || kind == bench::InjectionKind::kBenign) continue;

    bench::ScenarioConfig sc;
    sc.duration_days = 14.0;
    const auto r = bench::run_scenario({}, sc, bench::make_injection(kind, sc.seed, onset));

    // Replay the same trace window by window, diagnosing at day boundaries.
    core::DetectionPipeline p(r.pipeline_config);
    const auto windows = window_trace(r.sim.trace, r.pipeline_config.window_seconds);
    const auto injected = std::set<SensorId>{6, 7, 8, 9};

    double alarm_latency = -1.0;
    double first_right_day = -1.0;  // -1 = not (or no longer) correct
    for (const auto& w : windows) {
      p.process_window(w);
      if (p.windows_processed() > 0 && alarm_latency < 0.0) {
        const auto& h = p.last_window();
        for (const auto& [sensor, info] : h.sensors) {
          if (info.filtered_alarm && injected.count(sensor) && h.window_start >= onset) {
            alarm_latency = (h.window_start - onset) / kSecondsPerHour;
            break;
          }
        }
      }
      if (w.window_index % 24 == 0 && w.window_end > onset) {
        const double day = w.window_end / kSecondsPerDay;
        const auto score = bench::score_report(p.diagnose(), kind);
        if (score.exact) {
          if (first_right_day < 0.0) first_right_day = day;
        } else {
          first_right_day = -1.0;  // must stay correct to the end
        }
      }
    }

    char alarm_buf[32], diag_buf[32];
    if (alarm_latency >= 0.0) {
      std::snprintf(alarm_buf, sizeof alarm_buf, "%.1f", alarm_latency);
    } else {
      std::snprintf(alarm_buf, sizeof alarm_buf, "n/a");
    }
    if (first_right_day >= 0.0) {
      std::snprintf(diag_buf, sizeof diag_buf, "%.1f",
                    first_right_day - onset / kSecondsPerDay);
    } else {
      std::snprintf(diag_buf, sizeof diag_buf, "never");
    }
    std::printf("%-14s %14s %20s\n", bench::to_string(kind), alarm_buf, diag_buf);
  }
  return 0;
}
