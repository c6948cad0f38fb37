// Ablation A5: Sentinel vs the two baselines.
//
//  - Warrender-style HMM detector (the paper's section 2 comparator): needs
//    an attack-free training phase, Baum-Welch training cost, flags windows
//    whose likelihood drops -- but cannot say *what* happened.
//  - Median-deviation detector: no training, flags outlier sensors, blind to
//    the anomaly type and to where the network-level state semantics break.
//  - Sentinel (this paper): no separate training phase, detects, and
//    classifies the anomaly type.
//
// Expected shape: all three notice a blunt stuck-at; only Sentinel names it.
// On the Dynamic Creation attack, the median detector flags the coalition
// sensors, Warrender flags unfamiliar symbol windows, Sentinel both detects
// and classifies the attack.

#include <chrono>
#include <cstdio>

#include "baseline/markov_detector.h"
#include "baseline/median_detector.h"
#include "baseline/warrender.h"
#include "common/scenario.h"
#include "trace/windower.h"

namespace {

using namespace sentinel;

std::vector<hmm::StateId> observable_sequence(const std::vector<core::WindowSummary>& windows) {
  std::vector<hmm::StateId> seq;
  for (const auto& w : windows) seq.push_back(w.observable);
  return seq;
}

}  // namespace

int main() {
  using namespace sentinel;
  const double onset = 2.0 * kSecondsPerDay;

  // Clean run: training data for Warrender.
  bench::ScenarioConfig clean_sc;
  clean_sc.duration_days = 14.0;
  const auto clean = bench::run_scenario({}, clean_sc, nullptr);
  const auto train_seq = observable_sequence(clean.windows);

  baseline::WarrenderDetector warrender(baseline::WarrenderConfig{});
  const auto t0 = std::chrono::steady_clock::now();
  const auto train_stats = warrender.train(train_seq);
  const auto train_ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count();

  baseline::MarkovChainDetector markov((baseline::MarkovDetectorConfig()));
  const auto m0 = std::chrono::steady_clock::now();
  const auto markov_stats = markov.train(train_seq);
  const auto markov_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - m0)
                             .count();

  std::printf("# A5 -- detector comparison\n");
  std::printf("warrender training: %zu Baum-Welch iterations, %.1f ms, eta = %.3f\n",
              train_stats.iterations, train_ms, train_stats.threshold);
  std::printf("markov-chain training: %zu states, %.2f ms, eta = %.3f\n\n",
              markov_stats.states, markov_ms, markov_stats.threshold);
  std::printf("%-14s %-12s %-22s %-22s %-18s\n", "scenario", "detector", "detects?",
              "classification", "notes");

  const bench::InjectionKind scenarios[] = {bench::InjectionKind::kStuckAt,
                                            bench::InjectionKind::kCreation,
                                            bench::InjectionKind::kDeletion};
  for (const auto kind : scenarios) {
    bench::ScenarioConfig sc;
    sc.duration_days = 14.0;
    const auto r = bench::run_scenario({}, sc, bench::make_injection(kind, sc.seed, onset));
    const auto& p = *r.pipeline;

    // Sentinel.
    const auto score = bench::score_report(p.diagnose(), kind);
    std::printf("%-14s %-12s %-22s %-22s %-18s\n", bench::to_string(kind), "sentinel",
                score.detected ? "yes" : "no", core::to_string(score.kind).c_str(),
                "no training phase");

    // Warrender on the attacked observable sequence.
    const auto test_seq = observable_sequence(r.windows);
    const auto flags = warrender.detect(test_seq);
    std::size_t flagged = 0, post = 0;
    for (std::size_t i = 0; i < flags.size(); ++i) {
      if (r.windows[i].window_start < onset) continue;
      ++post;
      flagged += flags[i];
    }
    char wbuf[64];
    std::snprintf(wbuf, sizeof wbuf, "%.0f%% windows flagged",
                  100.0 * static_cast<double>(flagged) / static_cast<double>(post));
    std::printf("%-14s %-12s %-22s %-22s %-18s\n", "", "warrender", wbuf, "(cannot classify)",
                "needs clean train");

    // Markov-chain detector on the same observable sequence.
    const auto mflags = markov.detect(test_seq);
    std::size_t mflagged = 0, mpost = 0;
    for (std::size_t i = 0; i < mflags.size(); ++i) {
      if (r.windows[i].window_start < onset) continue;
      ++mpost;
      mflagged += mflags[i];
    }
    char mcbuf[64];
    std::snprintf(mcbuf, sizeof mcbuf, "%.0f%% windows flagged",
                  100.0 * static_cast<double>(mflagged) / static_cast<double>(mpost));
    std::printf("%-14s %-12s %-22s %-22s %-18s\n", "", "markov", mcbuf, "(cannot classify)",
                "needs clean train");

    // Median detector over the same trace.
    baseline::MedianDetector median_det(baseline::MedianDetectorConfig{});
    for (const auto& w : window_trace(r.sim.trace, r.pipeline_config.window_seconds)) {
      median_det.process(w);
    }
    std::size_t flagged_sensors = 0;
    for (SensorId s = 0; s < 10; ++s) {
      const std::size_t wn = median_det.windows(s);
      if (wn > 0 && static_cast<double>(median_det.flags(s)) / static_cast<double>(wn) > 0.05) {
        ++flagged_sensors;
      }
    }
    char mbuf[64];
    std::snprintf(mbuf, sizeof mbuf, "%zu sensors flagged", flagged_sensors);
    std::printf("%-14s %-12s %-22s %-22s %-18s\n", "", "median", mbuf, "(cannot classify)",
                "no state semantics");
  }
  return 0;
}
