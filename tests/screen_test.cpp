// Tests: the first-tier screen bank (screen/screen.h) and the screened
// pipeline path.
//
// The tier's contracts, in the order they are exercised here:
//  - escalation policy: unseen sensors start escalated, healthy sensors
//    de-escalate after K clean windows, either screen trips a screened
//    sensor back onto the full path immediately, and a dirty full tier
//    holds an escalated sensor regardless of quiet screens;
//  - batching: observe_block() is bit-identical to n observe() calls;
//  - determinism: decisions are bit-identical across kernel dispatch levels
//    (the bank is handed each level's table directly) and across
//    checkpoint/resume at any window boundary, including mid-escalation;
//  - pipeline integration: screen_mode=off writes checkpoints with no
//    screen section, the windower's precomputed rep_sums/rep_total fast
//    path equals the recompute fallback byte-for-byte, and a screened
//    fleet's report is bit-identical at threads 1 and 4.

#include "screen/screen.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "core/fleet.h"
#include "core/pipeline.h"
#include "core/report.h"
#include "trace/windower.h"
#include "util/kernels.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace sentinel::screen {
namespace {

ScreenConfig test_config() {
  ScreenConfig cfg;
  cfg.mode = ScreenMode::kScreen;
  cfg.window = 8;
  cfg.warmup_windows = 4;
  cfg.deescalate_after = 6;
  return cfg;
}

/// Healthy residual stream: deterministic noise with sign flips, so neither
/// screen trips once the baseline is frozen.
double healthy_residual(std::uint64_t sensor, std::size_t t) {
  Rng rng(sensor * 1000 + t, "screen-test");
  return rng.gaussian(0.0, 0.5);
}

/// Feed `windows` healthy residuals for one sensor, resolving each
/// escalated window with a clean full tier (the de-escalation precondition).
void feed_healthy(ScreenBank& bank, SensorId sensor, std::size_t windows) {
  for (std::size_t t = 0; t < windows; ++t) {
    const ScreenDecision d = bank.observe(sensor, healthy_residual(sensor, t));
    if (d.full_path) bank.resolve(sensor, true);
  }
}

TEST(ScreenMode, ParseRoundTrip) {
  ScreenMode m = ScreenMode::kOff;
  EXPECT_TRUE(parse_screen_mode("off", m));
  EXPECT_EQ(m, ScreenMode::kOff);
  EXPECT_TRUE(parse_screen_mode("screen", m));
  EXPECT_EQ(m, ScreenMode::kScreen);
  EXPECT_FALSE(parse_screen_mode("full", m));
  EXPECT_FALSE(parse_screen_mode("banana", m));
  for (const ScreenMode mode : {ScreenMode::kOff, ScreenMode::kScreen}) {
    ScreenMode back = ScreenMode::kOff;
    ASSERT_TRUE(parse_screen_mode(to_string(mode), back));
    EXPECT_EQ(back, mode);
  }
}

TEST(ScreenBankTest, ConfigValidation) {
  for (auto mutate : std::vector<void (*)(ScreenConfig&)>{
           [](ScreenConfig& c) { c.window = 3; },
           [](ScreenConfig& c) { c.window = 65; },
           [](ScreenConfig& c) { c.warmup_windows = 1; },
           [](ScreenConfig& c) { c.warmup_windows = c.window + 1; },
           [](ScreenConfig& c) { c.deescalate_after = 0; },
           [](ScreenConfig& c) { c.deescalate_after = 70000; },
           [](ScreenConfig& c) { c.min_variance = 0.0; },
       }) {
    ScreenConfig cfg = test_config();
    mutate(cfg);
    EXPECT_THROW(ScreenBank bank(cfg), std::invalid_argument);
  }
}

TEST(ScreenBankTest, UnseenSensorStartsEscalated) {
  ScreenBank bank(test_config());
  EXPECT_TRUE(bank.is_escalated(42));  // never observed
  const ScreenDecision d = bank.observe(7, 0.0);
  EXPECT_TRUE(d.full_path);
  EXPECT_TRUE(bank.is_escalated(7));
  EXPECT_EQ(bank.stats().sensors, 1u);
}

TEST(ScreenBankTest, HealthySensorDeescalatesAfterK) {
  const ScreenConfig cfg = test_config();
  ScreenBank bank(cfg);
  // Warmup + a full statistic window + K clean windows is guaranteed to be
  // enough; the exact edge is pinned by the stats below.
  feed_healthy(bank, 1, cfg.window + cfg.deescalate_after + 4);
  EXPECT_FALSE(bank.is_escalated(1));
  const ScreenStats s = bank.stats();
  EXPECT_EQ(s.deescalations, 1u);
  EXPECT_EQ(s.escalated, 0u);
  EXPECT_GT(s.screened_windows, 0u);
  // Once screened, a healthy window is one residual push: no full path.
  const ScreenDecision d = bank.observe(1, healthy_residual(1, 999));
  EXPECT_FALSE(d.full_path);
}

TEST(ScreenBankTest, StuckResidualTripsRunsMonitor) {
  const ScreenConfig cfg = test_config();
  ScreenBank bank(cfg);
  feed_healthy(bank, 1, cfg.window + cfg.deescalate_after + 4);
  ASSERT_FALSE(bank.is_escalated(1));
  // A stuck-at fault pins the residual to one side of the baseline. The
  // offset is tiny (well under the chi-squared radar at sigma ~0.5) but the
  // sign collapse is exactly what the runs monitor exists to catch.
  ScreenDecision d;
  std::size_t took = 0;
  for (std::size_t t = 0; t < cfg.window && !d.full_path; ++t, ++took) {
    d = bank.observe(1, 0.35);
  }
  EXPECT_TRUE(d.full_path);
  EXPECT_TRUE(d.escalated_edge || bank.is_escalated(1));
  EXPECT_GT(bank.stats().runs_trips, 0u);
  EXPECT_LE(took, cfg.window);  // within one statistic window
}

TEST(ScreenBankTest, LargeResidualTripsChiSquared) {
  const ScreenConfig cfg = test_config();
  ScreenBank bank(cfg);
  feed_healthy(bank, 1, cfg.window + cfg.deescalate_after + 4);
  ASSERT_FALSE(bank.is_escalated(1));
  const ScreenDecision d = bank.observe(1, 50.0);  // ~100 sigma
  EXPECT_TRUE(d.chi2_trip);
  EXPECT_TRUE(d.full_path);
  EXPECT_TRUE(bank.is_escalated(1));
}

TEST(ScreenBankTest, DirtyFullTierHoldsEscalation) {
  const ScreenConfig cfg = test_config();
  ScreenBank bank(cfg);
  // Quiet screens but a dirty full tier (raw alarm / active track): the
  // hysteresis must never see a clean window, so the sensor stays escalated.
  for (std::size_t t = 0; t < cfg.window + 4 * cfg.deescalate_after; ++t) {
    const ScreenDecision d = bank.observe(1, healthy_residual(1, t));
    ASSERT_TRUE(d.full_path);
    bank.resolve(1, /*full_tier_clean=*/false);
  }
  EXPECT_TRUE(bank.is_escalated(1));
  EXPECT_EQ(bank.stats().deescalations, 0u);
}

TEST(ScreenBankTest, ObserveBlockMatchesScalarObserve) {
  const std::size_t kSensors = 37;
  const std::size_t kWindows = 64;
  ScreenBank a(test_config());
  ScreenBank b(test_config());
  std::vector<SensorId> ids(kSensors);
  std::vector<double> resid(kSensors);
  std::vector<ScreenDecision> dec(kSensors);
  for (std::size_t t = 0; t < kWindows; ++t) {
    for (std::size_t s = 0; s < kSensors; ++s) {
      ids[s] = static_cast<SensorId>(s);
      // Mix of healthy, stuck, and wild sensors.
      resid[s] = (s % 7 == 3) ? 0.4 : (s % 11 == 5) ? 30.0 : healthy_residual(s, t);
    }
    a.observe_block(ids.data(), resid.data(), kSensors, dec.data());
    for (std::size_t s = 0; s < kSensors; ++s) {
      const ScreenDecision want = b.observe(ids[s], resid[s]);
      ASSERT_EQ(dec[s].full_path, want.full_path) << "t=" << t << " s=" << s;
      ASSERT_EQ(dec[s].chi2_trip, want.chi2_trip) << "t=" << t << " s=" << s;
      ASSERT_EQ(dec[s].runs_trip, want.runs_trip) << "t=" << t << " s=" << s;
      ASSERT_EQ(dec[s].escalated_edge, want.escalated_edge) << "t=" << t << " s=" << s;
    }
  }
  const ScreenStats sa = a.stats();
  const ScreenStats sb = b.stats();
  EXPECT_EQ(sa.escalations, sb.escalations);
  EXPECT_EQ(sa.chi2_trips, sb.chi2_trips);
  EXPECT_EQ(sa.runs_trips, sb.runs_trips);
  EXPECT_EQ(sa.screened_windows, sb.screened_windows);
  EXPECT_EQ(sa.escalated_windows, sb.escalated_windows);
}

std::string serialized(const ScreenBank& bank) {
  std::ostringstream os;
  serialize::TextWriter w(os);
  bank.save(w);
  return os.str();
}

TEST(ScreenBankTest, DecisionsBitIdenticalAcrossKernelLevels) {
  const std::size_t kSensors = 19;
  const std::size_t kWindows = 96;
  std::vector<kern::Level> levels;
  for (const kern::Level l : {kern::Level::scalar, kern::Level::avx2}) {
    if (kern::level_supported(l)) levels.push_back(l);
  }
  ASSERT_FALSE(levels.empty());

  std::vector<std::string> blobs;
  std::vector<ScreenStats> stats;
  for (const kern::Level level : levels) {
    ScreenBank bank(test_config(), &kern::table(level));
    for (std::size_t t = 0; t < kWindows; ++t) {
      for (std::size_t s = 0; s < kSensors; ++s) {
        const double r = (s % 5 == 2 && t > 40) ? 2.0 : healthy_residual(s, t);
        const ScreenDecision d = bank.observe(static_cast<SensorId>(s), r);
        if (d.full_path) bank.resolve(static_cast<SensorId>(s), t % 3 != 0);
      }
    }
    blobs.push_back(serialized(bank));
    stats.push_back(bank.stats());
  }
  for (std::size_t i = 1; i < levels.size(); ++i) {
    EXPECT_EQ(blobs[i], blobs[0]) << "level " << kern::level_name(levels[i])
                                  << " diverged from " << kern::level_name(levels[0]);
    EXPECT_EQ(stats[i].escalations, stats[0].escalations);
    EXPECT_EQ(stats[i].chi2_trips, stats[0].chi2_trips);
    EXPECT_EQ(stats[i].runs_trips, stats[0].runs_trips);
  }
}

TEST(ScreenBankTest, CheckpointRoundTripMidEscalation) {
  const ScreenConfig cfg = test_config();
  ScreenBank live(cfg);
  // Build a bank with sensors in every phase: warming up, screened,
  // escalated with a partial clean streak, freshly tripped.
  for (std::size_t t = 0; t < 40; ++t) {
    for (SensorId s = 0; s < 8; ++s) {
      const double r = (s == 6 && t > 30) ? 25.0 : healthy_residual(s, t);
      const ScreenDecision d = live.observe(s, r);
      if (d.full_path) live.resolve(s, s != 7);  // sensor 7: dirty full tier
    }
  }
  live.observe(9, 0.1);  // mid-warmup sensor

  ScreenBank restored(cfg);
  {
    std::istringstream is(serialized(live));
    serialize::TextReader r(is);
    restored.load(r);
  }
  // Same bytes back out (runs/np are derived on load, so this also pins the
  // incremental counters against the recount).
  EXPECT_EQ(serialized(restored), serialized(live));

  // And the restored bank continues bit-identically.
  for (std::size_t t = 40; t < 80; ++t) {
    for (SensorId s = 0; s < 10; ++s) {
      const double r = healthy_residual(s, t);
      const ScreenDecision a = live.observe(s, r);
      const ScreenDecision b = restored.observe(s, r);
      ASSERT_EQ(a.full_path, b.full_path) << "t=" << t << " s=" << s;
      ASSERT_EQ(a.chi2_trip, b.chi2_trip) << "t=" << t << " s=" << s;
      ASSERT_EQ(a.runs_trip, b.runs_trip) << "t=" << t << " s=" << s;
      if (a.full_path) {
        live.resolve(s, true);
        restored.resolve(s, true);
      }
    }
  }
  EXPECT_EQ(serialized(restored), serialized(live));
}

// --- Pipeline / fleet integration -----------------------------------------

/// Hand-build a fleet-style window: per-sensor representatives around
/// `center`, with `faulty` pinned to `center + offset`. When `line_rate` is
/// set the screen-tier caches (rep_sums / rep_total) are filled exactly as
/// Windower::finalize_current would.
ObservationSet make_window(std::size_t index, const AttrVec& center, std::size_t sensors,
                           SensorId faulty, double offset, bool line_rate) {
  ObservationSet os;
  os.window_index = index;
  os.window_start = kSecondsPerHour * static_cast<double>(index - 1);
  os.window_end = kSecondsPerHour * static_cast<double>(index);
  AttrVec mean(center.size(), 0.0);
  for (std::size_t s = 0; s < sensors; ++s) {
    Rng rng(index * 131 + s, "screen-window");
    AttrVec p(center.size());
    for (std::size_t a = 0; a < p.size(); ++a) {
      p[a] = center[a] + rng.gaussian(0.0, 0.3) + (s == faulty ? offset : 0.0);
    }
    for (std::size_t a = 0; a < p.size(); ++a) mean[a] += p[a];
    os.rep_sensors.push_back(static_cast<SensorId>(s));
    if (line_rate) {
      os.rep_sums.push_back(vecn::scalar_sum(p));
      if (os.rep_total.empty()) os.rep_total.assign(p.size(), 0.0);
      for (std::size_t a = 0; a < p.size(); ++a) os.rep_total[a] += p[a];
    }
    os.per_sensor.emplace(static_cast<SensorId>(s), p);
    os.rep_points.push_back(std::move(p));
  }
  for (auto& a : mean) a /= static_cast<double>(sensors);
  os.cached_mean = std::move(mean);
  return os;
}

core::PipelineConfig screened_pipeline_config() {
  core::PipelineConfig cfg;
  cfg.window_seconds = kSecondsPerHour;
  cfg.initial_states = {{10.0, 60.0, 30.0}, {30.0, 40.0, 50.0}};
  cfg.screen = test_config();
  return cfg;
}

std::string checkpoint_text(const core::DetectionPipeline& p) {
  std::ostringstream os;
  p.save_checkpoint(os, serialize::Format::kText, core::CheckpointScope::kResumable);
  return os.str();
}

TEST(ScreenPipelineTest, OffModeWritesNoScreenSection) {
  core::PipelineConfig cfg = screened_pipeline_config();
  cfg.screen.mode = ScreenMode::kOff;
  core::DetectionPipeline p(cfg);
  for (std::size_t i = 1; i <= 6; ++i) {
    p.process_window(make_window(i, cfg.initial_states[0], 6, 0, 0.0, true));
  }
  EXPECT_EQ(checkpoint_text(p).find("sentinel-screen"), std::string::npos);
  EXPECT_EQ(p.screens(), nullptr);
  EXPECT_EQ(p.screen_stats().sensors, 0u);
}

TEST(ScreenPipelineTest, RepSumsFastPathMatchesRecomputeFallback) {
  const core::PipelineConfig cfg = screened_pipeline_config();
  core::DetectionPipeline fast(cfg);
  core::DetectionPipeline slow(cfg);
  for (std::size_t i = 1; i <= 48; ++i) {
    // Same window content; `fast` gets the windower's precomputed scalar
    // sums and attr-wise total, `slow` recomputes from the points. The
    // residuals -- and everything downstream, including checkpoint bytes --
    // must match bit-for-bit (scalar_residual is defined as a difference of
    // scalar_sum values to make exactly this true).
    fast.process_window(make_window(i, cfg.initial_states[0], 12, 3, i > 24 ? 9.0 : 0.0, true));
    slow.process_window(make_window(i, cfg.initial_states[0], 12, 3, i > 24 ? 9.0 : 0.0, false));
  }
  EXPECT_EQ(checkpoint_text(fast), checkpoint_text(slow));
  EXPECT_GT(fast.screen_stats().sensors, 0u);
}

TEST(ScreenPipelineTest, ScreenedPipelineCheckpointResumesMidEscalation) {
  const core::PipelineConfig cfg = screened_pipeline_config();
  core::DetectionPipeline live(cfg);
  // Run past warmup, then introduce a fault and checkpoint *while the
  // sensor is escalated but not yet de-escalatable* (mid-escalation).
  for (std::size_t i = 1; i <= 30; ++i) {
    live.process_window(make_window(i, cfg.initial_states[0], 8, 2, i > 26 ? 8.0 : 0.0, true));
  }
  ASSERT_TRUE(live.screens()->is_escalated(2));

  std::istringstream is(checkpoint_text(live));
  core::DetectionPipeline restored(cfg, is);
  EXPECT_EQ(checkpoint_text(restored), checkpoint_text(live));

  for (std::size_t i = 31; i <= 60; ++i) {
    const auto w = make_window(i, cfg.initial_states[0], 8, 2, 0.0, true);
    live.process_window(w);
    restored.process_window(w);
  }
  EXPECT_EQ(checkpoint_text(restored), checkpoint_text(live));
}

TEST(ScreenFleetTest, ScreenedReportIdenticalAtThreads1And4) {
  const auto run = [](std::size_t threads) {
    core::FleetConfig fc;
    fc.threads = threads;
    core::FleetMonitor fleet(fc);
    const std::vector<std::string> names = {"east", "north", "south", "west"};
    core::PipelineConfig cfg = screened_pipeline_config();
    for (const auto& name : names) fleet.add_region(name, cfg);
    for (std::size_t i = 1; i <= 64; ++i) {
      for (std::size_t r = 0; r < names.size(); ++r) {
        // Region "south" develops a stuck sensor mid-run.
        const double off = (r == 2 && i > 40) ? 10.0 : 0.0;
        fleet.add_window(names[r], make_window(i, cfg.initial_states[0], 10, 4, off, true));
      }
    }
    fleet.finish();
    return core::to_string(fleet.diagnose());
  };
  const std::string serial = run(1);
  const std::string parallel = run(4);
  EXPECT_EQ(parallel, serial);
}

}  // namespace
}  // namespace sentinel::screen
