// P4 -- google-benchmark: screen-tier throughput. The tiered-detection
// claim is O(suspicious), not O(sensors): with screening on, a healthy
// sensor's per-window cost is one scalar residual push, and only escalated
// sensors take the model-state mapping + alarm-filter + HMM stages. This
// bench sweeps the suspicious fraction over an 8-region fleet of
// pre-aggregated (window-granular) feeds -- the cluster-head regime the
// tier is sized for -- and reports end-to-end fleet windows/s for
// screen_mode off vs screen at each fraction. The off rows are the cost the
// full path pays regardless of health; the screen rows should approach the
// fixed per-window cost as the suspicious fraction drops.
//
// Environment model: kRegimes resident regime states (the paper's M ~ 6,
// scaled up for a cluster head), cycled every
// kRegimePeriod windows, all seeded as initial states. Every healthy sensor
// tracks the active regime, so a regime switch moves sensor and window mean
// together and the scalar residual -- the screen's whole view -- is
// unchanged: screened sensors stay screened across switches. The full path,
// meanwhile, pays a distance scan over every resident state per sensor per
// window, which is exactly the cost the screens exist to gate.
//
// Fault model: a suspicious sensor carries a +/-12-per-attribute offset (a
// miscalibrated or steered bloc) in recurring episodes -- kEpisodeOn windows
// on, then off for the rest of kEpisodePeriod. The offsets are balanced
// (half the bloc +12, half -12), so the window mean -- and with it every
// healthy sensor's residual -- is unmoved by an episode boundary: healthy
// screens stay quiet. The faulty sensors themselves sit past the spawn
// threshold during episodes, spawn shadow states, and raw-alarm against the
// majority; between episodes their screens trip instead (the residual
// falls away from the contaminated baseline). Either way the hysteresis
// never sees deescalate_after consecutive clean windows, so the escalated
// set tracks the injected fraction -- while tracks close between episodes,
// keeping the per-sensor HMM cost (paid identically by both modes)
// proportional to the fault duty cycle rather than saturated.

// Besides time, the benches report `allocs_per_window`: heap allocations per
// window fed during the timed span, counted by the global operator new
// override below (the same accounting perf_pipeline uses). The warm-up
// windows run before counting, so one-time growth (state spawns, slab
// capacity, scratch vectors) is excluded. BM_ScreenedSteadyWindows pins the
// strongest claim: with a persistent fault bloc and a single regime --
// no track churn, no state spawns, no repacks after warm-up -- the
// per-sensor alarm/track loop must be allocation-free at steady state (0
// allocs/window).

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "common/scenario.h"
#include "core/fleet.h"
#include "metrics_main.h"
#include "screen/screen.h"
#include "trace/windower.h"
#include "util/rng.h"

namespace {

std::atomic<std::uint64_t> g_alloc_count{0};

}  // namespace

// Count every heap allocation in the process (see perf_pipeline.cpp for the
// rationale and the -Wmismatched-new-delete note).
#if defined(__GNUC__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace sentinel;

constexpr std::size_t kRegions = 8;
constexpr std::size_t kSensors = 1024;     // per region (cluster-head scale)
constexpr std::size_t kWindows = 256;      // per region
constexpr std::size_t kAttrs = 8;
constexpr std::size_t kRegimes = 8;        // resident environment states
constexpr std::size_t kRegimePeriod = 64;  // windows between regime switches
constexpr std::size_t kWarmWindows = 64;   // untimed: screens warm up + hysteresis settles
constexpr double kFaultOffset = 12.0;      // per-attr suspicious-sensor offset
constexpr std::size_t kEpisodeOn = 6;      // fault-episode length, windows
constexpr std::size_t kEpisodePeriod = 28; // episode period; the 22-window gap
                                           // stays under deescalate_after (24)
constexpr double kWindowSeconds = kSecondsPerHour;

/// One region's pre-aggregated feed: kWindows hand-built ObservationSets
/// with rep arrays and cached means filled, exactly what a cluster head
/// that windows locally would upload (and what FleetMonitor::add_window
/// ingests without copies).
struct RegionFeed {
  std::vector<ObservationSet> windows;
};

struct ScreenWorkload {
  std::vector<RegionFeed> regions;          // one per region, per fraction
  core::PipelineConfig pipeline_config;     // screen.mode patched per run
};

/// Centroid of regime k: the base point plus k alternating-sign steps, so
/// adjacent regimes sit 16 apart in L2 (no merging at threshold 6, no
/// cross-mapping at spawn threshold 9).
AttrVec regime_centroid(std::size_t k) {
  const AttrVec base = {50.0, 25.0, 40.0, 60.0, 30.0, 45.0, 55.0, 35.0};
  const AttrVec swing = {8.0, -8.0, 8.0, -8.0, 8.0, -8.0, 8.0, -8.0};
  AttrVec c(kAttrs);
  for (std::size_t a = 0; a < kAttrs; ++a) {
    c[a] = base[a] + static_cast<double>(k) * swing[a];
  }
  return c;
}

/// Build the workload for one suspicious fraction (percent). Suspicious
/// sensors are the lowest ids; each tracks the active regime plus a
/// constant kFaultOffset per attribute (L2 distance 24 from its regime:
/// past the spawn threshold, so the fault bloc gets its own shadow state
/// and raw-alarms against the healthy majority every window).
ScreenWorkload make_workload(std::size_t suspicious_pct) {
  ScreenWorkload w;

  core::PipelineConfig pc;
  pc.window_seconds = kWindowSeconds;
  for (std::size_t k = 0; k < kRegimes; ++k) pc.initial_states.push_back(regime_centroid(k));
  pc.model_states.max_states = 24;  // regimes + shadow states for fault blocs
  pc.screen.chi2_threshold = 3.5;   // trade detection margin for fewer false
  pc.screen.runs_z_threshold = 3.5; // escalations (see docs/PERFORMANCE.md)
  w.pipeline_config = pc;

  const std::size_t suspicious = kSensors * suspicious_pct / 100;
  for (std::size_t r = 0; r < kRegions; ++r) {
    RegionFeed feed;
    feed.windows.reserve(kWindows);
    Rng rng(9000 + r, "perf-screen");
    for (std::size_t i = 1; i <= kWindows; ++i) {
      const AttrVec regime = regime_centroid(((i - 1) / kRegimePeriod) % kRegimes);
      std::vector<SensorId> ids;
      std::vector<AttrVec> points;
      ids.reserve(kSensors);
      points.reserve(kSensors);
      // Build the points in their own pass so the per-point heap blocks land
      // back-to-back (the hot loops walk them sequentially every window;
      // interleaving them with other allocations would hand both modes a
      // cache miss per point and drown the compute being compared).
      const bool episode_on = ((i - 1) % kEpisodePeriod) < kEpisodeOn;
      for (std::size_t s = 0; s < kSensors; ++s) {
        double fault = 0.0;
        if (episode_on && s < suspicious) {
          fault = (s % 2 == 0) ? kFaultOffset : -kFaultOffset;
        }
        AttrVec p(kAttrs);
        for (std::size_t a = 0; a < kAttrs; ++a) {
          p[a] = regime[a] + rng.gaussian(0.0, 0.4) + fault;
        }
        ids.push_back(static_cast<SensorId>(s));
        points.push_back(std::move(p));
      }
      // The head uploads representatives plus the cached mean, not raw
      // samples.
      feed.windows.push_back(
          bench::make_window(i, kWindowSeconds, std::move(ids), std::move(points)));
    }
    w.regions.push_back(std::move(feed));
  }
  return w;
}

const ScreenWorkload& workload(std::size_t suspicious_pct) {
  // Single-entry cache: one fraction's feed is ~hundreds of MB at cluster-
  // head scale, so keep only the fraction being measured (off and screen
  // rows for the same fraction run back-to-back and share it).
  static std::size_t cached_pct = static_cast<std::size_t>(-1);
  static ScreenWorkload cache;
  if (cached_pct != suspicious_pct) {
    cache = make_workload(suspicious_pct);
    cached_pct = suspicious_pct;
  }
  return cache;
}

void BM_ScreenedFleetWindows(benchmark::State& state) {
  const auto suspicious_pct = static_cast<std::size_t>(state.range(0));
  const auto mode =
      state.range(1) == 0 ? screen::ScreenMode::kOff : screen::ScreenMode::kScreen;
  const ScreenWorkload& w = workload(suspicious_pct);

  std::vector<std::string> names;
  for (std::size_t r = 0; r < kRegions; ++r) names.push_back("region-" + std::to_string(r));

  std::size_t escalated = 0;
  std::uint64_t hot_allocs = 0;
  std::uint64_t hot_windows = 0;
  for (auto _ : state) {
    state.PauseTiming();
    core::FleetConfig fc;
    fc.threads = 1;
    core::FleetMonitor fleet(fc);
    core::PipelineConfig pc = w.pipeline_config;
    pc.screen.mode = mode;
    for (std::size_t r = 0; r < kRegions; ++r) fleet.add_region(names[r], pc);
    // Warm untimed: every sensor starts escalated by design (the full path
    // owns a sensor until its screens have a baseline), so the opening
    // windows measure the transient, not the tier. Feed enough windows for
    // baselines to freeze and the de-escalation hysteresis to settle, then
    // time the steady state the fleet actually runs in.
    for (std::size_t i = 0; i < kWarmWindows; ++i) {
      for (std::size_t r = 0; r < kRegions; ++r) {
        fleet.add_window(names[r], w.regions[r].windows[i]);
      }
    }
    state.ResumeTiming();
    // Round-robin the window uploads across regions, one window per region
    // per turn -- the arrival order of a fleet of synchronized cluster heads.
    const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
    for (std::size_t i = kWarmWindows; i < kWindows; ++i) {
      for (std::size_t r = 0; r < kRegions; ++r) {
        fleet.add_window(names[r], w.regions[r].windows[i]);
      }
    }
    hot_allocs += g_alloc_count.load(std::memory_order_relaxed) - before;
    hot_windows += kRegions * (kWindows - kWarmWindows);
    fleet.finish();
    const auto report = fleet.diagnose();
    benchmark::DoNotOptimize(report.overall);
    escalated = 0;
    for (const auto& [name, s] : report.screens) escalated += s.escalated;
  }
  state.counters["escalated"] = static_cast<double>(escalated);
  state.counters["allocs_per_window"] = benchmark::Counter(
      hot_windows == 0 ? 0.0
                       : static_cast<double>(hot_allocs) / static_cast<double>(hot_windows));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kRegions *
                                                    (kWindows - kWarmWindows)));
}

/// Steady-state variant: ONE resident regime and a persistent fault bloc.
/// After warm-up the tier reaches a fixed point -- the fault bloc's tracks
/// stay open (no churn), the regime never switches (no spawns, no screen
/// trips from healthy sensors), and the slab stops repacking -- so the
/// timed span isolates the per-sensor alarm/track loop. Its
/// allocs_per_window counter is the bench-enforced claim that the loop does
/// not touch the allocator at steady state.
ScreenWorkload make_steady_workload(std::size_t suspicious_pct) {
  ScreenWorkload w;

  core::PipelineConfig pc;
  pc.window_seconds = kWindowSeconds;
  pc.initial_states.push_back(regime_centroid(0));
  pc.model_states.max_states = 24;
  pc.screen.chi2_threshold = 3.5;
  pc.screen.runs_z_threshold = 3.5;
  w.pipeline_config = pc;

  const std::size_t suspicious = kSensors * suspicious_pct / 100;
  const AttrVec regime = regime_centroid(0);
  for (std::size_t r = 0; r < kRegions; ++r) {
    RegionFeed feed;
    feed.windows.reserve(kWindows);
    Rng rng(9600 + r, "perf-screen-steady");
    for (std::size_t i = 1; i <= kWindows; ++i) {
      std::vector<SensorId> ids;
      std::vector<AttrVec> points;
      ids.reserve(kSensors);
      points.reserve(kSensors);
      for (std::size_t s = 0; s < kSensors; ++s) {
        // Persistent, mean-balanced fault: the bloc raw-alarms every window,
        // so its tracks open once and never close.
        const double fault =
            s < suspicious ? ((s % 2 == 0) ? kFaultOffset : -kFaultOffset) : 0.0;
        AttrVec p(kAttrs);
        for (std::size_t a = 0; a < kAttrs; ++a) {
          p[a] = regime[a] + rng.gaussian(0.0, 0.4) + fault;
        }
        ids.push_back(static_cast<SensorId>(s));
        points.push_back(std::move(p));
      }
      feed.windows.push_back(
          bench::make_window(i, kWindowSeconds, std::move(ids), std::move(points)));
    }
    w.regions.push_back(std::move(feed));
  }
  return w;
}

void BM_ScreenedSteadyWindows(benchmark::State& state) {
  const auto suspicious_pct = static_cast<std::size_t>(state.range(0));
  const auto mode =
      state.range(1) == 0 ? screen::ScreenMode::kOff : screen::ScreenMode::kScreen;
  // Own cache (same single-entry policy as workload()): the steady feed and
  // the episodic feed never share a fraction's buffers.
  static std::size_t cached_pct = static_cast<std::size_t>(-1);
  static ScreenWorkload cache;
  if (cached_pct != suspicious_pct) {
    cache = make_steady_workload(suspicious_pct);
    cached_pct = suspicious_pct;
  }
  const ScreenWorkload& w = cache;

  std::vector<std::string> names;
  for (std::size_t r = 0; r < kRegions; ++r) names.push_back("region-" + std::to_string(r));

  std::uint64_t hot_allocs = 0;
  std::uint64_t hot_windows = 0;
  for (auto _ : state) {
    state.PauseTiming();
    core::FleetConfig fc;
    fc.threads = 1;
    auto fleet = std::make_unique<core::FleetMonitor>(fc);
    core::PipelineConfig pc = w.pipeline_config;
    pc.screen.mode = mode;
    for (std::size_t r = 0; r < kRegions; ++r) fleet->add_region(names[r], pc);
    for (std::size_t i = 0; i < kWarmWindows; ++i) {
      for (std::size_t r = 0; r < kRegions; ++r) {
        fleet->add_window(names[r], w.regions[r].windows[i]);
      }
    }
    state.ResumeTiming();
    const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
    for (std::size_t i = kWarmWindows; i < kWindows; ++i) {
      for (std::size_t r = 0; r < kRegions; ++r) {
        fleet->add_window(names[r], w.regions[r].windows[i]);
      }
    }
    hot_allocs += g_alloc_count.load(std::memory_order_relaxed) - before;
    hot_windows += kRegions * (kWindows - kWarmWindows);
    state.PauseTiming();
    benchmark::DoNotOptimize(fleet->diagnose().overall);
    fleet.reset();
    state.ResumeTiming();
  }
  state.counters["allocs_per_window"] = benchmark::Counter(
      hot_windows == 0 ? 0.0
                       : static_cast<double>(hot_allocs) / static_cast<double>(hot_windows));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kRegions *
                                                    (kWindows - kWarmWindows)));
}

}  // namespace

BENCHMARK(BM_ScreenedFleetWindows)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({5, 0})
    ->Args({5, 1})
    ->Args({10, 0})
    ->Args({10, 1})
    ->Args({25, 0})
    ->Args({25, 1})
    ->Args({100, 0})
    ->Args({100, 1})
    ->ArgNames({"suspicious_pct", "screen"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

BENCHMARK(BM_ScreenedSteadyWindows)
    ->Args({10, 0})
    ->Args({10, 1})
    ->ArgNames({"suspicious_pct", "screen"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

int main(int argc, char** argv) { return sentinel::bench_main::run(argc, argv); }
