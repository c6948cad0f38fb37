// P1 -- google-benchmark: collector-node pipeline throughput. The paper's
// procedure must run on a base station / cluster head, so per-window cost
// matters; this bench measures it against network size and model-state
// count.
//
// Besides time, the window benches report `allocs_per_window`: heap
// allocations per processed window in steady state, counted by the global
// operator new override below. A warm-up pass over the full trace runs
// before counting, so one-time growth (scratch capacity, matrix capacity,
// state spawns) is excluded and the counter reflects the steady-state loop.
// See docs/PERFORMANCE.md for how to read the numbers.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "common/scenario.h"
#include "metrics_main.h"
#include "trace/windower.h"

namespace {

std::atomic<std::uint64_t> g_alloc_count{0};

}  // namespace

// Count every heap allocation in the process. Deliberately minimal: no
// tracking of frees or sizes -- the bench only needs "how many times did the
// hot loop hit the allocator".
//
// GCC reasons about allocator pairing from the *builtin* semantics of
// operator new and flags the free() in the delete overrides as mismatched;
// with these overrides the pairing is malloc/free by construction, so the
// warning is a false positive here (and would break the -Werror CI job).
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

std::vector<ObservationSet> make_windows(std::size_t sensors, double days,
                                         std::uint64_t seed) {
  sim::GdiEnvironmentConfig ec;
  ec.duration_seconds = days * kSecondsPerDay;
  ec.seed = seed;
  const sim::GdiEnvironment env(ec);
  sim::GdiDeploymentConfig dc;
  dc.num_sensors = sensors;
  dc.seed = seed;
  auto simulator = sim::make_gdi_deployment(env, dc);
  auto result = simulator.run(ec.duration_seconds);
  return window_trace(std::move(result.trace), 3600.0);
}

core::PipelineConfig config_for(std::size_t states, std::uint64_t seed) {
  sim::GdiEnvironmentConfig ec;
  ec.duration_seconds = 7.0 * kSecondsPerDay;
  ec.seed = seed;
  const sim::GdiEnvironment env(ec);
  bench::ScenarioConfig sc;
  sc.initial_states = states;
  sc.seed = seed;
  return bench::make_pipeline_config(env, sc);
}

/// Replay the full window set through `p` once, counting processed windows.
std::size_t replay(core::DetectionPipeline& p, const std::vector<ObservationSet>& windows) {
  for (const auto& w : windows) p.process_window(w);
  return windows.size();
}

void run_window_bench(benchmark::State& state, const core::PipelineConfig& cfg,
                      const std::vector<ObservationSet>& windows) {
  std::uint64_t hot_allocs = 0;
  std::size_t hot_windows = 0;
  for (auto _ : state) {
    core::DetectionPipeline p(cfg);
    // Warm-up pass: spawn states, grow matrices and scratch to steady state.
    replay(p, windows);
    // Counted pass: the same windows again on the now-warm pipeline.
    const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
    hot_windows += replay(p, windows);
    hot_allocs += g_alloc_count.load(std::memory_order_relaxed) - before;
    benchmark::DoNotOptimize(p.windows_processed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * 2 * windows.size()));
  state.counters["allocs_per_window"] = benchmark::Counter(
      hot_windows == 0 ? 0.0
                       : static_cast<double>(hot_allocs) / static_cast<double>(hot_windows));
  // Raw sensor records ingested per second (both the warm-up and counted
  // replay touch every record), the unit fleet capacity planning uses.
  std::size_t records = 0;
  for (const auto& w : windows) records += w.records;
  state.counters["records_per_second"] =
      benchmark::Counter(static_cast<double>(state.iterations() * 2 * records),
                         benchmark::Counter::kIsRate);
}

void BM_PipelineWindow(benchmark::State& state) {
  const auto sensors = static_cast<std::size_t>(state.range(0));
  const auto windows = make_windows(sensors, 7.0, 42);
  const auto cfg = config_for(6, 42);
  run_window_bench(state, cfg, windows);
}

void BM_PipelineWindowNoHistory(benchmark::State& state) {
  const auto sensors = static_cast<std::size_t>(state.range(0));
  const auto windows = make_windows(sensors, 7.0, 42);
  auto cfg = config_for(6, 42);
  cfg.record_history = false;
  run_window_bench(state, cfg, windows);
}

void BM_PipelineWindowStageTimers(benchmark::State& state) {
  // Same workload as BM_PipelineWindow with the per-stage wall-clock
  // histograms enabled: the delta against the plain rows is the full cost of
  // the observability layer when switched on (two clock reads per stage).
  const auto sensors = static_cast<std::size_t>(state.range(0));
  const auto windows = make_windows(sensors, 7.0, 42);
  auto cfg = config_for(6, 42);
  cfg.stage_timers = true;
  run_window_bench(state, cfg, windows);
}

void BM_PipelineStates(benchmark::State& state) {
  const auto states_n = static_cast<std::size_t>(state.range(0));
  const auto windows = make_windows(10, 7.0, 42);
  const auto cfg = config_for(states_n, 42);
  run_window_bench(state, cfg, windows);
}

void BM_Diagnose(benchmark::State& state) {
  const auto windows = make_windows(10, 7.0, 42);
  const auto cfg = config_for(6, 42);
  core::DetectionPipeline p(cfg);
  replay(p, windows);
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.diagnose());
  }
}

void BM_DiagnoseCold(benchmark::State& state) {
  // Re-process one window per iteration so every diagnose() starts with the
  // memoized inputs invalidated -- the uncached cost diagnose_sensors() used
  // to pay per tracked sensor.
  const auto windows = make_windows(10, 7.0, 42);
  const auto cfg = config_for(6, 42);
  core::DetectionPipeline p(cfg);
  replay(p, windows);
  std::size_t i = 0;
  for (auto _ : state) {
    p.process_window(windows[i % windows.size()]);
    ++i;
    benchmark::DoNotOptimize(p.diagnose());
  }
}

}  // namespace

BENCHMARK(BM_PipelineWindow)->Arg(5)->Arg(10)->Arg(20)->Arg(50)->Arg(100);
BENCHMARK(BM_PipelineWindowNoHistory)->Arg(10)->Arg(100);
BENCHMARK(BM_PipelineWindowStageTimers)->Arg(10)->Arg(100);
BENCHMARK(BM_PipelineStates)->Arg(4)->Arg(6)->Arg(8)->Arg(12);
BENCHMARK(BM_Diagnose);
BENCHMARK(BM_DiagnoseCold);

int main(int argc, char** argv) { return sentinel::bench_main::run(argc, argv); }
