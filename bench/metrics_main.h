// Shared bench main: BENCHMARK_MAIN() plus an observability tail. After the
// benchmarks run, the process-global metrics registry is dumped as a text
// block (so perf logs show queue depths, drops, and stage timers next to the
// timings) and, when `--metrics-json=PATH` was passed, written to PATH as
// JSON for CI artifacts. The flag is stripped before google-benchmark parses
// the remaining arguments.

#pragma once

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "util/kernels.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace sentinel::bench_main {

inline int run(int argc, char** argv) {
  std::string metrics_path;
  std::vector<char*> pass;
  pass.reserve(static_cast<std::size_t>(argc) + 1);
  constexpr std::string_view kFlag = "--metrics-json=";
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind(kFlag, 0) == 0) {
      metrics_path = std::string(arg.substr(kFlag.size()));
      continue;
    }
    pass.push_back(argv[i]);
  }
  pass.push_back(nullptr);  // argv contract: argv[argc] == nullptr
  int pargc = static_cast<int>(pass.size()) - 1;

  benchmark::Initialize(&pargc, pass.data());
  if (benchmark::ReportUnrecognizedArguments(pargc, pass.data())) return 1;
  // Stamp the machine identity into the benchmark context so --benchmark_out
  // JSON (the committed BENCH_*.json baselines) records which machine the
  // numbers came from: tools/bench_compare.py refuses to diff files whose
  // machine.* fields disagree -- a throughput "regression" measured on a
  // different CPU budget or kernel dispatch level is noise, not signal.
  {
    const auto level = sentinel::kern::active_level();
    const std::size_t hw = std::max<std::size_t>(1, std::thread::hardware_concurrency());
    const std::size_t usable = sentinel::util::default_concurrency();
    benchmark::AddCustomContext("machine.hardware_threads", std::to_string(hw));
    benchmark::AddCustomContext("machine.usable_concurrency", std::to_string(usable));
    benchmark::AddCustomContext("machine.kernel_level", sentinel::kern::level_name(level));
    // google-benchmark stamps library_build_type from how LIBBENCHMARK was
    // compiled (distro packages are often debug builds); what gates whether
    // numbers are trustworthy is how THIS binary -- the code under test --
    // was compiled. That goes under a key of its own, and bench_compare.py
    // refuses any JSON whose sentinel.build_type is not "release".
#ifdef NDEBUG
    benchmark::AddCustomContext("sentinel.build_type", "release");
#else
    benchmark::AddCustomContext("sentinel.build_type", "debug");
#endif
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  auto snap = sentinel::util::metrics().snapshot();
  // Machine context: two numbers a benchmark JSON means nothing without --
  // the CPU budget (raw hardware threads vs the cgroup-quota-capped usable
  // concurrency; they differ inside containers) and which kernel dispatch
  // level the host actually selected. bench_compare refuses to diff numbers
  // from mismatched machines using exactly these fields.
  const auto level = sentinel::kern::active_level();
  const std::size_t hw = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t usable = sentinel::util::default_concurrency();
  snap.add_counter("machine.hardware_threads", hw);
  snap.add_counter("machine.usable_concurrency", usable);
  snap.add_counter("machine.kernel_level", static_cast<std::uint64_t>(level));
  std::printf("\n-- machine --\nhardware_threads %zu, usable_concurrency %zu (cgroup quota%s), kernels %s\n",
              hw, usable, usable < hw ? " capped" : " uncapped",
              sentinel::kern::level_name(level));
  if (!snap.counters.empty() || !snap.histograms.empty()) {
    std::printf("\n-- metrics --\n%s", snap.to_text().c_str());
  }
  if (!metrics_path.empty()) {
    std::ofstream out(metrics_path);
    if (out) out << snap.to_json() << '\n';
    if (!out) {
      std::fprintf(stderr, "cannot write metrics json %s\n", metrics_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "metrics written to %s\n", metrics_path.c_str());
  }
  return 0;
}

}  // namespace sentinel::bench_main
