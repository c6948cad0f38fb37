// Shared plumbing of the perfbench driver: run options, the result of a
// workload run, and small statistics/clock helpers.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  // generated inputs, daemon state, span dumps
  std::string cli;       // sentinel_cli binary (serve-open launches it)
  std::string build;     // digest of the perfbench and sentinel_cli binaries
};

/// What a workload run reports: the correctness verdict, the operation
/// tally behind failed_ratio, and metric values by name. Units live in the
/// metric catalog (main.cpp), so a workload only names what it measured;
/// per-layer metrics a workload does not exercise read 0.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> values;

  /// Record a correctness check; a failing one is printed to stderr and
  /// makes the run report correct = false (and exit non-zero).
  void check(bool ok, const std::string& what);
  void set(const std::string& name, double value) { values[name] = value; }
};

Outcome run_fleet_workload(const Options& opt, bool csv);
Outcome run_serve_workload(const Options& opt);

/// Monotonic seconds.
double now_s();

/// Median / linearly interpolated quantile of `v` (0 for an empty sample).
double median(std::vector<double> v);
double quantile(std::vector<double> v, double q);

/// 64-bit FNV-1a, the digest printed for reports.
std::uint64_t fnv1a(std::string_view s);

/// Heap allocations (operator new calls) made by this process so far.
std::uint64_t allocations();

/// CPU seconds (user + system) and peak RSS of this process so far.
struct Usage {
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
};
Usage self_usage();

}  // namespace perfbench
