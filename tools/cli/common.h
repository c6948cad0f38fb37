// Shared plumbing of the sentinel_cli subcommands: argument parsing, option
// lookup, the metrics-JSON exporter, and the trace-bootstrap helpers the
// batch fleet and the resident service both use (one bootstrap function is
// what keeps `serve` reports byte-identical to `fleet` reports over the same
// traces). Each subcommand lives in its own translation unit under
// tools/cli/; tools/sentinel_cli.cpp is only the dispatch table.

#pragma once

#include <cmath>
#include <cstddef>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/scenario.h"
#include "core/config.h"
#include "core/pipeline.h"
#include "util/metrics.h"

namespace sentinel::cli {

/// Print the usage text; returns the CLI's usage exit code (2).
int usage();

struct Args {
  std::string command;
  std::string path;
  std::string path2;
  std::vector<std::string> paths;  // fleet/stream: one trace per region
  std::map<std::string, std::string> options;
};

std::optional<Args> parse(int argc, char** argv);

/// A bad option value: main prints it and exits with the usage code (2).
struct UsageError : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

/// The value of a floating-point option (a window, a duration, an interval),
/// or `fallback` when it is absent. Throws UsageError naming the flag unless
/// the whole value parses to a finite number.
double opt_double(const Args& a, const std::string& key, double fallback);
std::string opt_str(const Args& a, const std::string& key, const std::string& fallback);

/// The value of an unsigned integer option (a count, a port, a seed), or
/// `fallback` when it is absent. Throws UsageError naming the flag unless
/// the value is a finite integral number in T's range.
template <typename T>
T opt_unsigned(const Args& a, const std::string& key, T fallback) {
  static_assert(std::is_unsigned_v<T>);
  if (a.options.count(key) == 0) return fallback;
  const double v = opt_double(a, key, 0.0);
  // Below 2^digits, so the conversion is exact and defined.
  if (!(v >= 0.0) || v != std::floor(v) ||
      !(v < std::ldexp(1.0, std::numeric_limits<T>::digits))) {
    throw UsageError(key + " wants an integer in [0, " +
                     std::to_string(std::numeric_limits<T>::max()) + "], got '" +
                     a.options.at(key) + "'");
  }
  return static_cast<T>(v);
}

/// Parse --screen-mode into cfg (default off, the historical path). Prints
/// and returns false on an unknown mode.
bool apply_screen_mode(const Args& args, core::PipelineConfig& cfg);

int write_metrics_json(const Args& args, const util::MetricsSnapshot& snap);

std::optional<bench::InjectionKind> kind_by_name(const std::string& name);

/// Bootstrap cfg.initial_states from the first trace in `paths` that parses
/// and yields at least k windows (offline clustering over per-window means,
/// paper section 4.1). Deterministic: Rng(7, "cli-kmeans"), so every caller
/// that bootstraps from the same traces gets the same states. False when no
/// trace is long enough.
bool bootstrap_initial_states(const std::vector<std::string>& paths, core::PipelineConfig& cfg,
                              std::size_t k);

/// One (region name, trace path) pair per input: names derive from the file
/// stem, deduplicated with "#n" suffixes -- the region-naming scheme shared
/// by `fleet` and `stream`.
std::vector<std::pair<std::string, std::string>> region_feeds(
    const std::vector<std::string>& paths);

// One entry point per subcommand (each in its own TU under tools/cli/).
int cmd_scenarios(const Args& args);
int cmd_simulate(const Args& args);
int cmd_inject(const Args& args);
int cmd_health(const Args& args);
int cmd_analyze(const Args& args);
int cmd_fleet(const Args& args);
int cmd_convert(const Args& args);
int cmd_serve(const Args& args);
int cmd_stream(const Args& args);

}  // namespace sentinel::cli
