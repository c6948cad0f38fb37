#include "cli/common.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "core/offline_kmeans.h"
#include "trace/trace_io.h"
#include "trace/windower.h"
#include "util/rng.h"

namespace sentinel::cli {

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  sentinel_cli simulate <out.csv> [--days N] [--seed S] [--scenario KIND]\n"
               "  sentinel_cli analyze <trace.csv> [--window SECONDS] [--states K] [--json] [--auto]\n"
               "               [--checkpoint IN] [--save-checkpoint OUT] [--resume DIR]\n"
               "               [--screen-mode off|screen] [--timers] [--metrics-json PATH]\n"
               "  sentinel_cli fleet <trace1> [<trace2> ...] [--window SECONDS] [--states K]\n"
               "               [--threads N] [--timers] [--metrics-json PATH]\n"
               "               [--resume DIR] [--checkpoint-every N]\n"
               "               [--screen-mode off|screen]\n"
               "  sentinel_cli serve --bootstrap <trace> [--port P] [--port-file PATH]\n"
               "               [--window SECONDS] [--states K] [--threads N]\n"
               "               [--resume DIR] [--checkpoint-dir DIR] [--checkpoint-every N]\n"
               "               [--checkpoint-interval SECONDS] [--screen-mode off|screen]\n"
               "  sentinel_cli stream [<trace1> ...] --port P [--frame-records N]\n"
               "               [--report] [--final] [--shutdown] [--metrics-json PATH]\n"
               "  sentinel_cli inject <in.csv> <out.csv> [--scenario KIND] [--seed S]\n"
               "  sentinel_cli health <trace.csv> [--period SECONDS]\n"
               "  sentinel_cli convert <in> <out> [--to csv|binary]\n"
               "  sentinel_cli scenarios\n");
  return 2;
}

std::optional<Args> parse(int argc, char** argv) {
  if (argc < 2) return std::nullopt;
  Args args;
  args.command = argv[1];
  int i = 2;
  if (args.command == "simulate" || args.command == "analyze" || args.command == "health" ||
      args.command == "inject" || args.command == "convert") {
    if (argc < 3 || argv[2][0] == '-') return std::nullopt;
    args.path = argv[2];
    i = 3;
  }
  if (args.command == "inject" || args.command == "convert") {
    if (argc < 4 || argv[3][0] == '-') return std::nullopt;
    args.path2 = argv[3];
    i = 4;
  }
  if (args.command == "fleet" || args.command == "stream") {
    while (i < argc && argv[i][0] != '-') args.paths.emplace_back(argv[i++]);
    // `stream` without traces runs only its control-plane tail.
    if (args.command == "fleet" && args.paths.empty()) return std::nullopt;
  }
  for (; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0) return std::nullopt;
    if (flag == "--json" || flag == "--auto" || flag == "--timers" || flag == "--report" ||
        flag == "--final" || flag == "--shutdown") {
      args.options[flag] = "1";
      continue;
    }
    if (i + 1 >= argc) return std::nullopt;
    args.options[flag] = argv[++i];
  }
  return args;
}

double opt_double(const Args& a, const std::string& key, double fallback) {
  const auto it = a.options.find(key);
  return it == a.options.end() ? fallback : std::stod(it->second);
}

std::string opt_str(const Args& a, const std::string& key, const std::string& fallback) {
  const auto it = a.options.find(key);
  return it == a.options.end() ? fallback : it->second;
}

void inject_pipeline_counters(util::MetricsSnapshot& snap, const std::string& prefix,
                              const core::PipelineCounters& c) {
  snap.add_counter(prefix + "windows_processed", c.windows_processed);
  snap.add_counter(prefix + "windows_skipped", c.windows_skipped);
  snap.add_counter(prefix + "state_spawns", c.state_spawns);
  snap.add_counter(prefix + "state_merges", c.state_merges);
  snap.add_counter(prefix + "raw_alarms", c.raw_alarms);
  snap.add_counter(prefix + "filtered_alarms", c.filtered_alarms);
  snap.add_counter(prefix + "track_opens", c.track_opens);
  snap.add_counter(prefix + "track_closes", c.track_closes);
  snap.add_counter(prefix + "hmm_updates", c.hmm_updates);
  snap.add_counter(prefix + "late_records", c.late_records);
  snap.add_counter(prefix + "clamped_records", c.clamped_records);
}

bool apply_screen_mode(const Args& args, core::PipelineConfig& cfg) {
  const std::string mode = opt_str(args, "--screen-mode", "off");
  if (!screen::parse_screen_mode(mode.c_str(), cfg.screen.mode)) {
    std::fprintf(stderr, "unknown --screen-mode '%s' (expected off|screen)\n", mode.c_str());
    return false;
  }
  return true;
}

void inject_screen_stats(util::MetricsSnapshot& snap, const std::string& prefix,
                         const screen::ScreenStats& s) {
  snap.add_counter(prefix + "sensors", s.sensors);
  snap.add_counter(prefix + "escalated", s.escalated);
  snap.add_counter(prefix + "escalations", s.escalations);
  snap.add_counter(prefix + "deescalations", s.deescalations);
  snap.add_counter(prefix + "chi2_trips", s.chi2_trips);
  snap.add_counter(prefix + "runs_trips", s.runs_trips);
  snap.add_counter(prefix + "screened_windows", s.screened_windows);
  snap.add_counter(prefix + "escalated_windows", s.escalated_windows);
}

int write_metrics_json(const Args& args, const util::MetricsSnapshot& snap) {
  const std::string path = opt_str(args, "--metrics-json", "");
  if (path.empty()) return 0;
  std::ofstream out(path);
  if (out) out << snap.to_json() << '\n';
  if (!out) {
    std::fprintf(stderr, "cannot write metrics json %s\n", path.c_str());
    return 1;
  }
  std::fprintf(stderr, "metrics written to %s\n", path.c_str());
  return 0;
}

std::optional<bench::InjectionKind> kind_by_name(const std::string& name) {
  for (const auto k : bench::all_injection_kinds()) {
    if (name == bench::to_string(k)) return k;
  }
  return std::nullopt;
}

bool bootstrap_initial_states(const std::vector<std::string>& paths, core::PipelineConfig& cfg,
                              std::size_t k) {
  Rng rng(7, "cli-kmeans");
  for (const auto& path : paths) {
    try {
      const auto read = read_trace_file(path);
      std::vector<AttrVec> history;
      for (const auto& w : window_trace(read.records, cfg.window_seconds)) {
        if (!w.empty()) history.push_back(w.overall_mean());
      }
      if (history.size() < k) continue;
      cfg.initial_states = core::kmeans(history, k, rng).centroids;
      return true;
    } catch (const std::exception&) {
      continue;
    }
  }
  return false;
}

std::vector<std::pair<std::string, std::string>> region_feeds(
    const std::vector<std::string>& paths) {
  std::vector<std::pair<std::string, std::string>> feeds;
  for (const auto& path : paths) {
    const auto slash = path.find_last_of("/\\");
    std::string stem = slash == std::string::npos ? path : path.substr(slash + 1);
    const auto dot = stem.rfind('.');
    if (dot != std::string::npos && dot > 0) stem = stem.substr(0, dot);
    std::string name = stem;
    for (std::size_t n = 2; std::any_of(feeds.begin(), feeds.end(),
                                        [&](const auto& f) { return f.first == name; });
         ++n) {
      name = stem + "#" + std::to_string(n);
    }
    feeds.emplace_back(name, path);
  }
  return feeds;
}

}  // namespace sentinel::cli
