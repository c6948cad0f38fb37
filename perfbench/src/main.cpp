// perfbench: the repository benchmark driver.
//
//   perfbench --workload <fleet-csv-t4|fleet-bin-t1|serve-open> --seed <n>
//             --seconds <s> --trace <0|1> --work <dir> --cli <sentinel_cli>
//
// Generates the workload's inputs from the seed (cached under --work),
// measures for --seconds, checks every diagnosis against its injection, and
// prints as its last stdout line one JSON object: correct, attempted,
// failed, and the end-to-end metrics (--trace 0) or the per-layer ledger
// (--trace 1). Exits non-zero when a check fails, and refuses to measure
// at all in a non-Release build.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <new>
#include <string>
#include <thread>

#include "bench.h"
#include "util/kernels.h"
#include "util/thread_pool.h"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

}  // namespace

// Count every heap allocation in the process, as bench/perf_fleet.cpp does:
// the source of fleet.allocs_per_record.
#if defined(__GNUC__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

void Outcome::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  std::fprintf(stderr, "check failed: %s\n", what.c_str());
}

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t allocations() { return g_allocs.load(std::memory_order_relaxed); }

Usage self_usage() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
  u.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  return u;
}

namespace {

struct CatalogEntry {
  const char* name;
  const char* unit;
};

// Every workload prints every metric of its mode; see perfbench/README.md
// for what each one means on each workload, and for why the ack latencies
// are in the traced ledger rather than end to end.
constexpr CatalogEntry kEndToEnd[] = {
    {"setup_s", "s"},           {"records_per_s", "rec/s"}, {"served_records_per_s", "rec/s"},
    {"cpu_s_per_mrec", "s/Mrec"}, {"peak_rss_mb", "MB"},
};

constexpr CatalogEntry kPerLayer[] = {
    {"ack_p50_ms", "ms"},
    {"ack_p99_ms", "ms"},
    {"trace.read.records", "count"},
    {"trace.read.busy_s", "s"},
    {"trace.read.mb", "MB"},
    {"trace.read.malformed", "count"},
    {"fleet.add_records.calls", "count"},
    {"fleet.add_records.busy_s", "s"},
    {"fleet.drain.wait_s", "s"},
    {"fleet.backpressure.waits", "count"},
    {"fleet.backpressure.block_s", "s"},
    {"fleet.allocs_per_record", "allocs/rec"},
    {"fleet.worker_util", "ratio"},
    {"fleet.finish.busy_s", "s"},
    {"fleet.diagnose.busy_s", "s"},
    {"pipeline.windows", "count"},
    {"pipeline.stage.screen_s", "s"},
    {"pipeline.stage.spawn_s", "s"},
    {"pipeline.stage.identify_s", "s"},
    {"pipeline.stage.alarms_s", "s"},
    {"pipeline.stage.hmm_s", "s"},
    {"pipeline.stage.centroid_s", "s"},
    {"pipeline.other_s", "s"},
    {"pipeline.state_spawns", "count"},
    {"pipeline.track_opens", "count"},
    {"screen.escalated_ratio", "ratio"},
    {"screen.chi2_trips", "count"},
    {"checkpoint.commits", "count"},
    {"checkpoint.bytes", "bytes"},
    {"checkpoint.failures", "count"},
    {"service.send.busy_s", "s"},
    {"service.flush.wait_s", "s"},
    {"service.hello_s", "s"},
    {"service.report_s", "s"},
    {"service.frames", "count"},
    {"service.frames_rejected", "count"},
    {"service.reject_ratio", "ratio"},
    {"service.regions_live", "count"},
    {"service.daemon_sys_s_per_mrec", "s/Mrec"},
    {"gen.idle_s", "s"},
    {"gen_lag_p99_ms", "ms"},
    {"failed_ratio", "ratio"},
    {"ledger.wall_s", "s"},
    {"ledger.unaccounted_s", "s"},
    {"ledger.tracing_overhead", "ratio"},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <fleet-csv-t4|fleet-bin-t1|serve-open>"
               " --seed <n> --seconds <s> --trace <0|1> --work <dir> --cli <sentinel_cli>\n",
               why);
  return 2;
}

/// Names the code under test: a digest of this binary and of sentinel_cli.
/// Runs compare report digests only within one build.
std::string build_id(const std::string& cli) {
  std::string bytes;
  for (const std::string& path : {std::string("/proc/self/exe"), cli}) {
    std::ifstream in(path, std::ios::binary);
    bytes.append(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(fnv1a(bytes)));
  return buf;
}

std::size_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) == 0) return static_cast<std::size_t>(CPU_COUNT(&set));
  return std::thread::hardware_concurrency();
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") opt.workload = value;
    else if (key == "--seed") opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds") opt.seconds = std::atof(value.c_str());
    else if (key == "--trace") opt.trace = value == "1";
    else if (key == "--work") opt.work_dir = value;
    else if (key == "--cli") opt.cli = value;
    else return usage(("unknown option " + key).c_str());
  }
  if (argc % 2 == 0) return usage("options take one value each");
  if (opt.work_dir.empty() || !(opt.seconds > 0.0)) return usage("--work and --seconds > 0 needed");

#ifdef NDEBUG
  const bool release = std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0;
#else
  const bool release = false;
#endif
  if (!release) {
    std::fprintf(stderr, "perfbench: refusing to measure a %s build (Release only)\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  std::printf("# env {\"nproc\": %zu, \"default_concurrency\": %zu, \"kernel_level\": \"%s\", "
              "\"build_type\": \"%s\"}\n",
              usable_cpus(), sentinel::util::default_concurrency(),
              sentinel::kern::level_name(sentinel::kern::active_level()), PERFBENCH_BUILD_TYPE);
  std::fflush(stdout);

  Outcome out;
  try {
    opt.build = build_id(opt.cli);
    std::filesystem::create_directories(opt.work_dir);
    if (opt.workload == "fleet-csv-t4") {
      out = run_fleet_workload(opt, true);
    } else if (opt.workload == "fleet-bin-t1") {
      out = run_fleet_workload(opt, false);
    } else if (opt.workload == "serve-open") {
      out = run_serve_workload(opt);
    } else {
      return usage(("unknown workload '" + opt.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  if (out.attempted == 0) {
    std::fprintf(stderr, "perfbench: nothing was attempted\n");
    return 1;
  }
  out.set("failed_ratio", static_cast<double>(out.failed) / static_cast<double>(out.attempted));
  out.check(out.failed == 0, std::to_string(out.failed) + " operations failed");

  std::string metrics;
  const auto emit = [&](const CatalogEntry& m, double value) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name, value, m.unit);
    metrics += buf;
  };
  if (opt.trace) {
    for (const CatalogEntry& m : kPerLayer) {
      const auto it = out.values.find(m.name);
      emit(m, it == out.values.end() ? 0.0 : it->second);
    }
  } else {
    for (const CatalogEntry& m : kEndToEnd) {
      const auto it = out.values.find(m.name);
      out.check(it != out.values.end() && std::isfinite(it->second) && it->second > 0.0,
                std::string("end-to-end metric ") + m.name + " missing or not positive");
      emit(m, it == out.values.end() ? 0.0 : it->second);
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              out.correct ? "true" : "false", static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), metrics.c_str());
  return out.correct ? 0 : 1;
}
