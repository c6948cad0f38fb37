#include "inputs.h"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/offline_kmeans.h"
#include "faults/attack_models.h"
#include "faults/fault_models.h"
#include "faults/injection_plan.h"
#include "sim/simulator.h"
#include "trace/binary_trace.h"
#include "trace/trace_io.h"
#include "util/rng.h"

namespace perfbench {

namespace fs = std::filesystem;
using namespace sentinel;

namespace {

constexpr const char* kManifestMagic = "perfbench-inputs 1";
constexpr double kInjectionStart = 2.0 * kSecondsPerDay;
/// The paper's attack experiments compromise 0.3 of the network.
constexpr std::size_t kCoalition = 19;  // round(0.3 * kSensors)
constexpr std::size_t kKeepCached = 2;

Injection parse_injection(const std::string& text) {
  for (const Injection k : {Injection::kClean, Injection::kStuckAt, Injection::kAdditive,
                            Injection::kCreation, Injection::kDeletion, Injection::kChange}) {
    if (text == to_string(k)) return k;
  }
  throw std::runtime_error("unknown injection '" + text + "' in input manifest");
}

void add_injection(faults::InjectionPlan& plan, Injection kind) {
  const double fraction = static_cast<double>(kCoalition) / static_cast<double>(kSensors);
  switch (kind) {
    case Injection::kClean:
      return;
    case Injection::kStuckAt:
      plan.add(kErrorVictim, std::make_unique<faults::StuckAtFault>(AttrVec{15.0, 1.0}),
               kInjectionStart);
      return;
    case Injection::kAdditive:
      plan.add(kErrorVictim, std::make_unique<faults::AdditiveFault>(AttrVec{8.0, 5.0}),
               kInjectionStart);
      return;
    case Injection::kCreation:
      for (std::size_t s = kSensors - kCoalition; s < kSensors; ++s) {
        faults::CreationAttackConfig ac;
        ac.victim = faults::StateRegion{{12.0, 94.0}, 6.0};
        ac.created_state = {26.0, 90.0};
        ac.fraction = fraction;
        plan.add(static_cast<SensorId>(s), std::make_unique<faults::DynamicCreationAttack>(ac),
                 kInjectionStart);
      }
      return;
    case Injection::kDeletion:
      for (std::size_t s = kSensors - kCoalition; s < kSensors; ++s) {
        faults::DeletionAttackConfig ac;
        ac.deleted = faults::StateRegion{{31.0, 56.0}, 7.0};
        ac.hold_state = {24.0, 70.0};
        ac.fraction = fraction;
        plan.add(static_cast<SensorId>(s), std::make_unique<faults::DynamicDeletionAttack>(ac),
                 kInjectionStart);
      }
      return;
    case Injection::kChange:
      for (std::size_t s = kSensors - kCoalition; s < kSensors; ++s) {
        faults::ChangeAttackConfig ac;
        ac.victim = faults::StateRegion{{12.0, 94.0}, 8.0};
        ac.observed_as = {18.0, 60.0};
        ac.fraction = fraction;
        plan.add(static_cast<SensorId>(s), std::make_unique<faults::DynamicChangeAttack>(ac),
                 kInjectionStart);
      }
      return;
  }
}

/// One deployment's delivered trace: the shared environment, this trace's
/// own noise/loss seed, and its injection plan.
std::vector<SensorRecord> simulate(const sim::GdiEnvironment& env, double seconds,
                                   std::uint64_t deployment_seed, Injection kind) {
  sim::GdiDeploymentConfig dc;
  dc.num_sensors = kSensors;
  dc.seed = deployment_seed;
  sim::Simulator simulator = sim::make_gdi_deployment(env, dc);
  auto plan = std::make_shared<faults::InjectionPlan>();
  add_injection(*plan, kind);
  simulator.set_transform(faults::make_transform(plan));
  return simulator.run(seconds).trace;
}

/// Run fn(0..n-1) on four threads; traces are independent, so generation
/// order does not change any file.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  std::vector<std::thread> workers;
  std::vector<std::exception_ptr> errors(4);
  for (std::size_t w = 0; w < errors.size(); ++w) {
    workers.emplace_back([&, w] {
      try {
        for (std::size_t i = w; i < n; i += errors.size()) fn(i);
      } catch (...) {
        errors[w] = std::current_exception();
      }
    });
  }
  for (auto& t : workers) t.join();
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

void write_manifest(const TraceSet& set) {
  std::ofstream out(fs::path(set.dir) / "manifest");
  out.precision(17);
  out << kManifestMagic << '\n';
  for (const AttrVec& s : set.initial_states) {
    out << "state";
    for (const double x : s) out << ' ' << x;
    out << '\n';
  }
  for (const auto& e : set.entries) {
    out << "trace " << e.name << ' ' << to_string(e.injection) << ' ' << e.records << '\n';
  }
  if (!out) throw std::runtime_error("cannot write input manifest in " + set.dir);
}

TraceSet read_manifest(const std::string& dir) {
  std::ifstream in(fs::path(dir) / "manifest");
  std::string line;
  if (!std::getline(in, line) || line != kManifestMagic) {
    throw std::runtime_error("missing or stale input manifest in " + dir);
  }
  TraceSet set;
  set.dir = dir;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string kind;
    ls >> kind;
    if (kind == "state") {
      AttrVec s;
      for (double x; ls >> x;) s.push_back(x);
      set.initial_states.push_back(std::move(s));
    } else if (kind == "trace") {
      TraceSet::Entry e;
      std::string injection;
      ls >> e.name >> injection >> e.records;
      e.injection = parse_injection(injection);
      set.entries.push_back(std::move(e));
    }
  }
  return set;
}

/// Keep the newest kKeepCached entries named `<kind>-*` besides `keep`.
void evict(const fs::path& root, const std::string& kind, const fs::path& keep) {
  std::vector<std::pair<fs::file_time_type, fs::path>> cached;
  for (const auto& d : fs::directory_iterator(root)) {
    const std::string name = d.path().filename().string();
    if (d.path() != keep && name.rfind(kind + "-", 0) == 0) {
      cached.emplace_back(fs::last_write_time(d.path()), d.path());
    }
  }
  std::sort(cached.rbegin(), cached.rend());
  for (std::size_t i = kKeepCached - 1; i < cached.size(); ++i) fs::remove_all(cached[i].second);
}

/// Return the cached set at `<work>/inputs/<key>`, generating it first in a
/// forked child when missing. The child owns every simulator allocation, so
/// the measuring process's peak RSS never includes input generation.
TraceSet cached(const std::string& work_dir, const std::string& kind, const std::string& key,
                const std::function<void(TraceSet&)>& generate) {
  const fs::path root = fs::path(work_dir) / "inputs";
  const fs::path dir = root / (kind + "-" + key);
  if (fs::exists(dir / "manifest")) return read_manifest(dir.string());

  fs::create_directories(root);
  evict(root, kind, dir);
  const fs::path tmp = root / (".tmp-" + kind + "-" + key);
  fs::remove_all(tmp);
  fs::create_directories(tmp);
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed for input generation");
  if (pid == 0) {
    int rc = 0;
    try {
      TraceSet set;
      set.dir = tmp.string();
      generate(set);
      write_manifest(set);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "input generation failed: %s\n", e.what());
      rc = 1;
    }
    std::fflush(nullptr);
    ::_exit(rc);
  }
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    fs::remove_all(tmp);
    throw std::runtime_error("input generation for " + dir.string() + " failed");
  }
  fs::rename(tmp, dir);
  return read_manifest(dir.string());
}

}  // namespace

const char* to_string(Injection kind) {
  switch (kind) {
    case Injection::kClean: return "clean";
    case Injection::kStuckAt: return "stuck-at";
    case Injection::kAdditive: return "additive";
    case Injection::kCreation: return "creation";
    case Injection::kDeletion: return "deletion";
    case Injection::kChange: return "change";
  }
  return "?";
}

bool verdict_matches(const core::DiagnosisReport& report, Injection injected) {
  switch (injected) {
    case Injection::kCreation:
    case Injection::kDeletion:
    case Injection::kChange:
      return report.network.verdict == core::Verdict::kAttack;
    case Injection::kStuckAt:
    case Injection::kAdditive: {
      const auto it = report.sensors.find(kErrorVictim);
      return it != report.sensors.end() && it->second.verdict == core::Verdict::kError;
    }
    case Injection::kClean:
      break;
  }
  // Not every sensor verdict: over a 31-day month of 64 sensors a clean
  // region now and then carries one spurious sensor-level error track
  // (2 of 12 clean regions for one seed in ~20).
  return report.network.verdict == core::Verdict::kNormal;
}

std::string TraceSet::path(std::size_t i, std::string_view ext) const {
  return (fs::path(dir) / (entries[i].name + "." + std::string(ext))).string();
}

std::size_t TraceSet::total_records() const {
  std::size_t n = 0;
  for (const auto& e : entries) n += e.records;
  return n;
}

TraceSet fleet_inputs(const std::string& work_dir, std::uint64_t seed) {
  constexpr std::size_t kRegions = 16;
  constexpr double kDays = 31.0;  // the paper's month
  const std::string key = std::to_string(seed) + "-16x64x31d";
  return cached(work_dir, "fleet", key, [&](TraceSet& set) {
    sim::GdiEnvironmentConfig ec;
    ec.duration_seconds = kDays * kSecondsPerDay;
    ec.seed = Rng::derive(seed, "environment");
    const sim::GdiEnvironment env(ec);

    std::vector<AttrVec> truth;
    for (double t = 0.0; t < ec.duration_seconds; t += 30.0 * kSecondsPerMinute) {
      truth.push_back(env.truth(t));
    }
    Rng rng(seed, "offline-kmeans");
    set.initial_states = core::kmeans(truth, 6, rng).centroids;

    for (std::size_t r = 0; r < kRegions; ++r) {
      TraceSet::Entry e;
      char name[8];
      std::snprintf(name, sizeof name, "r%02zu", r);
      e.name = name;
      switch (r) {
        case 3: e.injection = Injection::kStuckAt; break;
        case 6: e.injection = Injection::kAdditive; break;
        case 9: e.injection = Injection::kCreation; break;
        case 12: e.injection = Injection::kDeletion; break;
        default: break;
      }
      set.entries.push_back(e);
    }
    parallel_for(kRegions, [&](std::size_t i) {
      auto& e = set.entries[i];
      const auto trace =
          simulate(env, ec.duration_seconds, Rng::derive(seed, "region-" + e.name), e.injection);
      write_trace_file(set.path(i, "csv"), trace);
      // The binary copy is decoded from the CSV (6-digit attributes), so
      // both formats feed the fleet identical records.
      const auto parsed = read_trace_file(set.path(i, "csv"), 2);
      write_trace_binary_file(set.path(i, "sntrb1"), parsed.records);
      e.records = parsed.records.size();
    });
  });
}

void check_digest(const TraceSet& set, const std::string& build, const std::string& workload,
                  std::uint64_t digest, Outcome& out) {
  const std::string prefix = "digest." + build + ".";
  for (const auto& f : fs::directory_iterator(set.dir)) {
    const std::string name = f.path().filename().string();
    if (name.rfind(prefix, 0) != 0) continue;
    std::uint64_t theirs = 0;
    if (std::ifstream(f.path()) >> theirs) {
      out.check(theirs == digest, workload + " report digest differs from " + name);
    }
  }
  std::ofstream(fs::path(set.dir) / (prefix + workload)) << digest << '\n';
}

TraceSet tenant_pool(const std::string& work_dir, std::uint64_t seed) {
  constexpr double kDays = 7.0;
  constexpr std::size_t kTraces = 16;
  const std::string key = std::to_string(seed) + "-16x64x7d";
  return cached(work_dir, "tenants", key, [&](TraceSet& set) {
    sim::GdiEnvironmentConfig ec;
    ec.duration_seconds = kDays * kSecondsPerDay;
    ec.seed = Rng::derive(seed, "environment");
    const sim::GdiEnvironment env(ec);
    // Tenants take pool traces in turn, alternating generator threads, so
    // this order gives each thread clean and injected tenants alike. Change
    // rather than creation: over 7 days the creation attack's victim state
    // is not always visited often enough to be diagnosed.
    const Injection kinds[] = {Injection::kClean, Injection::kStuckAt,  Injection::kChange,
                               Injection::kClean, Injection::kClean,    Injection::kAdditive,
                               Injection::kDeletion, Injection::kClean};
    for (std::size_t i = 0; i < kTraces; ++i) {
      TraceSet::Entry e;
      e.name = "tenant" + std::to_string(i);
      e.injection = kinds[i % std::size(kinds)];
      set.entries.push_back(e);
    }
    parallel_for(kTraces, [&](std::size_t i) {
      auto& e = set.entries[i];
      const auto trace =
          simulate(env, ec.duration_seconds, Rng::derive(seed, "tenant-" + e.name), e.injection);
      e.records = trace.size();
      write_trace_binary_file(set.path(i, "sntrb1"), trace);
    });
  });
}

}  // namespace perfbench
