// Chaos orchestrator for the crash-consistent checkpoint store.
//
// Generates a deterministic two-region workload, then for every registered
// fault point (util/fault_test.h): forks a child, arms the point, lets the
// child pull the plug mid-run (std::_Exit -- no destructors, no flush),
// recovers a fresh fleet from the surviving store, replays each trace tail,
// and compares the recovered FleetReport byte-for-byte against an
// uninterrupted baseline. Exit status is nonzero when any cell of the
// matrix mismatches -- the CI chaos job's pass/fail signal.
//
//   chaos_runner [--list] [--dir=<root>] [--points=a,b,c] [--threads=1,4]
//                [--every=<records>] [--nth=1] [--keep] [--serve]
//
// --serve switches to the resident-service drill (docs/SERVICE.md): fork an
// in-process `service::Server` child with checkpointing, stream the workload
// to it over SNTRS1 connections, SIGKILL the daemon mid-stream, restart it
// with resume, stream the remainder from the offsets HELLO reports, and
// compare the final fleet report byte-for-byte against an uninterrupted
// batch baseline. SIGKILL needs no compiled-in fault points, so --serve
// works in any build, Release included.
//
// The same proof runs as a gtest (tests/crash_recovery_test.cpp); this tool
// exists for CI wiring, manual poking at single points, and for running the
// matrix against configurations the test suite does not pin (thread counts,
// commit intervals). See docs/RELIABILITY.md.

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "core/checkpoint_store.h"
#include "core/fleet.h"
#include "service/client.h"
#include "service/server.h"
#include "sim/simulator.h"
#include "trace/binary_trace.h"
#include "trace/trace_reader.h"
#include "util/fault_test.h"

namespace {

using namespace sentinel;
namespace fault = util::fault;

constexpr std::size_t kIngestBatch = 512;

class TwoPhaseEnvironment final : public sim::Environment {
 public:
  std::size_t dims() const override { return 2; }
  AttrVec truth(double t) const override {
    const auto phase = static_cast<long>(t / (3.0 * kSecondsPerHour));
    return (phase % 2 == 0) ? AttrVec{10.0, 60.0} : AttrVec{30.0, 40.0};
  }
};

core::PipelineConfig region_config() {
  core::PipelineConfig cfg;
  cfg.window_seconds = kSecondsPerHour;
  cfg.initial_states = {{10.0, 60.0}, {30.0, 40.0}};
  return cfg;
}

struct Options {
  std::string root;
  std::vector<std::string> points{fault::kCatalog, fault::kCatalog + std::size(fault::kCatalog)};
  std::vector<std::size_t> threads{1, 4};
  std::size_t every = 1500;
  std::uint64_t nth = 1;
  bool keep = false;
  bool serve = false;
};

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t end = s.find(sep, start);
    if (end == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

struct Workload {
  std::vector<std::string> regions{"north", "south"};
  std::map<std::string, std::string> trace_path;
};

Workload make_workload(const std::string& root) {
  Workload w;
  std::uint64_t seed = 1;
  for (const auto& r : w.regions) {
    TwoPhaseEnvironment env;
    sim::Simulator s(env);
    for (std::size_t i = 0; i < 6; ++i) {
      sim::MoteConfig mc;
      mc.id = static_cast<SensorId>(i);
      mc.noise_sigma = 0.3;
      mc.seed = seed;
      s.add_mote(mc);
    }
    const std::string path = root + "/" + r + ".snt";
    write_trace_binary_file(path, s.run(2.0 * kSecondsPerDay).trace);
    w.trace_path[r] = path;
    ++seed;
  }
  return w;
}

/// Run the fleet over the workload. Empty `store_dir` = no checkpointing
/// (the baseline); `skip` = per-region resume offsets.
std::string run_fleet(const Workload& w, std::size_t threads, const std::string& store_dir,
                      std::size_t every,
                      const std::map<std::string, std::uint64_t>* skip = nullptr) {
  core::FleetConfig fc;
  fc.threads = threads;
  fc.checkpoint_dir = store_dir;
  fc.checkpoint_every_records = every;
  core::FleetMonitor fleet(fc);
  for (const auto& r : w.regions) {
    std::uint64_t offset = 0;
    if (skip != nullptr) {
      const auto resumed = fleet.add_region_resumed(r, region_config());
      if (!resumed.is_ok()) {
        throw std::runtime_error("region " + r + ": " + resumed.status().to_string());
      }
      offset = resumed.value();
    } else {
      fleet.add_region(r, region_config());
    }
    const auto reader = open_trace_reader(w.trace_path.at(r));
    fleet.ingest(r, *reader, kIngestBatch, offset);
  }
  fleet.finish();
  return to_string(fleet.diagnose());
}

/// One matrix cell: kill at `point` (hit `nth`), recover, compare.
bool run_cell(const Workload& w, const Options& opt, const std::string& point,
              std::size_t threads, const std::string& baseline) {
  const std::string dir = opt.root + "/pt_" + core::CheckpointStore::sanitize(point) + "_t" +
                          std::to_string(threads);
  std::filesystem::remove_all(dir);

  const pid_t pid = fork();
  if (pid == 0) {
    fault::Config fc;
    fc.mode = fault::Mode::kRunLength;
    fc.point = point;
    fc.nth = opt.nth;
    fault::init(std::move(fc));
    try {
      (void)run_fleet(w, threads, dir, opt.every);
    } catch (...) {
      std::_Exit(99);
    }
    std::_Exit(0);
  }
  int status = 0;
  waitpid(pid, &status, 0);
  const int code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  if (code != fault::kPlugPulledExit && code != 0) {
    std::cout << "  " << point << " t=" << threads << ": FAIL (child exit " << code << ")\n";
    return false;
  }

  std::string recovered;
  try {
    std::map<std::string, std::uint64_t> skip;  // filled by add_region_resumed
    recovered = run_fleet(w, threads, dir, opt.every, &skip);
  } catch (const std::exception& e) {
    std::cout << "  " << point << " t=" << threads << ": FAIL (recovery: " << e.what() << ")\n";
    return false;
  }
  const bool ok = recovered == baseline;
  std::cout << "  " << point << " t=" << threads
            << (code == 0 ? " (not reached)" : " (plug pulled)")
            << (ok ? ": ok" : ": FAIL (report diverges)") << '\n';
  if (!opt.keep) std::filesystem::remove_all(dir);
  return ok;
}

std::vector<SensorRecord> load_trace(const std::string& path) {
  const auto reader = open_trace_reader(path);
  std::vector<SensorRecord> all;
  std::vector<SensorRecord> batch;
  while (reader->read_batch(batch, kIngestBatch) > 0) {
    all.insert(all.end(), batch.begin(), batch.end());
  }
  return all;
}

struct ServeChild {
  pid_t pid = -1;
  std::uint16_t port = 0;
};

/// Fork an in-process resident service; the child reports its ephemeral
/// port back over a pipe before entering the poll loop.
ServeChild spawn_server(std::size_t threads, const std::string& dir, std::size_t every,
                        bool resume) {
  int pfd[2];
  if (pipe(pfd) != 0) throw std::runtime_error("spawn_server: pipe failed");
  const pid_t pid = fork();
  if (pid == 0) {
    close(pfd[0]);
    service::ServerConfig sc;
    sc.fleet.threads = threads;
    sc.fleet.checkpoint_dir = dir;
    sc.fleet.checkpoint_every_records = every;
    sc.region = region_config();
    sc.resume = resume;
    try {
      service::Server server(std::move(sc));
      const std::uint16_t port = server.port();
      if (write(pfd[1], &port, sizeof port) != sizeof port) std::_Exit(97);
      close(pfd[1]);
      server.run();  // until kShutdown or the parent's SIGKILL
    } catch (...) {
      std::_Exit(97);
    }
    std::_Exit(0);
  }
  close(pfd[1]);
  ServeChild child;
  child.pid = pid;
  if (read(pfd[0], &child.port, sizeof child.port) != sizeof child.port) {
    close(pfd[0]);
    int status = 0;
    waitpid(pid, &status, 0);
    throw std::runtime_error("spawn_server: daemon died before reporting its port");
  }
  close(pfd[0]);
  return child;
}

/// The resident-service drill: stream most of the workload, SIGKILL the
/// daemon with unflushed frames in flight, restart with resume, stream the
/// tails from the offsets HELLO reports, and byte-compare the final report.
bool run_serve_cell(const Workload& w, const Options& opt, std::size_t threads,
                    const std::string& baseline) {
  const std::string dir = opt.root + "/serve_t" + std::to_string(threads);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  std::map<std::string, std::vector<SensorRecord>> recs;
  for (const auto& r : w.regions) recs[r] = load_trace(w.trace_path.at(r));

  // First life: stream ~3/4 of each region with a sync barrier, force a
  // checkpoint commit, then put the tail on the wire WITHOUT flushing and
  // pull the plug -- the daemon dies with frames mid-ingest.
  const auto first = spawn_server(threads, dir, opt.every, /*resume=*/false);
  try {
    service::ClientConfig cc;
    cc.port = first.port;
    for (const auto& r : w.regions) {
      const auto& all = recs.at(r);
      const std::size_t cut = all.size() * 3 / 4;
      service::Client client(cc);
      if (!client.hello(r, 2).is_ok()) throw std::runtime_error("hello failed");
      if (!client.send({all.data(), cut}).is_ok()) throw std::runtime_error("send failed");
      if (!client.flush().is_ok()) throw std::runtime_error("flush failed");
    }
    service::Client control(cc);
    if (!control.checkpoint().is_ok()) throw std::runtime_error("checkpoint failed");
    for (const auto& r : w.regions) {
      const auto& all = recs.at(r);
      const std::size_t cut = all.size() * 3 / 4;
      service::Client client(cc);
      (void)client.hello(r, 2);
      (void)client.send({all.data() + cut, all.size() - cut});  // no flush: in flight
    }
  } catch (const std::exception& e) {
    std::cout << "  serve t=" << threads << ": FAIL (stream: " << e.what() << ")\n";
    kill(first.pid, SIGKILL);
    int status = 0;
    waitpid(first.pid, &status, 0);
    return false;
  }
  kill(first.pid, SIGKILL);
  int status = 0;
  waitpid(first.pid, &status, 0);

  // Second life: resume from the surviving store. HELLO names how many
  // records each region's restored state covers; the tenants stream the
  // full trace and the client-side skip drops the covered prefix.
  std::string recovered;
  std::uint64_t resumed_from = 0;
  try {
    const auto second = spawn_server(threads, dir, opt.every, /*resume=*/true);
    service::ClientConfig cc;
    cc.port = second.port;
    for (const auto& r : w.regions) {
      const auto& all = recs.at(r);
      service::Client client(cc);
      const auto offset = client.hello(r, 2);
      if (!offset.is_ok()) throw std::runtime_error("resume hello failed");
      if (*offset > all.size()) throw std::runtime_error("offset past end of trace");
      resumed_from += *offset;
      if (!client.send({all.data() + *offset, all.size() - *offset}).is_ok()) {
        throw std::runtime_error("resume send failed");
      }
      if (!client.flush().is_ok()) throw std::runtime_error("resume flush failed");
    }
    service::Client control(cc);
    const auto report = control.report(/*finalize=*/true, /*fleet_scope=*/true);
    if (!report.is_ok()) throw std::runtime_error("report failed");
    recovered = *report;
    (void)control.shutdown_server();
    waitpid(second.pid, &status, 0);
  } catch (const std::exception& e) {
    std::cout << "  serve t=" << threads << ": FAIL (recovery: " << e.what() << ")\n";
    return false;
  }

  const bool ok = recovered == baseline;
  std::cout << "  serve t=" << threads << " (SIGKILL mid-stream, resumed covering "
            << resumed_from << " records)" << (ok ? ": ok" : ": FAIL (report diverges)") << '\n';
  if (!opt.keep) std::filesystem::remove_all(dir);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  opt.root = (std::filesystem::temp_directory_path() / "sentinel_chaos").string();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto val = [&arg] { return arg.substr(arg.find('=') + 1); };
    if (arg == "--list") {
      for (const char* p : fault::kCatalog) std::cout << p << '\n';
      return 0;
    } else if (arg.rfind("--dir=", 0) == 0) {
      opt.root = val();
    } else if (arg.rfind("--points=", 0) == 0) {
      opt.points = split(val(), ',');
    } else if (arg.rfind("--threads=", 0) == 0) {
      opt.threads.clear();
      for (const auto& t : split(val(), ',')) opt.threads.push_back(std::stoul(t));
    } else if (arg.rfind("--every=", 0) == 0) {
      opt.every = std::stoul(val());
    } else if (arg.rfind("--nth=", 0) == 0) {
      opt.nth = std::stoull(val());
    } else if (arg == "--keep") {
      opt.keep = true;
    } else if (arg == "--serve") {
      opt.serve = true;
    } else {
      std::cerr << "chaos_runner: unknown argument " << arg << "\n"
                << "usage: chaos_runner [--list] [--dir=<root>] [--points=a,b,c]\n"
                << "                    [--threads=1,4] [--every=N] [--nth=N] [--keep]\n"
                << "                    [--serve]\n";
      return 2;
    }
  }
  if (opt.serve) {
    // SIGKILL drill against the resident service: no compiled-in fault
    // points needed, so it runs (and is CI-run) in Release builds too.
    std::filesystem::create_directories(opt.root);
    const Workload w = make_workload(opt.root);
    std::size_t failures = 0;
    for (const std::size_t threads : opt.threads) {
      const std::string baseline = run_fleet(w, threads, "", opt.every);
      std::cout << "serve threads=" << threads << " (baseline " << baseline.size()
                << " bytes)\n";
      if (!run_serve_cell(w, opt, threads, baseline)) ++failures;
    }
    if (failures > 0) {
      std::cout << failures << " serve cell(s) FAILED\n";
      return 1;
    }
    std::cout << "all " << opt.threads.size() << " serve cells recovered byte-identically\n";
    return 0;
  }
#ifndef SENTINEL_FAULT_INJECTION
  std::cerr << "chaos_runner: built without SENTINEL_FAULT_INJECTION; "
               "fault points are no-ops and no plug can be pulled.\n";
  return 2;
#endif
  std::filesystem::create_directories(opt.root);
  const Workload w = make_workload(opt.root);

  std::size_t failures = 0;
  for (const std::size_t threads : opt.threads) {
    const std::string baseline = run_fleet(w, threads, "", opt.every);
    std::cout << "threads=" << threads << " (baseline " << baseline.size() << " bytes)\n";
    for (const auto& point : opt.points) {
      if (!run_cell(w, opt, point, threads, baseline)) ++failures;
    }
  }
  if (failures > 0) {
    std::cout << failures << " cell(s) FAILED\n";
    return 1;
  }
  std::cout << "all " << opt.points.size() * opt.threads.size()
            << " cells recovered byte-identically\n";
  return 0;
}
