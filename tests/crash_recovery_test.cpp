// Chaos tests for the crash-consistent checkpoint store: pull the plug
// (std::_Exit in a forked child, no destructors, no flush) at every
// registered fault point, then prove a fleet recovered from the surviving
// on-disk state produces a FleetReport byte-identical to an uninterrupted
// run -- at threads = 1 and threads = 4. Torn-write tests additionally
// truncate and corrupt committed files at every byte and assert recovery
// surfaces a clean Status (previous epoch or kDataLoss), never garbage.
//
// The kill matrix needs the fault-point macro compiled in
// (SENTINEL_FAULT_INJECTION, on by default outside Release); without it the
// chaos tests skip and only the torn-write tests run.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "core/checkpoint_store.h"
#include "core/fleet.h"
#include "sim/simulator.h"
#include "trace/binary_trace.h"
#include "trace/trace_reader.h"
#include "util/fault_test.h"

namespace sentinel::core {
namespace {

namespace fault = util::fault;

/// Small enough that a region ingests in several batches (many kIngestBatch
/// hits), large enough that runs stay fast.
constexpr std::size_t kIngestBatchRecords = 512;
/// Several commits per region over a ~3456-record trace.
constexpr std::size_t kCheckpointEvery = 1500;

class TwoPhaseEnvironment final : public sim::Environment {
 public:
  std::size_t dims() const override { return 2; }
  AttrVec truth(double t) const override {
    const auto phase = static_cast<long>(t / (3.0 * kSecondsPerHour));
    return (phase % 2 == 0) ? AttrVec{10.0, 60.0} : AttrVec{30.0, 40.0};
  }
};

PipelineConfig region_config() {
  PipelineConfig cfg;
  cfg.window_seconds = kSecondsPerHour;
  cfg.initial_states = {{10.0, 60.0}, {30.0, 40.0}};
  return cfg;
}

/// Same regions with the first-tier screens gating the full path. Short
/// window/warmup/hysteresis so the 48-window traces leave sensors in every
/// phase of the escalation state machine when the plug gets pulled.
PipelineConfig screened_region_config() {
  PipelineConfig cfg = region_config();
  cfg.screen.mode = screen::ScreenMode::kScreen;
  cfg.screen.window = 8;
  cfg.screen.warmup_windows = 4;
  cfg.screen.deescalate_after = 6;
  return cfg;
}

std::vector<SensorRecord> simulate_region(std::uint64_t seed) {
  TwoPhaseEnvironment env;
  sim::Simulator s(env);
  for (std::size_t i = 0; i < 6; ++i) {
    sim::MoteConfig mc;
    mc.id = static_cast<SensorId>(i);
    mc.noise_sigma = 0.3;
    mc.seed = seed;
    s.add_mote(mc);
  }
  return s.run(2.0 * kSecondsPerDay).trace;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void spew(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// The two-region workload every chaos trial shares, plus the uninterrupted
/// baseline reports it must reproduce. Built once.
struct Workload {
  std::string root;
  std::vector<std::string> regions{"north", "south"};
  std::map<std::string, std::string> trace_path;
  std::string baseline1, baseline4;
};

std::string run_uninterrupted(const Workload& w, std::size_t threads,
                              PipelineConfig (*make_cfg)() = region_config) {
  FleetConfig fc;
  fc.threads = threads;
  FleetMonitor fleet(fc);
  for (const auto& r : w.regions) fleet.add_region(r, make_cfg());
  for (const auto& r : w.regions) {
    const auto reader = open_trace_reader(w.trace_path.at(r));
    fleet.ingest(r, *reader, kIngestBatchRecords);
  }
  fleet.finish();
  return to_string(fleet.diagnose());
}

/// Removes a test-temp path when the process that created it exits. A
/// forked child that runs exit handlers leaves its parent's files alone.
class RemovedAtExit {
 public:
  explicit RemovedAtExit(std::string path) : path_(std::move(path)) {}
  RemovedAtExit(const RemovedAtExit&) = delete;
  RemovedAtExit& operator=(const RemovedAtExit&) = delete;
  ~RemovedAtExit() {
    std::error_code ec;
    if (::getpid() == owner_) std::filesystem::remove_all(path_, ec);
  }

 private:
  std::string path_;
  pid_t owner_ = ::getpid();
};

const Workload& workload() {
  static const Workload w = [] {
    Workload out;
    // Per-process root: ctest runs each test in its own process, possibly in
    // parallel, and they must not fight over trace files or store dirs.
    out.root = testing::TempDir() + "crash_recovery_" + std::to_string(getpid()) + "/";
    std::filesystem::remove_all(out.root);
    std::filesystem::create_directories(out.root);
    std::uint64_t seed = 1;
    for (const auto& r : out.regions) {
      const std::string path = out.root + r + ".snt";
      write_trace_binary_file(path, simulate_region(seed++));
      out.trace_path[r] = path;
    }
    out.baseline1 = run_uninterrupted(out, 1);
    out.baseline4 = run_uninterrupted(out, 4);
    return out;
  }();
  // Traces and every test's stores live under the root: one removal.
  static const RemovedAtExit cleanup{w.root};
  return w;
}

/// Fork, arm the fault plan in the child, run the checkpointing fleet until
/// the plug gets pulled (or the workload completes), and return the child's
/// exit code. The child leaves only its on-disk store behind.
int run_child_with_fault(const Workload& w, const std::string& dir, std::size_t threads,
                         fault::Config fcfg, PipelineConfig (*make_cfg)() = region_config) {
  const pid_t pid = fork();
  if (pid == 0) {
    fault::init(std::move(fcfg));
    try {
      FleetConfig fc;
      fc.threads = threads;
      fc.checkpoint_dir = dir;
      fc.checkpoint_every_records = kCheckpointEvery;
      FleetMonitor fleet(fc);
      for (const auto& r : w.regions) fleet.add_region(r, make_cfg());
      for (const auto& r : w.regions) {
        const auto reader = open_trace_reader(w.trace_path.at(r));
        fleet.ingest(r, *reader, kIngestBatchRecords);
      }
      fleet.finish();
      (void)fleet.diagnose();
    } catch (...) {
      std::_Exit(99);  // a chaos child must die at the plug or finish clean
    }
    std::_Exit(0);
  }
  int status = 0;
  waitpid(pid, &status, 0);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// Recover a fresh fleet from `dir`, replay each trace tail from the
/// recorded record offset, and return the report.
std::string recover_and_report(const Workload& w, const std::string& dir, std::size_t threads,
                               PipelineConfig (*make_cfg)() = region_config) {
  FleetConfig fc;
  fc.threads = threads;
  fc.checkpoint_dir = dir;
  fc.checkpoint_every_records = kCheckpointEvery;
  FleetMonitor fleet(fc);
  for (const auto& r : w.regions) {
    const auto resumed = fleet.add_region_resumed(r, make_cfg());
    EXPECT_TRUE(resumed.is_ok()) << r << ": " << resumed.status().to_string();
    if (!resumed.is_ok()) return {};
    const auto reader = open_trace_reader(w.trace_path.at(r));
    fleet.ingest(r, *reader, kIngestBatchRecords, resumed.value());
  }
  fleet.finish();
  return to_string(fleet.diagnose());
}

#ifdef SENTINEL_FAULT_INJECTION

TEST(CrashRecovery, ByteIdenticalAfterEveryFaultPoint) {
  const Workload& w = workload();
  ASSERT_EQ(w.baseline1, w.baseline4) << "parallel fleet must be deterministic";
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    for (const char* point : fault::kCatalog) {
      SCOPED_TRACE(std::string(point) + " threads=" + std::to_string(threads));
      const std::string dir = w.root + "pt_" + CheckpointStore::sanitize(point) + "_t" +
                              std::to_string(threads);
      fault::Config fc;
      fc.mode = fault::Mode::kRunLength;
      fc.point = point;
      const int code = run_child_with_fault(w, dir, threads, fc);
      // Every point is reachable at every thread count: at threads=1 the
      // drain task runs inline, so fleet.drain.batch fires there too.
      ASSERT_EQ(code, fault::kPlugPulledExit) << "child exit " << code;
      EXPECT_EQ(recover_and_report(w, dir, threads),
                threads == 1 ? w.baseline1 : w.baseline4);
    }
  }
}

TEST(CrashRecovery, LaterHitsReachDeeperStoreStates) {
  // nth > 1 kills with earlier epochs already committed -- recovery must
  // load the manifest's last epoch, not merely survive an empty store.
  const Workload& w = workload();
  const struct {
    const char* point;
    std::uint64_t nth;
  } kTrials[] = {
      {fault::kRegionPreRename, 2},   {fault::kRegionPostRename, 3},
      {fault::kManifestTempWrite, 2}, {fault::kManifestPostRename, 3},
      {fault::kIngestBatch, 5},       {fault::kCheckpointBegin, 4},
  };
  for (const auto& trial : kTrials) {
    SCOPED_TRACE(std::string(trial.point) + " nth=" + std::to_string(trial.nth));
    const std::string dir = w.root + "nth_" + CheckpointStore::sanitize(trial.point) + "_" +
                            std::to_string(trial.nth);
    fault::Config fc;
    fc.mode = fault::Mode::kRunLength;
    fc.point = trial.point;
    fc.nth = trial.nth;
    const int code = run_child_with_fault(w, dir, 1, fc);
    ASSERT_TRUE(code == fault::kPlugPulledExit || code == 0) << "child exit " << code;
    EXPECT_EQ(recover_and_report(w, dir, 1), w.baseline1);
  }
}

TEST(CrashRecovery, ScreenedFleetRecoversByteIdentical) {
  // With the first-tier screens on, every region checkpoint carries a
  // "sentinel-screen-v1" section (rings, baselines, escalation state, tier
  // totals). Pull the plug at points whose nth hit lands mid-stream -- after
  // warmup, with clean-window streaks partially accumulated -- and prove the
  // resumed screened fleet reproduces the uninterrupted screened baseline
  // byte for byte at both thread counts. A screen tier restored even one
  // clean-window off would de-escalate a sensor on a different window and
  // shift the report.
  const Workload& w = workload();
  const std::string baseline1 = run_uninterrupted(w, 1, screened_region_config);
  ASSERT_EQ(baseline1, run_uninterrupted(w, 4, screened_region_config))
      << "screened parallel fleet must be deterministic";
  const struct {
    const char* point;
    std::uint64_t nth;
  } kTrials[] = {
      {fault::kRegionPostRename, 2},
      {fault::kIngestBatch, 4},
      {fault::kManifestPostRename, 2},
  };
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    for (const auto& trial : kTrials) {
      SCOPED_TRACE(std::string(trial.point) + " nth=" + std::to_string(trial.nth) +
                   " threads=" + std::to_string(threads));
      const std::string dir = w.root + "screened_" + CheckpointStore::sanitize(trial.point) +
                              "_" + std::to_string(trial.nth) + "_t" + std::to_string(threads);
      fault::Config fc;
      fc.mode = fault::Mode::kRunLength;
      fc.point = trial.point;
      fc.nth = trial.nth;
      const int code = run_child_with_fault(w, dir, threads, fc, screened_region_config);
      ASSERT_TRUE(code == fault::kPlugPulledExit || code == 0) << "child exit " << code;
      EXPECT_EQ(recover_and_report(w, dir, threads, screened_region_config), baseline1);
    }
  }
}

TEST(CrashRecovery, IndependentScheduleSurvivesRepeatedCrashes) {
  // Probabilistic kills at arbitrary points, crash -> recover -> crash again
  // under fresh seeds, until one run finishes. Every intermediate store
  // state must stay recoverable.
  const Workload& w = workload();
  const std::string dir = w.root + "independent";
  int finished = -1;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    fault::Config fc;
    fc.mode = fault::Mode::kIndependent;
    fc.probability = 0.05;
    fc.seed = seed;
    // Resumed children start from whatever the previous crash left behind.
    const pid_t pid = fork();
    if (pid == 0) {
      fault::init(std::move(fc));
      try {
        const std::string report = recover_and_report(w, dir, 1);
        std::_Exit(report == w.baseline1 ? 0 : 98);
      } catch (...) {
        std::_Exit(99);
      }
    }
    int status = 0;
    waitpid(pid, &status, 0);
    finished = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    ASSERT_TRUE(finished == fault::kPlugPulledExit || finished == 0)
        << "child exit " << finished;
    if (finished == 0) break;
  }
  // Regardless of where the crashes landed, a final undisturbed recovery
  // must reproduce the baseline.
  EXPECT_EQ(recover_and_report(w, dir, 1), w.baseline1);
}

TEST(CrashRecovery, CsvResumeReplaysMalformedAccounting) {
  // A CSV feed with comments and a ~7.7% malformed-line rate: the
  // uninterrupted run degrades the region and the report renders its
  // malformed tallies, so a resume that double- or under-counts the skipped
  // prefix shows up as a byte diff, not silence.
  const std::string root = workload().root;
  const std::string csv = root + "csv_region.csv";
  {
    const auto records = simulate_region(7);
    std::ofstream out(csv, std::ios::trunc);
    std::size_t i = 0;
    for (const auto& rec : records) {
      if (i % 30 == 0) out << "# telemetry comment\n";
      if (i % 13 == 12) out << "garbage,line\n";  // kBadFieldCount
      out << rec.sensor << ',' << rec.time << ',' << rec.attrs[0] << ',' << rec.attrs[1]
          << '\n';
      ++i;
    }
  }
  const auto run = [&](const std::string& dir) {
    FleetConfig fc;
    fc.checkpoint_dir = dir;  // "" = no store (the baseline)
    fc.checkpoint_every_records = kCheckpointEvery;
    FleetMonitor fleet(fc);
    fleet.add_region("csvr", region_config());
    const auto reader = open_trace_reader(csv);
    fleet.ingest("csvr", *reader, kIngestBatchRecords);
    fleet.finish();
    return to_string(fleet.diagnose());
  };
  const std::string baseline = run("");
  ASSERT_NE(baseline.find("degraded"), std::string::npos)
      << "feed must degrade so malformed tallies are in the report";

  const std::string dir = root + "csv_chaos";
  fault::Config fc;
  fc.mode = fault::Mode::kRunLength;
  fc.point = fault::kManifestPostRename;
  fc.nth = 2;
  const pid_t pid = fork();
  if (pid == 0) {
    fault::init(std::move(fc));
    try {
      (void)run(dir);
    } catch (...) {
      std::_Exit(99);
    }
    std::_Exit(0);
  }
  int status = 0;
  waitpid(pid, &status, 0);
  const int code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  ASSERT_TRUE(code == fault::kPlugPulledExit || code == 0) << "child exit " << code;

  FleetConfig rc;
  rc.checkpoint_dir = dir;
  FleetMonitor fleet(rc);
  const auto resumed = fleet.add_region_resumed("csvr", region_config());
  ASSERT_TRUE(resumed.is_ok()) << resumed.status().to_string();
  EXPECT_GT(resumed.value(), 0u) << "second manifest commit implies a nonzero offset";
  const auto reader = open_trace_reader(csv);
  fleet.ingest("csvr", *reader, kIngestBatchRecords, resumed.value());
  fleet.finish();
  EXPECT_EQ(to_string(fleet.diagnose()), baseline);
}

#endif  // SENTINEL_FAULT_INJECTION

// --- Torn-write detection (no fault injection needed) -----------------------

/// A committed single-region store to mutilate, plus its pristine bytes.
struct SmallStore {
  std::string dir;
  std::string region_path;
  std::string region_bytes;
  RegionCheckpointMeta meta;
  std::string report;  // uninterrupted baseline over the same records
};

SmallStore make_small_store(const std::string& name) {
  SmallStore s;
  s.dir = workload().root + name;
  std::filesystem::remove_all(s.dir);
  const auto records = simulate_region(11);
  const std::vector<SensorRecord> head(records.begin(), records.begin() + 400);
  {
    FleetConfig fc;
    fc.checkpoint_dir = s.dir;
    fc.checkpoint_every_records = 0;  // explicit checkpoint_now only
    FleetMonitor fleet(fc);
    fleet.add_region("r", region_config());
    fleet.add_records("r", head);
    fleet.checkpoint_now();
  }
  {
    FleetMonitor fleet(6.0);
    fleet.add_region("r", region_config());
    fleet.add_records("r", records);
    fleet.finish();
    s.report = to_string(fleet.diagnose());
  }
  CheckpointStore store(s.dir);
  auto manifest = store.load_manifest();
  EXPECT_TRUE(manifest.is_ok()) << manifest.status().to_string();
  s.meta = manifest->regions.at("r");
  s.region_path = s.dir + "/" + s.meta.file;
  s.region_bytes = slurp(s.region_path);
  EXPECT_EQ(s.region_bytes.size(), s.meta.bytes);
  EXPECT_EQ(s.meta.records_applied, 400u);
  return s;
}

/// Resume from the (possibly mutilated) store and finish the trace; returns
/// the report, or the failure Status rendered as "ERROR: ...".
std::string resume_small_store(const SmallStore& s) {
  FleetConfig fc;
  fc.checkpoint_dir = s.dir;
  fc.checkpoint_every_records = 0;
  FleetMonitor fleet(fc);
  const auto resumed = fleet.add_region_resumed("r", region_config());
  if (!resumed.is_ok()) return "ERROR: " + resumed.status().to_string();
  const auto records = simulate_region(11);
  const std::vector<SensorRecord> tail(records.begin() + static_cast<long>(resumed.value()),
                                       records.end());
  fleet.add_records("r", tail);
  fleet.finish();
  return to_string(fleet.diagnose());
}

TEST(CrashRecoveryTorn, RegionFileTruncatedAtEveryByte) {
  const SmallStore s = make_small_store("torn_region");
  ASSERT_EQ(resume_small_store(s), s.report) << "pristine store must resume cleanly";
  CheckpointStore store(s.dir);
  std::string out;
  for (std::size_t len = 0; len < s.region_bytes.size(); ++len) {
    spew(s.region_path, s.region_bytes.substr(0, len));
    const auto status = store.read_region(s.meta, out);
    ASSERT_EQ(status.code(), util::StatusCode::kDataLoss) << "length " << len;
  }
  // Full resume over a sample of torn prefixes: clean kDataLoss, no region
  // created, never a throw or a garbage report.
  for (const std::size_t len :
       {std::size_t{0}, std::size_t{1}, s.region_bytes.size() / 2, s.region_bytes.size() - 1}) {
    spew(s.region_path, s.region_bytes.substr(0, len));
    const std::string got = resume_small_store(s);
    EXPECT_EQ(got.find("ERROR: data-loss"), 0u) << "length " << len << ": " << got;
  }
  spew(s.region_path, s.region_bytes);
  EXPECT_EQ(resume_small_store(s), s.report) << "restored bytes must resume again";
}

TEST(CrashRecoveryTorn, RegionFileCorruptedAtEveryByte) {
  const SmallStore s = make_small_store("corrupt_region");
  CheckpointStore store(s.dir);
  std::string out;
  // Same-size corruption defeats the byte-count check; the content checksum
  // must catch every single-byte flip.
  for (std::size_t i = 0; i < s.region_bytes.size(); ++i) {
    std::string bad = s.region_bytes;
    bad[i] = static_cast<char>(bad[i] ^ 0x5A);
    spew(s.region_path, bad);
    const auto status = store.read_region(s.meta, out);
    ASSERT_EQ(status.code(), util::StatusCode::kDataLoss) << "byte " << i;
  }
  spew(s.region_path, s.region_bytes);
  EXPECT_EQ(store.read_region(s.meta, out), util::Status::ok());
}

TEST(CrashRecoveryTorn, ManifestTruncatedAtEveryByte) {
  const SmallStore s = make_small_store("torn_manifest");
  const std::string manifest_path = s.dir + "/MANIFEST";
  const std::string manifest_bytes = slurp(manifest_path);
  CheckpointStore store(s.dir);
  for (std::size_t len = 0; len < manifest_bytes.size(); ++len) {
    spew(manifest_path, manifest_bytes.substr(0, len));
    const auto loaded = store.load_manifest();
    ASSERT_FALSE(loaded.is_ok()) << "length " << len;
    ASSERT_EQ(loaded.status().code(), util::StatusCode::kDataLoss) << "length " << len;
  }
  // A torn manifest surfaces as a Status from resume too, creating nothing.
  spew(manifest_path, manifest_bytes.substr(0, manifest_bytes.size() / 2));
  EXPECT_EQ(resume_small_store(s).find("ERROR: data-loss"), 0u);
  spew(manifest_path, manifest_bytes);
  EXPECT_EQ(resume_small_store(s), s.report);
}

TEST(CrashRecoveryTorn, OrphanTempFilesAreInvisible) {
  // Crash debris -- torn .tmp files next to a valid manifest -- must not
  // disturb recovery: only files the manifest names are ever read.
  const SmallStore s = make_small_store("orphan_tmps");
  spew(s.dir + "/r.e99.ckpt.tmp", "torn garbage");
  spew(s.dir + "/MANIFEST.tmp", "more torn garbage");
  EXPECT_EQ(resume_small_store(s), s.report);
}

TEST(CrashRecoveryTorn, MissingStoreResumesFresh) {
  // An empty store (first boot) is not an error: resume falls back to a
  // fresh region covering zero records.
  const std::string dir = workload().root + "fresh_store";
  std::filesystem::remove_all(dir);
  FleetConfig fc;
  fc.checkpoint_dir = dir;
  FleetMonitor fleet(fc);
  const auto resumed = fleet.add_region_resumed("r", region_config());
  ASSERT_TRUE(resumed.is_ok()) << resumed.status().to_string();
  EXPECT_EQ(resumed.value(), 0u);
}

}  // namespace
}  // namespace sentinel::core
