// Tests: the parallel fleet path. The headline guarantee is determinism --
// the same record stream through a threads=1 fleet and a threads=4 fleet
// must yield bit-identical FleetReports (per-region pipelines are
// single-writer, diagnosis reads quiescent state, results assemble in
// region-name order) -- plus worker-fault quarantine (a pipeline exception
// in a pool worker is parked in the shard and folded into the region's
// health record on the caller thread, never rethrown to the producer),
// hostile multi-chunk CSV feeds whose health, tallies and resume behave the
// same at any thread count, and the parallel simulator's trace-identity
// guarantee.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/scenario.h"
#include "core/fleet.h"
#include "faults/attack_models.h"
#include "faults/fault_models.h"
#include "faults/injection_plan.h"
#include "sim/simulator.h"
#include "trace/trace_reader.h"
#include "util/thread_pool.h"

namespace sentinel::core {
namespace {

class CycleEnvironment final : public sim::Environment {
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

std::vector<SensorRecord> simulate_region(const sim::Environment& env, double duration,
                                          std::uint64_t seed,
                                          std::shared_ptr<faults::InjectionPlan> plan = nullptr) {
  sim::Simulator s(env);
  for (std::size_t i = 0; i < 6; ++i) {
    sim::MoteConfig mc;
    mc.id = static_cast<SensorId>(i);
    mc.noise_sigma = 0.3;
    mc.seed = seed;
    s.add_mote(mc);
  }
  if (plan) s.set_transform(faults::make_transform(plan));
  return s.run(duration).trace;
}

/// A 4-region workload with enough variety to exercise every diagnosis
/// path: two clean regions, one with a stuck sensor, one whose majority is
/// compromised (structural outlier).
std::vector<std::vector<SensorRecord>> make_workload(const sim::Environment& env) {
  std::vector<std::vector<SensorRecord>> traces;
  traces.push_back(simulate_region(env, 3.0 * kSecondsPerDay, 1));
  traces.push_back(simulate_region(env, 3.0 * kSecondsPerDay, 2));

  auto stuck = std::make_shared<faults::InjectionPlan>();
  stuck->add(2, std::make_unique<faults::StuckAtFault>(AttrVec{20.0, 5.0}), 0.5 * kSecondsPerDay);
  traces.push_back(simulate_region(env, 3.0 * kSecondsPerDay, 3, stuck));

  auto compromised = std::make_shared<faults::InjectionPlan>();
  for (SensorId s = 0; s < 5; ++s) {  // 5 of 6 sensors: internal majority defeated
    faults::ChangeAttackConfig ac;
    ac.victim = faults::StateRegion{{30.0, 40.0}, 8.0};
    ac.observed_as = {55.0, 20.0};
    ac.fraction = 5.0 / 6.0;
    compromised->add(s, std::make_unique<faults::DynamicChangeAttack>(ac), 0.0);
  }
  traces.push_back(simulate_region(env, 3.0 * kSecondsPerDay, 4, compromised));
  return traces;
}

FleetReport run_fleet(const std::vector<std::vector<SensorRecord>>& traces, std::size_t threads,
                      std::vector<std::size_t>* windows_out = nullptr) {
  FleetConfig fc;
  fc.threads = threads;
  FleetMonitor fleet(fc);
  const std::vector<std::string> names = {"east", "north", "south", "west"};
  for (const auto& name : names) fleet.add_region(name, region_config());

  // Interleave across regions so parallel shards genuinely overlap.
  for (std::size_t i = 0;; ++i) {
    bool any = false;
    for (std::size_t r = 0; r < traces.size(); ++r) {
      if (i < traces[r].size()) {
        fleet.add_record(names[r], traces[r][i]);
        any = true;
      }
    }
    if (!any) break;
  }
  fleet.finish();
  if (windows_out) {
    windows_out->clear();
    for (const auto& name : names) {
      windows_out->push_back(fleet.region(name).windows_processed());
    }
  }
  return fleet.diagnose();
}

TEST(FleetParallel, ReportIdenticalToSerial) {
  const CycleEnvironment env;
  const auto traces = make_workload(env);

  std::vector<std::size_t> windows_serial, windows_parallel;
  const FleetReport serial = run_fleet(traces, 1, &windows_serial);
  const FleetReport parallel = run_fleet(traces, 4, &windows_parallel);

  EXPECT_EQ(windows_parallel, windows_serial);
  EXPECT_EQ(parallel.overall, serial.overall);
  EXPECT_EQ(parallel.structural_outliers, serial.structural_outliers);
  ASSERT_EQ(parallel.regions.size(), serial.regions.size());
  EXPECT_EQ(to_string(parallel), to_string(serial));

  // The workload is rich enough that identity is meaningful: a fault, an
  // outlier, and clean regions all present.
  EXPECT_EQ(serial.overall, Verdict::kError);
  ASSERT_TRUE(serial.regions.at("south").sensors.count(2));
  EXPECT_EQ(serial.regions.at("south").sensors.at(2).kind, AnomalyKind::kStuckAt);
  EXPECT_EQ(serial.structural_outliers, std::vector<std::string>{"west"});
}

TEST(FleetParallel, HardwareThreadCountAlsoIdentical) {
  const CycleEnvironment env;
  // Smaller workload; the point is an arbitrary pool size, not diagnosis.
  std::vector<std::vector<SensorRecord>> traces;
  traces.push_back(simulate_region(env, 1.0 * kSecondsPerDay, 7));
  traces.push_back(simulate_region(env, 1.0 * kSecondsPerDay, 8));
  traces.push_back(simulate_region(env, 1.0 * kSecondsPerDay, 9));
  traces.push_back(simulate_region(env, 1.0 * kSecondsPerDay, 10));

  const FleetReport serial = run_fleet(traces, 1);
  const FleetReport parallel = run_fleet(traces, 0);  // 0 = hardware concurrency
  EXPECT_EQ(to_string(parallel), to_string(serial));
}

TEST(FleetParallel, WorkerExceptionQuarantinesRegionWithAttribution) {
  FleetConfig fc;
  fc.threads = 4;
  FleetMonitor fleet(fc);
  fleet.add_region("ok", region_config());
  fleet.add_region("bad", region_config());

  // Dimension-mismatched records make the pipeline throw inside a pool
  // worker (AttrVec distance on a 2-dim model). That must NOT resurface as
  // an exception on the caller thread: the sick region is quarantined with
  // the error attributed to it, later records for it are dropped and
  // counted, and the healthy region completes untouched.
  for (int i = 0; i < 5000; ++i) {
    const double t = 60.0 * i;
    for (SensorId s = 0; s < 6; ++s) {
      fleet.add_record("bad", {s, t, {1.0, 2.0, 3.0}});  // 3 dims into a 2-dim region
      fleet.add_record("ok", {s, t, {10.0, 60.0}});
    }
  }
  fleet.finish();

  const RegionState& bad = fleet.region_health("bad");
  EXPECT_EQ(bad.health, RegionHealth::kQuarantined);
  EXPECT_FALSE(bad.status.is_ok());
  // The status message carries the region name -- a fleet log line must say
  // *which* feed died, not just that one did.
  EXPECT_NE(bad.status.message().find("bad"), std::string::npos) << bad.status.to_string();
  EXPECT_GT(bad.records_dropped, 0u);
  // The original exception rides along for callers that want the real type.
  ASSERT_TRUE(bad.error);
  EXPECT_THROW(std::rethrow_exception(bad.error), std::invalid_argument);

  // drain() stays a quiescence point and never throws region poison.
  EXPECT_NO_THROW(fleet.drain());
  EXPECT_EQ(fleet.region_health("ok").health, RegionHealth::kHealthy);
  EXPECT_GT(fleet.region("ok").windows_processed(), 0u);

  // The quarantined region is absent from the report body but present --
  // with its captured cause -- in the health section.
  const FleetReport report = fleet.diagnose();
  EXPECT_EQ(report.regions.count("bad"), 0u);
  EXPECT_EQ(report.regions.count("ok"), 1u);
  ASSERT_EQ(report.health.count("bad"), 1u);
  EXPECT_EQ(report.health.at("bad").health, RegionHealth::kQuarantined);
}

/// The poisoned fleet of WorkerExceptionQuarantinesRegionWithAttribution:
/// 3-dim records into a 2-dim region next to a healthy one, offered
/// record by record, then finished and diagnosed.
constexpr std::size_t kPoisonSteps = 5000;
constexpr std::size_t kPoisonOffered = kPoisonSteps * 6;  // records per region

FleetReport run_poisoned_fleet(std::size_t threads, std::size_t batch_records) {
  FleetConfig fc;
  fc.threads = threads;
  fc.batch_records = batch_records;
  FleetMonitor fleet(fc);
  fleet.add_region("ok", region_config());
  fleet.add_region("bad", region_config());
  for (std::size_t i = 0; i < kPoisonSteps; ++i) {
    const double t = 60.0 * static_cast<double>(i);
    for (SensorId s = 0; s < 6; ++s) {
      fleet.add_record("bad", {s, t, {1.0, 2.0, 3.0}});
      fleet.add_record("ok", {s, t, {10.0, 60.0}});
    }
  }
  fleet.finish();
  return fleet.diagnose();
}

TEST(FleetParallel, QuarantineAccountingIsThreadCountInvariant) {
  // Handing off every record on its own pins the failing call to the same
  // record at any thread count, so the whole report -- the health section
  // with its ingested/dropped split included -- must match threads=1.
  const std::string want = to_string(run_poisoned_fleet(1, 1));
  ASSERT_NE(want.find("[region bad] quarantined"), std::string::npos) << want;
  for (int run = 0; run < 10; ++run) {
    EXPECT_EQ(to_string(run_poisoned_fleet(4, 1)), want) << "threads=4 run " << run;
  }
  // At the default batch size the failing batch is dropped whole, so the
  // split may move with the thread count, but every offered record is
  // counted exactly once: ingested (applied) or dropped.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const FleetReport report = run_poisoned_fleet(threads, FleetConfig{}.batch_records);
    ASSERT_EQ(report.health.size(), 2u);
    for (const auto& [name, st] : report.health) {
      EXPECT_EQ(st.records_ingested + st.records_dropped, kPoisonOffered)
          << name << " threads=" << threads;
    }
    EXPECT_EQ(report.health.at("ok").records_dropped, 0u);
    EXPECT_GT(report.health.at("bad").records_dropped, 0u);
  }
}

/// Window `index` (1-based hours) of `trace` as a cluster head uploads it,
/// each representative shifted by `offset` on the first attribute.
ObservationSet window_from(const std::vector<SensorRecord>& trace, std::size_t index,
                           double offset) {
  ObservationSet w = window_trace(trace, kSecondsPerHour).at(index - 1);
  for (AttrVec& p : w.rep_points) p[0] += offset;
  return bench::make_window(index, kSecondsPerHour, std::move(w.rep_sensors),
                            std::move(w.rep_points));
}

TEST(FleetParallel, RecordsAndWindowsApplyInCallerOrder) {
  const CycleEnvironment env;
  const auto trace = simulate_region(env, 2.0 * kSecondsPerDay, 21);
  // Records for the first 20 hours, then windows 25..30 uploaded
  // pre-aggregated (shifted off the environment, so their position in the
  // sequence shows in the learned model), then the remaining records --
  // all without a drain() between the phases.
  const double cut = 20.0 * kSecondsPerHour;
  std::vector<SensorRecord> head, tail;
  for (const auto& rec : trace) (rec.time < cut ? head : tail).push_back(rec);
  std::vector<ObservationSet> windows;
  for (std::size_t i = 25; i <= 30; ++i) windows.push_back(window_from(trace, i, 12.0));

  const auto run = [&](std::size_t threads) {
    FleetConfig fc;
    fc.threads = threads;
    FleetMonitor fleet(fc);
    fleet.add_region("r", region_config());
    // Record by record, so at threads=4 several batches are in flight
    // around the windows.
    for (const auto& rec : head) fleet.add_record("r", rec);
    for (const auto& w : windows) fleet.add_window("r", w);
    for (const auto& rec : tail) fleet.add_record("r", rec);
    fleet.finish();
    EXPECT_EQ(fleet.region_health("r").records_ingested, trace.size() + windows.size() * 6);
    // The learned model state is order-sensitive even where the verdicts
    // are not, so compare the checkpoint bytes too.
    std::ostringstream checkpoint;
    fleet.region("r").save_checkpoint(checkpoint);
    return to_string(fleet.diagnose()) + checkpoint.str();
  };
  const std::string want = run(1);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(run(4), want) << "threads=4 run " << i;
}

TEST(FleetParallel, MalformedHandBuiltWindowQuarantinesOnlyItsRegion) {
  // A pre-aggregated window whose rep arrays disagree in length makes
  // process_window throw; the fleet quarantines that region at any thread
  // count, and the other region's report is the one it gets alone.
  const CycleEnvironment env;
  const auto windows =
      window_trace(simulate_region(env, 2.0 * kSecondsPerDay, 41), kSecondsPerHour);
  ObservationSet malformed = windows[10];
  malformed.rep_sums.pop_back();

  const auto run = [&](std::size_t threads, bool with_bad) {
    FleetConfig fc;
    fc.threads = threads;
    FleetMonitor fleet(fc);
    fleet.add_region("good", region_config());
    if (with_bad) fleet.add_region("bad", region_config());
    for (std::size_t i = 0; i < windows.size(); ++i) {
      fleet.add_window("good", windows[i]);
      if (with_bad) fleet.add_window("bad", i == 10 ? malformed : windows[i]);
    }
    fleet.finish();
    if (with_bad) {
      const RegionState& bad = fleet.region_health("bad");
      EXPECT_EQ(bad.health, RegionHealth::kQuarantined) << "threads=" << threads;
      EXPECT_TRUE(bad.error) << "threads=" << threads;
      if (bad.error) {
        EXPECT_THROW(std::rethrow_exception(bad.error), std::invalid_argument);
      }
    }
    const FleetReport report = fleet.diagnose();
    std::ostringstream checkpoint;
    fleet.region("good").save_checkpoint(checkpoint);
    return to_string(report.regions.at("good")) + checkpoint.str();
  };
  const std::string alone = run(1, false);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    EXPECT_EQ(run(threads, true), alone) << "threads=" << threads;
  }
}

TEST(FleetParallel, MixedWidthBatchesKeepTheirArenaOffsets) {
  // Late 3-dim records ride in a 2-dim region's spans. The windower drops a
  // late record before it would accumulate it, so they must change nothing
  // but the late count. With 16-record batches every queued batch at
  // threads=4 mixes both widths in its attribute arena; a batch that does
  // not step past a dropped record's attributes feeds shifted values on.
  const CycleEnvironment env;
  const auto trace = simulate_region(env, 2.0 * kSecondsPerDay, 31);
  std::vector<SensorRecord> mixed;
  std::size_t late = 0;
  for (const auto& rec : trace) {
    mixed.push_back(rec);
    if (rec.time >= 2.0 * kSecondsPerHour && mixed.size() % 5 == 0) {
      mixed.push_back({rec.sensor, 0.0, {99.0, 99.0, 99.0}});  // window 1: long closed
      ++late;
    }
  }
  ASSERT_GT(late, 100u);

  struct Outcome {
    std::string bytes;  // report, then the region's checkpoint
    std::size_t late_records = 0;
  };
  const auto run = [](const std::vector<SensorRecord>& feed, std::size_t threads) {
    FleetConfig fc;
    fc.threads = threads;
    fc.batch_records = 16;
    FleetMonitor fleet(fc);
    fleet.add_region("r", region_config());
    for (std::size_t off = 0; off < feed.size(); off += 7) {
      fleet.add_records("r", {feed.data() + off, std::min<std::size_t>(7, feed.size() - off)});
    }
    fleet.finish();
    std::ostringstream checkpoint;
    fleet.region("r").save_checkpoint(checkpoint);
    return Outcome{to_string(fleet.diagnose()) + checkpoint.str(),
                   fleet.region("r").counters().late_records};
  };
  const Outcome clean = run(trace, 1);
  const Outcome serial = run(mixed, 1);
  EXPECT_EQ(serial.late_records, clean.late_records + late);
  EXPECT_EQ(serial.bytes, clean.bytes);
  for (int i = 0; i < 3; ++i) {
    const Outcome parallel = run(mixed, 4);
    EXPECT_EQ(parallel.bytes, serial.bytes) << "threads=4 run " << i;
    EXPECT_EQ(parallel.late_records, serial.late_records) << "threads=4 run " << i;
  }
}

TEST(FleetParallel, DrainIsQuiescencePoint) {
  const CycleEnvironment env;
  const auto trace = simulate_region(env, 1.0 * kSecondsPerDay, 5);

  FleetConfig fc;
  fc.threads = 4;
  FleetMonitor fleet(fc);
  fleet.add_region("r", region_config());
  for (const auto& rec : trace) fleet.add_record("r", rec);
  fleet.drain();
  // After drain every queued record reached the pipeline: the streaming
  // windower has closed all but the final partial window.
  const std::size_t before_finish = fleet.region("r").windows_processed();
  EXPECT_GT(before_finish, 20u);
  fleet.finish();
  EXPECT_GE(fleet.region("r").windows_processed(), before_finish);
}

TEST(FleetParallel, ConfigValidation) {
  FleetConfig bad_tol;
  bad_tol.state_match_tol = 0.0;
  EXPECT_THROW(FleetMonitor{bad_tol}, std::invalid_argument);
  FleetConfig bad_queue;
  bad_queue.max_queue_records = 0;
  EXPECT_THROW(FleetMonitor{bad_queue}, std::invalid_argument);
}

// --- Hostile CSV feeds through the decode-ahead reader ----------------------

std::string temp_path(const std::string& name) { return testing::TempDir() + name; }

/// Write `recs` as CSV with a comment every 500 records and, from record
/// `mixed_from`, a malformed line (cycling through the causes) before every
/// third record; from record `burst_at` on, a run of `burst` malformed lines
/// first. Several CsvTraceReader chunks long for any useful `recs`.
void write_hostile_csv(const std::string& path, const std::vector<SensorRecord>& recs,
                       std::size_t mixed_from, std::size_t burst_at, std::size_t burst) {
  static const char* const kBad[] = {"garbage", "1,60", "2,120,21.0", "1e300,240,21.0,70",
                                     "4,abc,21.0,70"};
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  std::size_t bad = 0;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    if (i % 500 == 0) out << "# uplink " << i << '\n';
    if (i == burst_at) {
      for (std::size_t k = 0; k < burst; ++k) out << kBad[bad++ % 5] << '\n';
    }
    if (i >= mixed_from && i % 3 == 0) out << kBad[bad++ % 5] << '\n';
    const SensorRecord& r = recs[i];
    out << r.sensor << ',' << r.time << ',' << r.attrs[0] << ',' << r.attrs[1] << '\n';
  }
}

void expect_same_state(const RegionState& got, const RegionState& want, const std::string& what) {
  EXPECT_EQ(got.health, want.health) << what;
  EXPECT_EQ(got.status.to_string(), want.status.to_string()) << what;
  EXPECT_EQ(got.records_ingested, want.records_ingested) << what;
  EXPECT_EQ(got.records_dropped, want.records_dropped) << what;
  EXPECT_EQ(got.malformed, want.malformed) << what;
  EXPECT_EQ(got.comment_lines, want.comment_lines) << what;
}

struct HostileRun {
  RegionState state;
  std::string report;
};

/// A clean region and the hostile one, read in 512-record batches, through
/// the mapped source or the buffered-stream one.
HostileRun run_hostile(std::size_t threads, const std::string& clean, const std::string& hostile,
                       CsvTraceReader::Mode mode) {
  FleetConfig fc;
  fc.threads = threads;
  FleetMonitor fleet(fc);
  fleet.add_region("clean", region_config());
  fleet.add_region("hostile", region_config());
  fleet.ingest_file("clean", clean);
  CsvTraceReader reader(hostile, 0, mode);
  fleet.ingest("hostile", reader, 512);
  fleet.finish();
  return {fleet.region_health("hostile"), to_string(fleet.diagnose())};
}

TEST(FleetParallel, HostileCsvHealthIsThreadCountInvariant) {
  const CycleEnvironment env;
  const auto clean = simulate_region(env, 6.0 * kSecondsPerDay, 31);
  const auto recs = simulate_region(env, 6.0 * kSecondsPerDay, 32);
  ASSERT_GT(recs.size(), 9000u);
  const std::string clean_path = temp_path("fleet_clean.csv");
  write_hostile_csv(clean_path, clean, clean.size(), clean.size(), 0);
  // Clean for 4000 records, then one malformed line per three records
  // (crossing the 5% degrade rate), then a 9000-line burst at record 7000
  // (crossing the 50% quarantine rate) -- all mid-file, many chunks in.
  const std::string degraded_path = temp_path("fleet_degraded.csv");
  const std::string quarantined_path = temp_path("fleet_quarantined.csv");
  write_hostile_csv(degraded_path, recs, 4000, recs.size(), 0);
  write_hostile_csv(quarantined_path, recs, 4000, 7000, 9000);
  ASSERT_GT(std::filesystem::file_size(quarantined_path), 5 * CsvTraceReader::kChunkBytes);

  for (const auto* path : {&degraded_path, &quarantined_path}) {
    const HostileRun want = run_hostile(1, clean_path, *path, CsvTraceReader::Mode::kAuto);
    const bool burst = path == &quarantined_path;
    EXPECT_EQ(want.state.health, burst ? RegionHealth::kQuarantined : RegionHealth::kDegraded);
    EXPECT_NE(want.state.status.message().find(burst ? "rate too high" : "elevated"),
              std::string::npos)
        << want.state.status.to_string();
    EXPECT_GT(want.state.malformed.bad_field_count, 0u);
    EXPECT_GT(want.state.malformed.dims_mismatch, 0u);
    EXPECT_GT(want.state.malformed.bad_sensor_id, 0u);
    EXPECT_GT(want.state.malformed.bad_number, 0u);
    EXPECT_GT(want.state.comment_lines, 0u);
    if (burst) {
      EXPECT_GT(want.state.records_ingested, 7000u);
      EXPECT_LT(want.state.records_ingested, recs.size());
    } else {
      EXPECT_EQ(want.state.records_ingested, recs.size());
    }
    for (const auto mode : {CsvTraceReader::Mode::kAuto, CsvTraceReader::Mode::kForceStream}) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        const std::string what = *path + " threads=" + std::to_string(threads) +
                                 (mode == CsvTraceReader::Mode::kAuto ? " mapped" : " stream");
        const HostileRun got = run_hostile(threads, clean_path, *path, mode);
        expect_same_state(got.state, want.state, what);
        EXPECT_EQ(got.report, want.report) << what;
      }
    }
  }
  std::remove(clean_path.c_str());
  std::remove(degraded_path.c_str());
  std::remove(quarantined_path.c_str());
}

TEST(FleetParallel, CsvCheckpointResumeReproducesTheUninterruptedRun) {
  // A degraded multi-chunk feed (its tallies render in the report). The
  // first run reads only a prefix, cut right after a record line, and
  // leaves the periodic checkpoints it committed; the resumed run skips
  // what the last one covers and reads the rest of the full file.
  const CycleEnvironment env;
  const auto recs = simulate_region(env, 6.0 * kSecondsPerDay, 33);
  const std::string full = temp_path("fleet_resume_full.csv");
  const std::string prefix = temp_path("fleet_resume_prefix.csv");
  write_hostile_csv(full, recs, 0, recs.size(), 0);
  write_hostile_csv(prefix, {recs.begin(), recs.begin() + 6500}, 0, 6500, 0);
  ASSERT_GT(std::filesystem::file_size(prefix), 2 * CsvTraceReader::kChunkBytes);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const std::string what = "threads=" + std::to_string(threads);
    const std::string dir = temp_path("fleet_resume_store_t" + std::to_string(threads));
    std::filesystem::remove_all(dir);
    FleetConfig fc;
    fc.threads = threads;

    FleetMonitor straight(fc);
    straight.add_region("r", region_config());
    straight.ingest("r", *open_trace_reader(full), 512);
    straight.finish();
    const std::string want = to_string(straight.diagnose());
    ASSERT_NE(want.find("degraded"), std::string::npos) << want;

    {
      FleetConfig cc = fc;
      cc.checkpoint_dir = dir;
      cc.checkpoint_every_records = 3000;
      FleetMonitor interrupted(cc);
      interrupted.add_region("r", region_config());
      interrupted.ingest("r", *open_trace_reader(prefix), 512);
    }  // no finish: the store holds the last periodic checkpoint

    FleetConfig rc = fc;
    rc.checkpoint_dir = dir;
    FleetMonitor resumed(rc);
    const auto offset = resumed.add_region_resumed("r", region_config());
    ASSERT_TRUE(offset.is_ok()) << offset.status().to_string();
    EXPECT_GT(offset.value(), 0u) << what;
    EXPECT_LT(offset.value(), 6500u) << what << ": the checkpoint is mid-prefix";
    resumed.ingest("r", *open_trace_reader(full), 512, offset.value());
    resumed.finish();
    EXPECT_EQ(to_string(resumed.diagnose()), want) << what;
    expect_same_state(resumed.region_health("r"), straight.region_health("r"), what);
    std::filesystem::remove_all(dir);
  }
  std::remove(full.c_str());
  std::remove(prefix.c_str());
}

TEST(SimulatorParallel, TraceIdenticalToSerial) {
  sim::GdiEnvironmentConfig ec;
  ec.duration_seconds = 2.0 * kSecondsPerDay;
  ec.seed = 11;
  const sim::GdiEnvironment env(ec);

  sim::GdiDeploymentConfig dc;
  dc.num_sensors = 10;
  dc.seed = 11;

  auto serial_sim = sim::make_gdi_deployment(env, dc);
  const auto serial = serial_sim.run(ec.duration_seconds);

  auto parallel_sim = sim::make_gdi_deployment(env, dc);
  util::ThreadPool pool(4);
  const auto parallel = parallel_sim.run(ec.duration_seconds, pool);

  EXPECT_EQ(parallel.trace, serial.trace);
  EXPECT_EQ(parallel.stats.sampled, serial.stats.sampled);
  EXPECT_EQ(parallel.stats.suppressed, serial.stats.suppressed);
  EXPECT_EQ(parallel.stats.lost, serial.stats.lost);
  EXPECT_EQ(parallel.stats.malformed, serial.stats.malformed);
  EXPECT_EQ(parallel.stats.delivered, serial.stats.delivered);
}

TEST(SimulatorParallel, WithInjectionPlanIdenticalToSerial) {
  sim::GdiEnvironmentConfig ec;
  ec.duration_seconds = 1.0 * kSecondsPerDay;
  ec.seed = 13;
  const sim::GdiEnvironment env(ec);

  const auto make = [&] {
    sim::GdiDeploymentConfig dc;
    dc.num_sensors = 8;
    dc.seed = 13;
    auto s = sim::make_gdi_deployment(env, dc);
    auto plan = std::make_shared<faults::InjectionPlan>();
    plan->add(3, std::make_unique<faults::StuckAtFault>(AttrVec{15.0, 1.0}), 0.2 * kSecondsPerDay);
    plan->add(5, std::make_unique<faults::RandomNoiseFault>(10.0, 13), 0.1 * kSecondsPerDay);
    s.set_transform(faults::make_transform(plan));
    return s;
  };

  auto serial_sim = make();
  const auto serial = serial_sim.run(ec.duration_seconds);
  auto parallel_sim = make();
  util::ThreadPool pool(3);
  const auto parallel = parallel_sim.run(ec.duration_seconds, pool);
  EXPECT_EQ(parallel.trace, serial.trace);
}

}  // namespace
}  // namespace sentinel::core
