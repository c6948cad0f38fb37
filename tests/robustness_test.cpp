// Robustness tests: the pipeline and trace reader must never crash or
// produce self-inconsistent output on hostile input -- random record soup,
// garbage CSV bytes, sensors joining/leaving mid-deployment, random
// injection plans.

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include "core/fleet.h"
#include "core/pipeline.h"
#include "faults/attack_models.h"
#include "faults/fault_models.h"
#include "faults/injection_plan.h"
#include "sim/simulator.h"
#include "trace/binary_trace.h"
#include "trace/trace_io.h"
#include "trace/trace_reader.h"
#include "util/rng.h"

namespace sentinel {
namespace {

core::PipelineConfig small_config() {
  core::PipelineConfig cfg;
  cfg.window_seconds = 600.0;
  cfg.initial_states = {{0.0, 0.0}, {50.0, 50.0}};
  return cfg;
}

TEST(Robustness, RandomRecordSoupNeverCrashesThePipeline) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    Rng rng(seed, "fuzz-records");
    core::DetectionPipeline p(small_config());
    for (int i = 0; i < 3000; ++i) {
      SensorRecord r;
      r.sensor = static_cast<SensorId>(rng.uniform_int(0, 20));
      // Mostly forward time with occasional out-of-order records.
      r.time = static_cast<double>(i) * 60.0 + rng.uniform(-600.0, 600.0);
      r.attrs = {rng.uniform(-100.0, 100.0), rng.uniform(-100.0, 100.0)};
      p.add_record(r);
    }
    p.finish();
    // Output is self-consistent, whatever it says.
    const auto report = p.diagnose();
    for (const auto& [id, d] : report.sensors) {
      (void)id;
      if (d.verdict == core::Verdict::kNormal) {
        EXPECT_EQ(d.kind, core::AnomalyKind::kNone);
      } else {
        EXPECT_NE(d.kind, core::AnomalyKind::kNone);
      }
    }
    // Checkpoint of arbitrary state still round-trips.
    std::stringstream ss;
    p.save_checkpoint(ss);
    core::DetectionPipeline restored(small_config(), ss);
    EXPECT_EQ(restored.model_states().size(), p.model_states().size());
  }
}

TEST(Robustness, RandomInjectionPlansKeepInvariants) {
  sim::GdiEnvironmentConfig ec;
  ec.duration_seconds = 5.0 * kSecondsPerDay;
  const sim::GdiEnvironment env(ec);

  for (const std::uint64_t seed : {11ull, 12ull, 13ull, 14ull}) {
    Rng rng(seed, "fuzz-plan");
    auto simulator = sim::make_gdi_deployment(env, {});
    auto plan = std::make_shared<faults::InjectionPlan>();
    // 1-4 random fault entries on random sensors with random activation.
    const auto entries = rng.uniform_int(1, 4);
    for (int e = 0; e < entries; ++e) {
      const auto sensor = static_cast<SensorId>(rng.uniform_int(0, 9));
      const double start = rng.uniform(0.0, 4.0) * kSecondsPerDay;
      switch (rng.uniform_int(0, 3)) {
        case 0:
          plan->add(sensor, std::make_unique<faults::StuckAtFault>(
                                AttrVec{rng.uniform(-10, 50), rng.uniform(0, 100)}),
                    start);
          break;
        case 1:
          plan->add(sensor, std::make_unique<faults::CalibrationFault>(
                                AttrVec{rng.uniform(0.3, 2.0), rng.uniform(0.3, 2.0)}),
                    start);
          break;
        case 2:
          plan->add(sensor, std::make_unique<faults::AdditiveFault>(
                                AttrVec{rng.uniform(-20, 20), rng.uniform(-20, 20)}),
                    start);
          break;
        default:
          plan->add(sensor, std::make_unique<faults::RandomNoiseFault>(rng.uniform(1, 15), seed),
                    start);
          break;
      }
    }
    simulator.set_transform(faults::make_transform(plan));
    const auto trace = simulator.run(ec.duration_seconds).trace;

    core::PipelineConfig cfg;
    for (double t = 0.0; t < kSecondsPerDay; t += 4.0 * kSecondsPerHour) {
      cfg.initial_states.push_back(env.truth(t));
    }
    core::DetectionPipeline p(cfg);
    p.process_trace(trace);

    // Invariants regardless of what was injected:
    EXPECT_TRUE(p.m_co().transition_matrix().is_row_stochastic(1e-9));
    EXPECT_TRUE(p.m_co().emission_matrix_avg().is_row_stochastic(1e-9));
    EXPECT_LE(p.model_states().size(), cfg.model_states.max_states);
    const auto report = p.diagnose();
    // A network attack verdict must never appear without a coalition.
    if (report.network.verdict == core::Verdict::kAttack) {
      EXPECT_GE(p.coalition_size(), cfg.classifier.min_implicated_sensors);
    }
  }
}

TEST(Robustness, SensorChurnHandledGracefully) {
  // Sensors join and leave mid-deployment: late joiner id 20 appears at day
  // 2; sensor 3 goes permanently silent at day 3.
  sim::GdiEnvironmentConfig ec;
  ec.duration_seconds = 6.0 * kSecondsPerDay;
  const sim::GdiEnvironment env(ec);

  sim::Simulator s(env);
  for (std::size_t i = 0; i < 8; ++i) {
    sim::MoteConfig mc;
    mc.id = static_cast<SensorId>(i);
    mc.noise_sigma = 0.4;
    mc.seed = 17;
    s.add_mote(mc);
  }
  sim::MoteConfig late;
  late.id = 20;
  late.noise_sigma = 0.4;
  late.seed = 17;
  s.add_mote(late);

  auto plan = std::make_shared<faults::InjectionPlan>();
  plan->add(3, std::make_unique<faults::MuteFault>(), 3.0 * kSecondsPerDay);
  plan->add(20, std::make_unique<faults::MuteFault>(), 0.0, 2.0 * kSecondsPerDay);
  s.set_transform(faults::make_transform(plan));
  const auto trace = s.run(ec.duration_seconds).trace;

  core::PipelineConfig cfg;
  for (double t = 0.0; t < kSecondsPerDay; t += 4.0 * kSecondsPerHour) {
    cfg.initial_states.push_back(env.truth(t));
  }
  core::DetectionPipeline p(cfg);
  p.process_trace(trace);

  // The late joiner participates once it appears; no track is fabricated
  // for either churned sensor; diagnosis stays clean.
  EXPECT_GT(p.alarms().window_count(20), 80u);
  const auto report = p.diagnose();
  EXPECT_EQ(report.network.verdict, core::Verdict::kNormal);
  EXPECT_FALSE(report.sensors.count(3));
  EXPECT_FALSE(report.sensors.count(20));
}

TEST(Robustness, GarbageCsvNeverCrashesTheReader) {
  Rng rng(23, "fuzz-csv");
  for (int round = 0; round < 20; ++round) {
    std::string blob;
    const auto len = rng.uniform_int(0, 2000);
    for (int i = 0; i < len; ++i) {
      blob.push_back(static_cast<char>(rng.uniform_int(1, 255)));
    }
    std::stringstream ss(blob);
    const auto result = read_trace(ss);  // must not throw or crash
    // Whatever parsed is well-formed.
    for (const auto& rec : result.records) {
      EXPECT_FALSE(rec.attrs.empty());
    }
  }
}

TEST(Robustness, AllSameValueTraceDoesNotDivide) {
  // Degenerate: every reading identical -- no variance anywhere.
  core::DetectionPipeline p(small_config());
  for (int i = 0; i < 500; ++i) {
    p.add_record({static_cast<SensorId>(i % 5), i * 60.0, {1.0, 1.0}});
  }
  p.finish();
  const auto report = p.diagnose();
  EXPECT_EQ(report.network.verdict, core::Verdict::kNormal);
  EXPECT_TRUE(report.sensors.empty());
}

/// Run `fn` on its own thread with a deadline. A call still running past it
/// is a hang the test cannot unwind (the thread cannot be cancelled), so it
/// fails the test and ends the process instead of stalling the whole suite.
template <typename Fn>
void run_with_deadline(std::chrono::seconds deadline, Fn fn) {
  std::packaged_task<void()> task(std::move(fn));
  std::future<void> done = task.get_future();
  std::thread worker(std::move(task));
  if (done.wait_for(deadline) != std::future_status::ready) {
    ADD_FAILURE() << "call still running after " << deadline.count() << " s";
    std::fflush(stdout);
    std::_Exit(1);
  }
  worker.join();
  done.get();  // rethrows a failure from the call
}

/// Windows skipped by a pipeline fed five sensors at t = 0 and then one
/// record at `t`, through a one-region fleet at `threads` (threads > 1 hands
/// the records over as a queued batch).
std::size_t skipped_after_jump(double t, std::size_t threads) {
  core::FleetConfig fc;
  fc.threads = threads;
  core::FleetMonitor fleet(fc);
  core::PipelineConfig cfg = small_config();
  cfg.window_seconds = kSecondsPerHour;
  fleet.add_region("r", cfg);
  std::vector<SensorRecord> recs;
  for (SensorId s = 0; s < 5; ++s) recs.push_back({s, 0.0, {0.0, 0.0}});
  recs.push_back({0, t, {0.0, 0.0}});
  run_with_deadline(std::chrono::seconds(10), [&] {
    fleet.add_records("r", recs);
    fleet.drain();
  });
  EXPECT_EQ(fleet.region_health("r").health, core::RegionHealth::kHealthy);
  EXPECT_EQ(fleet.region("r").windows_processed(), 1u);
  return fleet.region("r").windows_skipped();
}

TEST(Robustness, FarFutureTimestampSkipsTheGapAtOnce) {
  // t = 1e300 clamps to window 9e18; every window between it and window 1
  // is empty, so each would be skipped -- the pipeline counts the whole gap
  // in one step, because walking ~9e18 windows never finishes.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    EXPECT_EQ(skipped_after_jump(1e300, threads), std::size_t{8999999999999999998u})
        << "threads=" << threads;
    // A long but finite jump counts exactly the windows it crosses.
    EXPECT_EQ(skipped_after_jump(3.6e9, threads), 999999u) << "threads=" << threads;
  }
}

TEST(Robustness, BatchPathSkipsAFarFutureGapAndCountsTheClamp) {
  // The same jump through process_trace and window_trace: both run the
  // streaming windower, so the gap is one step and the clamp is counted.
  std::vector<SensorRecord> recs;
  for (SensorId s = 0; s < 5; ++s) recs.push_back({s, 0.0, {0.0, 0.0}});
  recs.push_back({0, 1e300, {0.0, 0.0}});
  core::PipelineConfig cfg = small_config();
  cfg.window_seconds = kSecondsPerHour;
  cfg.min_sensors_per_window = 1;  // the far window is processed: skips = the gap
  core::DetectionPipeline p(cfg);
  std::vector<ObservationSet> windows;
  run_with_deadline(std::chrono::seconds(10), [&] {
    p.process_trace(recs);
    windows = window_trace(recs, kSecondsPerHour);
  });
  EXPECT_EQ(p.windows_skipped(), std::size_t{8999999999999999998u});
  EXPECT_EQ(p.windows_processed(), 2u);
  EXPECT_EQ(p.counters().clamped_records, 1u);
  EXPECT_EQ(p.counters().late_records, 0u);
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(windows[1].window_index, std::size_t{9000000000000000000u});
}

TEST(Robustness, FifoTracePathIsRefusedWithoutOpening) {
  // A trace is read through a mapping, so a path that is not a regular file
  // is refused before it is opened -- with no writer, opening a FIFO would
  // block -- by open_trace_reader and by either reader built on it directly.
  // A directory is refused the same way.
  const std::string stem = (std::filesystem::temp_directory_path() /
                            ("sentinel_robustness_" + std::to_string(::getpid())))
                               .string();
  const std::string fifo = stem + ".fifo";
  const std::string dir = stem + ".dir";
  std::filesystem::remove(fifo);
  std::filesystem::remove_all(dir);
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  ASSERT_TRUE(std::filesystem::create_directory(dir));
  const auto expect_refused = [](const std::function<void()>& open, const std::string& what) {
    try {
      open();
      ADD_FAILURE() << what << " was opened";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("not a regular file"), std::string::npos)
          << what << ": " << e.what();
    }
  };
  run_with_deadline(std::chrono::seconds(10), [&] {
    for (const std::string& path : {fifo, dir}) {
      expect_refused([&] { open_trace_reader(path); }, "open_trace_reader " + path);
      expect_refused([&] { CsvTraceReader{path}; }, "CsvTraceReader " + path);
      expect_refused([&] { BinaryTraceReader{path}; }, "BinaryTraceReader " + path);
    }
  });
  std::filesystem::remove(fifo);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace sentinel
