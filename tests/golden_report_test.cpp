// Golden-identity test guarding the hot-path rework: a fixed 7-day injected
// scenario streamed through a fresh single-threaded pipeline, with the screen
// tier off and with it on, must produce a DiagnosisReport rendering and
// checkpoint bytes identical to the committed golden files, which were
// generated by the pre-optimization implementation (the screened pair by the
// implementation that still had a separate screened per-window path), and
// the same per-window series (c_i, o_i and every per-sensor alarm row) as
// the implementation that still kept a window history wrote.
// Any change to the per-window arithmetic (state identification, centroid
// EMA, HMM updates, serialization order) shows up here as a byte diff.
//
// Regenerate (only when an *intentional* behavior change is made) with:
//   SENTINEL_REGEN_GOLDEN=1 ./sentinel_tests --gtest_filter='Golden*'

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/scenario.h"
#include "core/fleet.h"
#include "core/pipeline.h"
#include "faults/fault_models.h"
#include "faults/injection_plan.h"
#include "sim/simulator.h"
#include "trace/binary_trace.h"
#include "trace/trace_io.h"
#include "trace/trace_reader.h"
#include "util/metrics.h"
#include "util/serialize.h"

#ifndef SENTINEL_GOLDEN_DIR
#define SENTINEL_GOLDEN_DIR "tests/golden"
#endif

namespace sentinel {
namespace {

std::string golden_path(const std::string& name) {
  return std::string(SENTINEL_GOLDEN_DIR) + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return {};
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

/// The golden scenario: 10 GDI sensors over 7 days, a stuck-at humidity
/// fault on sensor 6 from day 2 and an additive offset on sensor 3 from
/// day 4 -- enough churn to exercise spawns, merges, tracks, and both the
/// error and the significant-state machinery.
std::vector<SensorRecord> golden_trace(const sim::GdiEnvironment& env) {
  sim::GdiDeploymentConfig dc;
  dc.num_sensors = 10;
  dc.seed = 20260806;
  auto simulator = sim::make_gdi_deployment(env, dc);
  auto plan = std::make_shared<faults::InjectionPlan>();
  plan->add(6, std::make_unique<faults::StuckAtFault>(AttrVec{15.0, 1.0}),
            2.0 * kSecondsPerDay);
  plan->add(3, std::make_unique<faults::AdditiveFault>(AttrVec{6.0, -4.0}),
            4.0 * kSecondsPerDay);
  simulator.set_transform(faults::make_transform(plan));
  return simulator.run(7.0 * kSecondsPerDay).trace;
}

core::PipelineConfig golden_config(const sim::GdiEnvironment& env) {
  core::PipelineConfig cfg;
  for (double t = 0.0; t < 2.0 * kSecondsPerDay; t += 2.0 * kSecondsPerHour) {
    cfg.initial_states.push_back(env.truth(t));
  }
  cfg.initial_states.resize(6);
  return cfg;
}

struct GoldenRun {
  std::string report;
  std::string checkpoint;
};

/// `screen_mode` is PipelineConfig::screen's mode and `scope` the
/// checkpoint's.
GoldenRun run_golden_scenario(screen::ScreenMode screen_mode = screen::ScreenMode::kOff,
                              core::CheckpointScope scope = core::CheckpointScope::kModel) {
  sim::GdiEnvironmentConfig ec;
  ec.duration_seconds = 7.0 * kSecondsPerDay;
  ec.seed = 20260806;
  const sim::GdiEnvironment env(ec);
  const auto trace = golden_trace(env);

  core::PipelineConfig cfg = golden_config(env);
  cfg.screen.mode = screen_mode;
  core::DetectionPipeline p(cfg);
  for (const auto& rec : trace) p.add_record(rec);
  p.finish();

  GoldenRun out;
  out.report = core::to_string(p.diagnose());
  std::ostringstream ckpt;
  p.save_checkpoint(ckpt, serialize::Format::kText, scope);
  out.checkpoint = ckpt.str();
  return out;
}

/// Compare a run with the committed `<stem>.report.txt` and
/// `<stem>.checkpoint.txt`, or rewrite them under SENTINEL_REGEN_GOLDEN.
void check_golden(const GoldenRun& got, const std::string& stem) {
  ASSERT_FALSE(got.report.empty());
  ASSERT_FALSE(got.checkpoint.empty());

  const std::string report_path = golden_path(stem + ".report.txt");
  const std::string ckpt_path = golden_path(stem + ".checkpoint.txt");
  if (std::getenv("SENTINEL_REGEN_GOLDEN") != nullptr) {
    std::ofstream(report_path, std::ios::binary) << got.report;
    std::ofstream(ckpt_path, std::ios::binary) << got.checkpoint;
    GTEST_SKIP() << "golden files regenerated at " << SENTINEL_GOLDEN_DIR;
  }

  const std::string want_report = read_file(report_path);
  const std::string want_ckpt = read_file(ckpt_path);
  ASSERT_FALSE(want_report.empty()) << "missing golden file; run with SENTINEL_REGEN_GOLDEN=1";
  ASSERT_FALSE(want_ckpt.empty()) << "missing golden file; run with SENTINEL_REGEN_GOLDEN=1";

  EXPECT_EQ(got.report, want_report);
  EXPECT_EQ(got.checkpoint, want_ckpt);
}

/// One line per processed window: index, start, o_i, c_i, majority size,
/// then each row's sensor, l_j, raw flag and filtered flag.
std::string render_windows(const std::vector<core::WindowSummary>& windows) {
  std::ostringstream os;
  os.precision(17);
  for (const auto& w : windows) {
    os << w.window_index << ' ' << w.window_start << ' ' << w.observable << ' ' << w.correct
       << ' ' << w.majority_size;
    for (const auto& [sensor, info] : w.sensors) {
      os << ' ' << sensor << ':' << info.mapped << ':' << info.raw_alarm << info.filtered_alarm;
    }
    os << '\n';
  }
  return os.str();
}

/// The golden scenario's window series, collected from last_window().
std::string golden_windows(screen::ScreenMode screen_mode) {
  sim::GdiEnvironmentConfig ec;
  ec.duration_seconds = 7.0 * kSecondsPerDay;
  ec.seed = 20260806;
  const sim::GdiEnvironment env(ec);
  const auto trace = golden_trace(env);
  core::PipelineConfig cfg = golden_config(env);
  cfg.screen.mode = screen_mode;
  core::DetectionPipeline p(cfg);
  return render_windows(bench::collect_windows(p, trace));
}

TEST(GoldenReport, WindowSeriesBytesUnchanged) {
  // Both screen modes: screened, only the escalated sensors have rows.
  const bool regen = std::getenv("SENTINEL_REGEN_GOLDEN") != nullptr;
  for (const auto& [mode, stem] :
       {std::pair{screen::ScreenMode::kOff, "scenario7d"},
        std::pair{screen::ScreenMode::kScreen, "scenario7d.screened"}}) {
    const std::string got = golden_windows(mode);
    ASSERT_FALSE(got.empty()) << stem;
    const std::string path = golden_path(std::string(stem) + ".windows.txt");
    if (regen) {
      std::ofstream(path, std::ios::binary) << got;
      continue;
    }
    const std::string want = read_file(path);
    ASSERT_FALSE(want.empty()) << "missing golden file; run with SENTINEL_REGEN_GOLDEN=1";
    EXPECT_EQ(got, want) << stem;
  }
  if (regen) GTEST_SKIP() << "golden files regenerated at " << SENTINEL_GOLDEN_DIR;
}

TEST(GoldenReport, ScenarioReportAndCheckpointBytesUnchanged) {
  check_golden(run_golden_scenario(), "scenario7d");
}

TEST(GoldenReport, ScreenedScenarioBytesUnchanged) {
  // The same scenario with the screen tier on, so the screened bloc's vote,
  // its mean and its EMA step are pinned too; the resumable checkpoint
  // carries the screen bank's state.
  check_golden(run_golden_scenario(screen::ScreenMode::kScreen, core::CheckpointScope::kResumable),
               "scenario7d.screened");
}

TEST(GoldenReport, BytesUnchangedWithStageTimersAndMetrics) {
  // The observability layer is observational only: the same scenario with
  // per-stage timers enabled (metrics counters are always live) must render
  // the report and serialize the checkpoint to the exact golden bytes. A
  // diff here means a metric crept into detection arithmetic.
  sim::GdiEnvironmentConfig ec;
  ec.duration_seconds = 7.0 * kSecondsPerDay;
  ec.seed = 20260806;
  const sim::GdiEnvironment env(ec);
  const auto trace = golden_trace(env);

  core::PipelineConfig cfg = golden_config(env);
  cfg.stage_timers = true;
  core::DetectionPipeline p(cfg);
  for (const auto& rec : trace) p.add_record(rec);
  p.finish();

  std::ostringstream ckpt;
  p.save_checkpoint(ckpt);

  if (std::getenv("SENTINEL_REGEN_GOLDEN") != nullptr) {
    GTEST_SKIP() << "golden files owned by ScenarioReportAndCheckpointBytesUnchanged";
  }
  const std::string want_report = read_file(golden_path("scenario7d.report.txt"));
  const std::string want_ckpt = read_file(golden_path("scenario7d.checkpoint.txt"));
  ASSERT_FALSE(want_report.empty()) << "missing golden file; run with SENTINEL_REGEN_GOLDEN=1";
  EXPECT_EQ(core::to_string(p.diagnose()), want_report);
  EXPECT_EQ(ckpt.str(), want_ckpt);

  // The timers did actually run: every stage histogram saw one sample per
  // processed window (the proof this test covered the enabled path).
  const auto snap = util::metrics().snapshot();
  const auto it = snap.histograms.find("pipeline.stage.identify_ns");
  ASSERT_NE(it, snap.histograms.end());
  EXPECT_GE(it->second.count, p.windows_processed());
}

TEST(GoldenReport, StreamingAndBatchPathsIdentical) {
  // The streaming windower (add_record) and the batch path (process_trace)
  // must close the same windows and learn the same models byte-for-byte.
  sim::GdiEnvironmentConfig ec;
  ec.duration_seconds = 7.0 * kSecondsPerDay;
  ec.seed = 20260806;
  const sim::GdiEnvironment env(ec);
  const auto trace = golden_trace(env);
  const auto cfg = golden_config(env);

  core::DetectionPipeline streaming(cfg);
  for (const auto& rec : trace) streaming.add_record(rec);
  streaming.finish();

  core::DetectionPipeline batch(cfg);
  batch.process_trace(trace);

  std::ostringstream a, b;
  streaming.save_checkpoint(a);
  batch.save_checkpoint(b);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_EQ(core::to_string(streaming.diagnose()), core::to_string(batch.diagnose()));
}

TEST(GoldenReport, CheckpointRoundTripAfterSpawnsAndMerges) {
  // Save -> load -> save must be byte-identical even after the model-state
  // set has both spawned (faults create new regimes) and merged states, and
  // the restored pipeline must keep diagnosing identically.
  sim::GdiEnvironmentConfig ec;
  ec.duration_seconds = 7.0 * kSecondsPerDay;
  ec.seed = 20260806;
  const sim::GdiEnvironment env(ec);
  const auto trace = golden_trace(env);
  const auto cfg = golden_config(env);

  core::DetectionPipeline p(cfg);
  for (const auto& rec : trace) p.add_record(rec);
  p.finish();
  EXPECT_GT(p.model_states().spawn_count(), 0u);

  std::stringstream first;
  p.save_checkpoint(first);
  core::DetectionPipeline restored(cfg, first);
  std::ostringstream second;
  restored.save_checkpoint(second);
  EXPECT_EQ(second.str(), first.str());
  EXPECT_EQ(core::to_string(restored.diagnose()), core::to_string(p.diagnose()));
}

TEST(GoldenReport, FleetReportIdenticalAcrossInputFormatsAndIngestPaths) {
  // The I/O data plane must be invisible to detection: the same records fed
  // as (1) an in-memory batch, (2) a streamed CSV file through the zero-copy
  // reader, and (3) a streamed SNTRB1 binary file must yield byte-identical
  // FleetReports. The binary file is written from the *parsed* CSV records,
  // so all three paths see the exact same doubles.
  sim::GdiEnvironmentConfig ec;
  ec.duration_seconds = 7.0 * kSecondsPerDay;
  ec.seed = 20260806;
  const sim::GdiEnvironment env(ec);
  const auto trace = golden_trace(env);
  const auto cfg = golden_config(env);

  const std::string csv_path = testing::TempDir() + "golden_fleet.csv";
  const std::string bin_path = testing::TempDir() + "golden_fleet.snt";
  write_trace_file(csv_path, trace);
  const auto parsed = read_trace_file(csv_path);  // CSV rounding happens here, once
  ASSERT_EQ(parsed.records.size(), trace.size());
  write_trace_binary_file(bin_path, parsed.records);

  const auto report_for = [&](const std::string& label) {
    core::FleetMonitor fleet(6.0);
    fleet.add_region("golden", cfg);
    if (label == "batch") {
      fleet.add_records("golden", parsed.records);
    } else {
      const auto reader = open_trace_reader(label);
      fleet.ingest("golden", *reader);
    }
    fleet.finish();
    return core::to_string(fleet.diagnose());
  };

  const std::string from_batch = report_for("batch");
  const std::string from_csv = report_for(csv_path);
  const std::string from_binary = report_for(bin_path);
  ASSERT_FALSE(from_batch.empty());
  EXPECT_EQ(from_csv, from_batch);
  EXPECT_EQ(from_binary, from_batch);

  std::remove(csv_path.c_str());
  std::remove(bin_path.c_str());
}

}  // namespace
}  // namespace sentinel
