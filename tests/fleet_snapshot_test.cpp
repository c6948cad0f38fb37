// FleetMonitor snapshot/epoch API and backpressure attribution -- the fleet
// refactors behind the resident service (src/service):
//
//  - report_snapshot() diagnoses the live fleet without finish()-style
//    finalization, and taking snapshots mid-stream must leave the final
//    finish() report byte-identical to a never-snapshotted run, at any
//    thread count and with the screen tier on or off;
//  - finish_region() finalizes one tenant's region while the others keep
//    ingesting, with per-region diagnoses identical to a collective
//    finish();
//  - RegionState::backpressure_waits / backpressure_block_ns attribute
//    producer block time to the region (the tenant) whose full queue
//    caused it.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/fleet.h"
#include "core/pipeline.h"
#include "sim/simulator.h"
#include "trace/binary_trace.h"
#include "trace/trace_reader.h"

namespace sentinel {
namespace {

/// Two-day, 8-sensor scenario: small enough to run the thread x screen
/// matrix quickly, long enough for several windows and model updates.
std::vector<SensorRecord> scenario_trace() {
  sim::GdiEnvironmentConfig ec;
  ec.duration_seconds = 2.0 * kSecondsPerDay;
  ec.seed = 20260808;
  const sim::GdiEnvironment env(ec);
  sim::GdiDeploymentConfig dc;
  dc.num_sensors = 8;
  dc.seed = 20260808;
  return sim::make_gdi_deployment(env, dc).run(ec.duration_seconds).trace;
}

core::PipelineConfig scenario_config(screen::ScreenMode mode) {
  sim::GdiEnvironmentConfig ec;
  ec.duration_seconds = 2.0 * kSecondsPerDay;
  ec.seed = 20260808;
  const sim::GdiEnvironment env(ec);
  core::PipelineConfig cfg;
  for (double t = 0.0; t < 1.0 * kSecondsPerDay; t += 2.0 * kSecondsPerHour) {
    cfg.initial_states.push_back(env.truth(t));
  }
  cfg.initial_states.resize(6);
  cfg.screen.mode = mode;
  return cfg;
}

std::string final_report(std::size_t threads, screen::ScreenMode mode, bool snapshot_midway,
                         std::uint64_t* epochs_out = nullptr) {
  const auto trace = scenario_trace();
  core::FleetConfig fc;
  fc.threads = threads;
  core::FleetMonitor fleet(fc);
  fleet.add_region("north", scenario_config(mode));
  fleet.add_region("south", scenario_config(mode));

  const std::size_t half = trace.size() / 2;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    fleet.add_record(i % 3 == 0 ? "south" : "north", trace[i]);
    if (snapshot_midway && (i == half || i == half / 2)) {
      const auto snap = fleet.report_snapshot();
      EXPECT_GT(snap.epoch, 0u);
      EXPECT_FALSE(core::to_string(snap.report).empty());
    }
  }
  if (epochs_out != nullptr) *epochs_out = fleet.snapshot_epoch();
  fleet.finish();
  return core::to_string(fleet.diagnose());
}

TEST(FleetSnapshot, SnapshotsDoNotPerturbTheFinalReport) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    for (const auto mode : {screen::ScreenMode::kOff, screen::ScreenMode::kScreen}) {
      std::uint64_t epochs = 0;
      const std::string undisturbed = final_report(threads, mode, false);
      const std::string snapshotted = final_report(threads, mode, true, &epochs);
      ASSERT_FALSE(undisturbed.empty());
      EXPECT_EQ(snapshotted, undisturbed)
          << "threads=" << threads << " mode=" << screen::to_string(mode);
      EXPECT_EQ(epochs, 2u);
    }
  }
}

TEST(FleetSnapshot, SnapshotMatchesDiagnoseAndCountsEpochs) {
  const auto trace = scenario_trace();
  core::FleetMonitor fleet(6.0);
  fleet.add_region("r", scenario_config(screen::ScreenMode::kOff));
  for (const auto& rec : trace) fleet.add_record("r", rec);

  EXPECT_EQ(fleet.snapshot_epoch(), 0u);
  const auto first = fleet.report_snapshot();
  EXPECT_EQ(first.epoch, 1u);
  // A snapshot is diagnose() plus the epoch: same rendering, same verdicts.
  EXPECT_EQ(core::to_string(first.report), core::to_string(fleet.diagnose()));

  const auto second = fleet.report_snapshot();
  EXPECT_EQ(second.epoch, 2u);
  EXPECT_EQ(fleet.snapshot_epoch(), 2u);
  // Nothing was ingested between the two epochs, so the reports agree.
  EXPECT_EQ(core::to_string(second.report), core::to_string(first.report));
}

TEST(FleetSnapshot, FinishRegionFinalizesOneTenantAtATime) {
  const auto trace = scenario_trace();
  const auto cfg = scenario_config(screen::ScreenMode::kOff);

  // Baseline: both regions ingest everything, one collective finish().
  core::FleetMonitor collective(6.0);
  collective.add_region("north", cfg);
  collective.add_region("south", cfg);
  for (const auto& rec : trace) {
    collective.add_record("north", rec);
    collective.add_record("south", rec);
  }
  collective.finish();
  const auto want = collective.diagnose();

  // Staggered: north's feed ends (and is finalized) while south is still
  // mid-stream; south keeps ingesting afterwards, then finishes.
  core::FleetMonitor staggered(6.0);
  staggered.add_region("north", cfg);
  staggered.add_region("south", cfg);
  for (const auto& rec : trace) staggered.add_record("north", rec);
  const std::size_t half = trace.size() / 2;
  for (std::size_t i = 0; i < half; ++i) staggered.add_record("south", trace[i]);
  staggered.finish_region("north");
  for (std::size_t i = half; i < trace.size(); ++i) staggered.add_record("south", trace[i]);
  staggered.finish_region("south");
  const auto got = staggered.diagnose();

  EXPECT_EQ(core::to_string(got), core::to_string(want));
  EXPECT_EQ(staggered.region_health("north").health, core::RegionHealth::kHealthy);
}

TEST(FleetSnapshot, QueueDepthCountsTheProducerBatch) {
  // threads = 1 batches like any fleet: a record waits in the producer
  // batch until the batch fills (then the inline drain applies it) or a
  // drain hands it over.
  core::FleetMonitor fleet(6.0);
  fleet.add_region("r", scenario_config(screen::ScreenMode::kOff));
  EXPECT_EQ(fleet.queue_depth("r"), 0u);
  const SensorRecord rec{1, 10.0, AttrVec{20.0, 50.0}};
  fleet.add_record("r", rec);
  EXPECT_EQ(fleet.queue_depth("r"), 1u);
  fleet.drain();
  EXPECT_EQ(fleet.queue_depth("r"), 0u);
  const std::vector<SensorRecord> batch(core::FleetMonitor::kBatchRecords - 1, rec);
  fleet.add_records("r", batch);
  EXPECT_EQ(fleet.queue_depth("r"), batch.size());
  fleet.add_record("r", rec);
  EXPECT_EQ(fleet.queue_depth("r"), 0u);  // full: handed over and applied
  EXPECT_THROW((void)fleet.queue_depth("nope"), std::exception);
}

TEST(FleetSnapshot, BackpressureBlockTimeIsAttributedPerIngest) {
  const auto trace = scenario_trace();
  const std::string path = testing::TempDir() + "backpressure_trace.snt";
  write_trace_binary_file(path, trace);

  core::FleetConfig fc;
  fc.threads = 4;
  fc.max_queue_records = 16;  // below one batch: any queued batch blocks the next
  core::FleetMonitor fleet(fc);
  fleet.add_region("r", scenario_config(screen::ScreenMode::kOff));

  // Small read batches so the producer hands off (and collides with the
  // 16-record queue bound) at every producer batch, not once per default
  // read.
  const auto reader = open_trace_reader(path);
  const auto sum = fleet.ingest("r", *reader, /*batch_records=*/64);
  ASSERT_TRUE(sum.status.is_ok());
  ASSERT_EQ(sum.records, trace.size());

  // Capture before finish(): finishing flushes the producer batch and may
  // legitimately wait (and account) once more.
  const std::uint64_t waits = fleet.region_health("r").backpressure_waits;
  const std::uint64_t block_ns = fleet.region_health("r").backpressure_block_ns;
  // With a 16-record bound and thousands of records on a shared pool, the
  // producer cannot avoid waiting at least once.
  EXPECT_GT(waits, 0u);
  EXPECT_GT(block_ns, 0u);
  fleet.finish();
  std::remove(path.c_str());
}

TEST(FleetSnapshot, SerialIngestReportsZeroBackpressure) {
  const auto trace = scenario_trace();
  const std::string path = testing::TempDir() + "backpressure_serial.snt";
  write_trace_binary_file(path, trace);

  core::FleetMonitor fleet(6.0);
  fleet.add_region("r", scenario_config(screen::ScreenMode::kOff));
  ASSERT_TRUE(fleet.ingest_file("r", path).status.is_ok());
  const auto& st = fleet.region_health("r");
  EXPECT_EQ(st.backpressure_waits, 0u);
  EXPECT_EQ(st.backpressure_block_ns, 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sentinel
