// Per-region health lifecycle tests: a poisoned feed (truncated binary,
// hostile CSV, missing file, mid-stream reader death) must quarantine
// exactly its own region -- with the cause attributed by name -- while every
// other region ingests, finishes, and diagnoses bit-identically to a fleet
// that never contained the sick one, at any thread count. Backpressure and
// silence end in their documented states deterministically.

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/fleet.h"
#include "trace/binary_trace.h"
#include "trace/trace_io.h"
#include "util/metrics.h"

namespace sentinel::core {
namespace {

std::string temp_path(const std::string& name) { return testing::TempDir() + name; }

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  ASSERT_TRUE(out) << path;
  out << content;
}

PipelineConfig region_config() {
  PipelineConfig cfg;
  cfg.window_seconds = kSecondsPerHour;
  cfg.initial_states = {{10.0, 60.0}, {30.0, 40.0}};
  return cfg;
}

/// Two-phase 2-dim workload (as in the fleet ingest tests), with a small
/// per-seed offset so regions are distinct but structurally similar.
std::vector<SensorRecord> make_good_trace(std::uint64_t seed, std::size_t n = 2000) {
  std::vector<SensorRecord> trace;
  trace.reserve(n);
  const double jitter = 0.05 * static_cast<double>(seed % 5);
  for (std::size_t i = 0; i < n; ++i) {
    const bool high = (i / 240) % 2 == 1;
    SensorRecord rec;
    rec.sensor = static_cast<SensorId>(i % 4);
    rec.time = static_cast<double>(i) * 30.0;
    rec.attrs = {(high ? 30.0 : 10.0) + 0.1 * static_cast<double>(i % 3) + jitter,
                 (high ? 40.0 : 60.0) - 0.1 * static_cast<double>(i % 5) - jitter};
    trace.push_back(std::move(rec));
  }
  return trace;
}

/// A binary trace whose payload is chopped mid-record: the reader serves the
/// prefix and ends with a kDataLoss status.
void write_truncated_binary(const std::string& path, std::uint64_t seed) {
  write_trace_binary_file(path, make_good_trace(seed));
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  in.close();
  bytes.resize(bytes.size() - 5);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

TEST(FleetHealth, QuarantinedRegionExcludedBitIdenticallyAtAnyThreadCount) {
  const std::vector<std::string> good = {"east", "north", "south"};
  std::vector<std::string> good_paths;
  for (std::size_t i = 0; i < good.size(); ++i) {
    const auto path = temp_path("fh_good_" + good[i] + ".csv");
    write_trace_file(path, make_good_trace(i + 1));
    good_paths.push_back(path);
  }
  const auto bad_path = temp_path("fh_bad.snt");
  write_truncated_binary(bad_path, 9);

  // region name -> to_string(DiagnosisReport), keyed by thread count, to
  // prove thread-count independence on top of with/without-bad identity.
  std::map<std::size_t, std::map<std::string, std::string>> by_threads;

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    FleetConfig fc;
    fc.threads = threads;
    FleetMonitor with_bad(fc);
    for (std::size_t i = 0; i < good.size(); ++i) with_bad.add_region(good[i], region_config());
    with_bad.add_region("bad", region_config());
    for (std::size_t i = 0; i < good.size(); ++i) {
      const auto sum = with_bad.ingest_file(good[i], good_paths[i]);
      EXPECT_TRUE(sum.status.is_ok()) << sum.status.to_string();
      EXPECT_EQ(sum.records, 2000u);
    }
    const auto bad_sum = with_bad.ingest_file("bad", bad_path);
    EXPECT_FALSE(bad_sum.status.is_ok());
    with_bad.finish();

    const RegionState& bad = with_bad.region_health("bad");
    EXPECT_EQ(bad.health, RegionHealth::kQuarantined);
    EXPECT_EQ(bad.status.code(), util::StatusCode::kDataLoss);
    EXPECT_NE(bad.status.message().find("region bad"), std::string::npos)
        << bad.status.to_string();
    EXPECT_NE(bad.status.message().find("truncated"), std::string::npos)
        << bad.status.to_string();

    FleetMonitor without_bad(fc);
    for (std::size_t i = 0; i < good.size(); ++i) {
      without_bad.add_region(good[i], region_config());
      without_bad.ingest_file(good[i], good_paths[i]);
    }
    without_bad.finish();

    const FleetReport a = with_bad.diagnose();
    const FleetReport b = without_bad.diagnose();
    EXPECT_EQ(a.regions.count("bad"), 0u);
    ASSERT_EQ(a.regions.size(), good.size());
    for (const auto& name : good) {
      EXPECT_EQ(to_string(a.regions.at(name)), to_string(b.regions.at(name))) << name;
      by_threads[threads][name] = to_string(a.regions.at(name));
    }
    EXPECT_EQ(a.overall, b.overall);
    EXPECT_EQ(a.structural_outliers, b.structural_outliers);
    ASSERT_EQ(a.health.count("bad"), 1u);
    EXPECT_EQ(a.health.at("bad").health, RegionHealth::kQuarantined);
  }
  EXPECT_EQ(by_threads.at(1), by_threads.at(4));

  for (const auto& p : good_paths) std::remove(p.c_str());
  std::remove(bad_path.c_str());
}

TEST(FleetHealth, UnopenableTraceQuarantinesOnlyItsRegion) {
  const auto good_path = temp_path("fh_open_good.csv");
  write_trace_file(good_path, make_good_trace(1));
  // Valid magic, header chopped off: open_trace_reader throws on this file.
  const auto garbage_path = temp_path("fh_open_garbage.snt");
  {
    std::ofstream out(garbage_path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(kBinaryTraceMagic), 8);
  }

  // A FIFO and a directory are refused before they are opened: a trace is
  // read through a mapping, and with no writer a FIFO's open would block.
  const auto fifo_path = temp_path("fh_open_fifo.csv");
  std::remove(fifo_path.c_str());
  ASSERT_EQ(::mkfifo(fifo_path.c_str(), 0600), 0);
  const auto dir_path = temp_path("fh_open_dir.csv");
  std::remove(dir_path.c_str());
  ASSERT_EQ(::mkdir(dir_path.c_str(), 0700), 0);

  FleetMonitor fleet;
  fleet.add_region("good", region_config());
  fleet.add_region("garbage", region_config());
  fleet.add_region("missing", region_config());
  fleet.add_region("fifo", region_config());
  fleet.add_region("dir", region_config());

  EXPECT_TRUE(fleet.ingest_file("good", good_path).status.is_ok());
  const auto garbage_sum = fleet.ingest_file("garbage", garbage_path);
  const auto missing_sum = fleet.ingest_file("missing", "/nonexistent/trace.csv");
  const auto fifo_sum = fleet.ingest_file("fifo", fifo_path);
  const auto dir_sum = fleet.ingest_file("dir", dir_path);
  EXPECT_EQ(garbage_sum.records, 0u);
  EXPECT_EQ(missing_sum.records, 0u);
  EXPECT_EQ(fifo_sum.records, 0u);
  EXPECT_EQ(dir_sum.records, 0u);
  fleet.finish();

  for (const char* name : {"garbage", "missing", "fifo", "dir"}) {
    const RegionState& st = fleet.region_health(name);
    EXPECT_EQ(st.health, RegionHealth::kQuarantined) << name;
    EXPECT_EQ(st.status.code(), util::StatusCode::kInvalidArgument) << name;
    EXPECT_NE(st.status.message().find(std::string("region ") + name), std::string::npos)
        << st.status.to_string();
    EXPECT_NE(st.status.message().find("cannot open trace"), std::string::npos)
        << st.status.to_string();
    ASSERT_TRUE(st.error) << name;
    EXPECT_THROW(std::rethrow_exception(st.error), std::runtime_error);
  }

  const FleetReport report = fleet.diagnose();
  EXPECT_EQ(fleet.region_health("good").health, RegionHealth::kHealthy);
  EXPECT_EQ(report.regions.count("good"), 1u);
  EXPECT_EQ(report.regions.size(), 1u);
  std::remove(good_path.c_str());
  std::remove(garbage_path.c_str());
  std::remove(fifo_path.c_str());
  std::remove(dir_path.c_str());
}

TEST(FleetHealth, MalformedRateQuarantinesHostileFeed) {
  // 120 of 200 lines are junk (60% >= the 50% quarantine threshold).
  std::ostringstream content;
  for (int i = 0; i < 200; ++i) {
    if (i % 5 < 3) {
      content << "this is not a record\n";
    } else {
      content << i % 4 << ',' << i * 30 << ",10,60\n";
    }
  }
  const auto path = temp_path("fh_hostile.csv");
  write_file(path, content.str());

  FleetMonitor fleet;
  fleet.add_region("hostile", region_config());
  const auto sum = fleet.ingest_file("hostile", path);
  EXPECT_FALSE(sum.status.is_ok());

  const RegionState& st = fleet.region_health("hostile");
  EXPECT_EQ(st.health, RegionHealth::kQuarantined);
  EXPECT_EQ(st.status.code(), util::StatusCode::kDataLoss);
  EXPECT_NE(st.status.message().find("region hostile"), std::string::npos)
      << st.status.to_string();
  EXPECT_NE(st.status.message().find("malformed-line rate too high"), std::string::npos)
      << st.status.to_string();
  EXPECT_EQ(st.error, nullptr);  // threshold transition, no exception behind it
  EXPECT_GT(st.malformed.total(), 0u);
  EXPECT_GT(st.malformed.bad_field_count, 0u);  // the junk lines are short
  std::remove(path.c_str());
}

TEST(FleetHealth, FullyMalformedFeedQuarantinedByRateNotJustSilent) {
  // Every line is junk, so read_batch reaches EOF having produced zero
  // records. The rate check must still run on that final empty batch and
  // quarantine the region -- a 100%-hostile feed is worse than a 60% one
  // and must not slip through to a mere degraded-for-silence at finish().
  std::ostringstream content;
  for (int i = 0; i < 200; ++i) content << "this is not a record\n";
  const auto path = temp_path("fh_all_junk.csv");
  write_file(path, content.str());

  FleetMonitor fleet;
  fleet.add_region("junk", region_config());
  const auto sum = fleet.ingest_file("junk", path);
  EXPECT_FALSE(sum.status.is_ok());

  const RegionState& st = fleet.region_health("junk");
  EXPECT_EQ(st.health, RegionHealth::kQuarantined);
  EXPECT_EQ(st.status.code(), util::StatusCode::kDataLoss);
  EXPECT_NE(st.status.message().find("malformed-line rate too high"), std::string::npos)
      << st.status.to_string();
  EXPECT_EQ(st.records_ingested, 0u);
  EXPECT_EQ(st.malformed.total(), 200u);
  EXPECT_NO_THROW(fleet.finish());  // quarantined already; silence check moot
  std::remove(path.c_str());
}

TEST(FleetHealth, ElevatedMalformedRateDegradesButRegionStillVotes) {
  // 20 of 200 lines junk (10%): above the 5% degrade line, below quarantine.
  std::ostringstream content;
  for (int i = 0; i < 200; ++i) {
    if (i % 10 == 0) {
      content << "0,abc,10,60\n";  // unparseable time field
    } else {
      const bool high = (i / 60) % 2 == 1;
      content << i % 4 << ',' << i * 30 << ',' << (high ? 30 : 10) << ',' << (high ? 40 : 60)
              << '\n';
    }
  }
  const auto path = temp_path("fh_degraded.csv");
  write_file(path, content.str());

  FleetMonitor fleet;
  fleet.add_region("noisy", region_config());
  fleet.ingest_file("noisy", path);
  fleet.finish();

  const RegionState& st = fleet.region_health("noisy");
  EXPECT_EQ(st.health, RegionHealth::kDegraded);
  EXPECT_NE(st.status.message().find("elevated malformed-line rate"), std::string::npos)
      << st.status.to_string();
  EXPECT_EQ(st.malformed.bad_number, 20u);
  // Degraded is a warning, not an exclusion: the region still reports.
  EXPECT_EQ(fleet.diagnose().regions.count("noisy"), 1u);
  std::remove(path.c_str());
}

TEST(FleetHealth, FewBadLinesBelowMinSampleStayHealthy) {
  // 30% junk but only 10 lines total: below min_lines_for_rate, so no rate
  // judgment yet -- a handful of early bad lines must not condemn a region.
  const auto path = temp_path("fh_fewbad.csv");
  write_file(path,
             "junk\n0,0,10,60\n1,30,10,60\njunk\n2,60,10,60\n"
             "3,90,10,60\njunk\n0,120,10,60\n1,150,10,60\n2,180,10,60\n");

  FleetMonitor fleet;
  fleet.add_region("r", region_config());
  const auto sum = fleet.ingest_file("r", path);
  EXPECT_TRUE(sum.status.is_ok()) << sum.status.to_string();
  EXPECT_EQ(fleet.region_health("r").health, RegionHealth::kHealthy);
  EXPECT_EQ(fleet.region_health("r").malformed.total(), 3u);
  std::remove(path.c_str());
}

TEST(FleetHealth, SilentRegionDegradedAtFinishDeterministically) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    FleetConfig fc;
    fc.threads = threads;
    FleetMonitor fleet(fc);
    fleet.add_region("fed", region_config());
    fleet.add_region("silent", region_config());
    for (const auto& rec : make_good_trace(2)) fleet.add_record("fed", rec);
    fleet.finish();

    EXPECT_EQ(fleet.region_health("fed").health, RegionHealth::kHealthy);
    const RegionState& st = fleet.region_health("silent");
    EXPECT_EQ(st.health, RegionHealth::kDegraded);
    EXPECT_EQ(st.status.code(), util::StatusCode::kUnavailable);
    EXPECT_NE(st.status.message().find("region silent"), std::string::npos)
        << st.status.to_string();
    // Degraded regions still appear in the report body.
    EXPECT_EQ(fleet.diagnose().regions.count("silent"), 1u);
  }

  // The flag is a config choice: off means silence is unremarkable.
  FleetConfig fc;
  fc.health.flag_silent_regions = false;
  FleetMonitor fleet(fc);
  fleet.add_region("silent", region_config());
  fleet.finish();
  EXPECT_EQ(fleet.region_health("silent").health, RegionHealth::kHealthy);
}

TEST(FleetHealth, RecordsForQuarantinedRegionDroppedAndCounted) {
  FleetMonitor fleet;
  fleet.add_region("r", region_config());
  fleet.ingest_file("r", "/nonexistent/trace.csv");
  ASSERT_EQ(fleet.region_health("r").health, RegionHealth::kQuarantined);

  const auto trace = make_good_trace(3, 100);
  EXPECT_NO_THROW(fleet.add_records("r", trace));
  EXPECT_NO_THROW(fleet.add_record("r", trace[0]));
  EXPECT_EQ(fleet.region_health("r").records_dropped, 101u);
  EXPECT_EQ(fleet.region_health("r").records_ingested, 0u);
  EXPECT_NO_THROW(fleet.finish());
}

TEST(FleetHealth, BackpressureIsHealthyAndDeterministic) {
  // A queue far smaller than the workload forces producer waits; that is a
  // counted operational state, never a health transition, and the report is
  // still bit-identical to the serial run.
  const auto trace = make_good_trace(4, 4000);

  const auto run = [&trace](std::size_t threads, std::size_t queue) {
    FleetConfig fc;
    fc.threads = threads;
    fc.max_queue_records = queue;
    FleetMonitor fleet(fc);
    fleet.add_region("a", region_config());
    fleet.add_region("b", region_config());
    for (const auto& rec : trace) {
      fleet.add_record("a", rec);
      fleet.add_record("b", rec);
    }
    fleet.finish();
    EXPECT_EQ(fleet.region_health("a").health, RegionHealth::kHealthy);
    EXPECT_EQ(fleet.region_health("b").health, RegionHealth::kHealthy);
    return to_string(fleet.diagnose());
  };

  const std::string serial = run(1, 16384);
  EXPECT_EQ(run(4, 64), serial);
  EXPECT_EQ(run(4, 16384), serial);
  // The wait counter exists in the registry (value depends on scheduling).
  const auto snap = util::metrics().snapshot();
  EXPECT_EQ(snap.counters.count("fleet.backpressure_waits"), 1u);
  EXPECT_EQ(snap.histograms.count("fleet.queue_depth"), 1u);
}

TEST(FleetHealth, HealthSectionRenderedOnlyWhenSomethingIsOff) {
  const auto path = temp_path("fh_render.csv");
  write_trace_file(path, make_good_trace(5));

  FleetMonitor healthy;
  healthy.add_region("r", region_config());
  healthy.ingest_file("r", path);
  healthy.finish();
  const std::string healthy_text = to_string(healthy.diagnose());
  EXPECT_EQ(healthy_text.find("region health:"), std::string::npos) << healthy_text;

  FleetMonitor sick;
  sick.add_region("r", region_config());
  sick.ingest_file("r", path);
  sick.add_region("dead", region_config());
  sick.ingest_file("dead", "/nonexistent/trace.csv");
  sick.finish();
  const std::string sick_text = to_string(sick.diagnose());
  EXPECT_NE(sick_text.find("region health:"), std::string::npos) << sick_text;
  EXPECT_NE(sick_text.find("[region dead] quarantined"), std::string::npos) << sick_text;
  EXPECT_NE(sick_text.find("cannot open trace"), std::string::npos) << sick_text;
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sentinel::core
