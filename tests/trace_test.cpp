// Unit tests: trace CSV I/O (including malformed-packet tolerance) and the
// time windower (paper eq. (1)).

#include <gtest/gtest.h>

#include <limits>
#include <span>
#include <sstream>
#include <variant>
#include <vector>

#include "common/scenario.h"
#include "trace/trace_io.h"
#include "trace/windower.h"

namespace sentinel {
namespace {

// One record through the windower; returns what it handed over, in order:
// completed windows and gaps of empty windows.
using Handover = std::variant<ObservationSet, Windower::EmptyWindows>;
std::vector<Handover> add(Windower& w, const SensorRecord& rec) {
  std::vector<Handover> out;
  w.add_batch(std::span<const SensorRecord>(&rec, 1),
              [&out](auto&& h) { out.emplace_back(std::forward<decltype(h)>(h)); });
  return out;
}

TEST(TraceIo, RoundTrip) {
  std::vector<SensorRecord> recs{
      {0, 0.0, {21.5, 70.0}},
      {1, 300.0, {21.7, 69.5}},
      {0, 300.0, {21.6, 70.1}},
  };
  std::stringstream ss;
  const AttrSchema schema = gdi_schema();
  write_trace(ss, recs, &schema);

  const auto result = read_trace(ss);
  EXPECT_EQ(result.comment_lines, 1u);
  EXPECT_EQ(result.malformed_lines, 0u);
  ASSERT_EQ(result.records.size(), 3u);
  EXPECT_EQ(result.records[1].sensor, 1u);
  EXPECT_DOUBLE_EQ(result.records[1].time, 300.0);
  EXPECT_DOUBLE_EQ(result.records[1].attrs[0], 21.7);
}

TEST(TraceIo, MalformedLinesCountedNotFatal) {
  std::stringstream ss;
  ss << "# header\n"
     << "0,0,21.5,70\n"
     << "garbage line\n"          // too few fields
     << "1,300,NaNish,70\n"       // bad number -> actually 'NaNish' is junk
     << "2,600,21.0\n"            // wrong width
     << "3,900,20.0,71\n"
     << "-1,1200,20.0,71\n"       // negative sensor id
     << "\n";
  const auto result = read_trace(ss);
  EXPECT_EQ(result.records.size(), 2u);
  EXPECT_EQ(result.malformed_lines, 4u);
  EXPECT_EQ(result.comment_lines, 1u);
  // The tally attributes each drop to its cause (and stays in sync with the
  // headline number) -- operators triage a 90%-short-lines feed differently
  // from a 90%-bad-ids one.
  EXPECT_EQ(result.malformed.bad_field_count, 1u);  // "garbage line"
  EXPECT_EQ(result.malformed.bad_number, 1u);       // "NaNish"
  EXPECT_EQ(result.malformed.dims_mismatch, 1u);    // wrong width
  EXPECT_EQ(result.malformed.bad_sensor_id, 1u);    // negative id
  EXPECT_EQ(result.malformed.total(), result.malformed_lines);
  EXPECT_TRUE(result.status.is_ok());
  const auto text = to_string(result.malformed);
  EXPECT_NE(text.find("4 malformed"), std::string::npos) << text;
}

TEST(TraceIo, ExpectedDimsEnforced) {
  std::stringstream ss;
  ss << "0,0,1,2,3\n0,1,1,2\n";
  const auto result = read_trace(ss, 3);
  EXPECT_EQ(result.records.size(), 1u);
  EXPECT_EQ(result.malformed_lines, 1u);
}

TEST(TraceIo, MissingFileThrows) {
  EXPECT_THROW(read_trace_file("/nonexistent/path.csv"), std::runtime_error);
}

// Regression for the sensor-id validation: values a double can hold but a
// uint32 cannot (1e300, 2^32, NaN, inf) must be *rejected*, never cast --
// the cast itself is undefined behavior for out-of-range values.
TEST(TraceIo, OutOfRangeSensorIdsAreMalformedNotUb) {
  std::stringstream ss;
  ss << "1e300,0,21.5,70\n"         // far beyond uint32
     << "4294967296,60,21.5,70\n"   // exactly 2^32 (first unrepresentable)
     << "4294967295,120,21.5,70\n"  // uint32 max: valid
     << "nan,180,21.5,70\n"
     << "inf,240,21.5,70\n"
     << "2.5,300,21.5,70\n"         // fractional id
     << "7,360,21.5,70\n";
  const auto result = read_trace(ss);
  ASSERT_EQ(result.records.size(), 2u);
  EXPECT_EQ(result.records[0].sensor, 4294967295u);
  EXPECT_EQ(result.records[1].sensor, 7u);
  EXPECT_EQ(result.malformed_lines, 5u);
}

TEST(TraceIo, ToSensorIdValidates) {
  EXPECT_EQ(to_sensor_id(0.0), SensorId{0});
  EXPECT_EQ(to_sensor_id(4294967295.0), SensorId{4294967295u});
  EXPECT_FALSE(to_sensor_id(4294967296.0));
  EXPECT_FALSE(to_sensor_id(-1.0));
  EXPECT_FALSE(to_sensor_id(0.5));
  EXPECT_FALSE(to_sensor_id(1e300));
  EXPECT_FALSE(to_sensor_id(std::numeric_limits<double>::quiet_NaN()));
  EXPECT_FALSE(to_sensor_id(std::numeric_limits<double>::infinity()));
}

TEST(ObservationSetTest, OverallMeanAndRepresentatives) {
  // A hand-built window holds what the windower closes for one record per
  // sensor: the records' mean and the rep-order caches.
  const ObservationSet w = bench::make_window(1, 100.0, {0, 1}, {{10.0, 20.0}, {30.0, 40.0}});
  EXPECT_EQ(w.cached_mean, (AttrVec{20.0, 30.0}));
  EXPECT_EQ(w.rep_sums, (std::vector<double>{30.0, 70.0}));
  EXPECT_EQ(w.rep_total, (AttrVec{40.0, 60.0}));
  EXPECT_EQ(w.records, 2u);
  EXPECT_EQ(w.window_end, 100.0);

  Windower win(100.0);
  add(win, {1, 20.0, {30.0, 40.0}});
  add(win, {0, 10.0, {10.0, 20.0}});
  const auto closed = win.flush();
  ASSERT_TRUE(closed.has_value());
  EXPECT_EQ(closed->rep_sensors, w.rep_sensors);
  EXPECT_EQ(closed->rep_points, w.rep_points);
  EXPECT_EQ(closed->rep_sums, w.rep_sums);
  EXPECT_EQ(closed->rep_total, w.rep_total);
  EXPECT_EQ(closed->cached_mean, w.cached_mean);
}

TEST(Windower, AssignsWindowsPerEquationOne) {
  Windower w(100.0);
  EXPECT_TRUE(add(w, {0, 10.0, {1.0}}).empty());
  EXPECT_TRUE(add(w, {1, 50.0, {2.0}}).empty());
  // Crossing into window 2 closes window 1.
  const auto done = add(w, {0, 120.0, {3.0}});
  ASSERT_EQ(done.size(), 1u);
  const auto& w1 = std::get<ObservationSet>(done[0]);
  EXPECT_EQ(w1.window_index, 1u);
  EXPECT_DOUBLE_EQ(w1.window_start, 0.0);
  EXPECT_DOUBLE_EQ(w1.window_end, 100.0);
  EXPECT_EQ(w1.records, 2u);
}

TEST(Windower, PerSensorRepresentativeIsMeanOfSamples) {
  Windower w(100.0);
  add(w, {0, 1.0, {10.0}});
  add(w, {0, 2.0, {20.0}});
  add(w, {1, 3.0, {5.0}});
  const auto flushed = w.flush();
  ASSERT_TRUE(flushed.has_value());
  EXPECT_EQ(flushed->records, 3u);
  EXPECT_EQ(flushed->rep_sensors, (std::vector<SensorId>{0, 1}));
  EXPECT_EQ(flushed->rep_points, (std::vector<AttrVec>{{15.0}, {5.0}}));
}

TEST(Windower, TimeGapEmitsEmptyWindows) {
  Windower w(100.0);
  add(w, {0, 10.0, {1.0}});
  const auto done = add(w, {0, 350.0, {2.0}});  // jumps from window 1 to 4
  ASSERT_EQ(done.size(), 2u);
  const auto& w1 = std::get<ObservationSet>(done[0]);
  EXPECT_EQ(w1.window_index, 1u);
  EXPECT_EQ(w1.records, 1u);
  // Windows 2 and 3 arrive as one gap.
  EXPECT_EQ(std::get<Windower::EmptyWindows>(done[1]).count, 2u);
}

TEST(Windower, LateRecordsDropped) {
  Windower w(100.0);
  add(w, {0, 10.0, {1.0}});
  add(w, {0, 150.0, {2.0}});  // closes window 1
  add(w, {0, 20.0, {3.0}});   // late for window 1
  EXPECT_EQ(w.late_records(), 1u);
}

TEST(Windower, RejectsNonPositiveWindow) {
  EXPECT_THROW(Windower(0.0), std::invalid_argument);
  EXPECT_THROW(Windower(-5.0), std::invalid_argument);
}

TEST(Windower, DegenerateTimesHaveDefinedWindows) {
  // Negative and NaN times clamp into window 1 (before-deployment noise must
  // not reach the negative-double-to-size_t cast, which would be UB).
  Windower w(100.0);
  EXPECT_TRUE(add(w, {0, -250.0, {1.0}}).empty());
  EXPECT_TRUE(add(w, {0, std::numeric_limits<double>::quiet_NaN(), {2.0}}).empty());
  const auto done = add(w, {0, 150.0, {3.0}});  // window 2: closes window 1
  ASSERT_EQ(done.size(), 1u);
  const auto& w1 = std::get<ObservationSet>(done[0]);
  EXPECT_EQ(w1.window_index, 1u);
  EXPECT_EQ(w1.records, 2u);  // both degenerate records landed there

  // Every clamp is counted: the pipeline surfaces them as a data-quality
  // signal (pipeline.clamped_records) instead of silently rewriting time.
  EXPECT_EQ(w.clamped_records(), 2u);

  // A huge time clamps instead of overflowing the cast.
  Windower w2(100.0);
  add(w2, {0, 1e300, {1.0}});
  EXPECT_TRUE(w2.flush().has_value());
  EXPECT_EQ(w2.clamped_records(), 1u);
}

TEST(WindowTrace, SortsAndFlushes) {
  std::vector<SensorRecord> recs{
      {0, 250.0, {3.0}},
      {0, 10.0, {1.0}},
      {0, 150.0, {2.0}},
  };
  const auto windows = window_trace(recs, 100.0);
  ASSERT_EQ(windows.size(), 3u);
  EXPECT_EQ(windows[0].records, 1u);
  EXPECT_EQ(windows[2].rep_points[0], (AttrVec{3.0}));
}

}  // namespace
}  // namespace sentinel
