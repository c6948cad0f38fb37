// Unit tests: trace CSV I/O (including malformed-packet tolerance) and the
// time windower (paper eq. (1)).

#include <gtest/gtest.h>

#include <charconv>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "common/scenario.h"
#include "trace/trace_io.h"
#include "trace/windower.h"
#include "util/csv.h"

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

// --- The record parser against an independent reference --------------------
//
// Both CSV readers parse the common record shape with parse_trace_record.
// Here it faces a reference built from csv::split and std::from_chars alone,
// over generated lines it must accept and near-misses it must decline.

/// What the general grammar alone makes of `line` at width `dims`: trimmed
/// csv::split fields, numbers by std::from_chars after parse_double's one
/// optional '+', and the sensor id as an integer or else a checked double.
LineParse reference_parse(const std::string& line, std::size_t dims, SensorRecord& rec) {
  if (line.empty()) return LineParse::kBlank;
  if (line.front() == '#') return LineParse::kComment;
  const std::vector<std::string> fields = csv::split(line);
  if (fields.size() < 3) return LineParse::kBadFieldCount;
  if (fields.size() - 2 != dims) return LineParse::kDimsMismatch;
  const auto number = [](std::string f) -> std::optional<double> {
    if (!f.empty() && f.front() == '+') {
      f.erase(0, 1);
      if (!f.empty() && (f.front() == '+' || f.front() == '-')) return std::nullopt;
    }
    double v = 0.0;
    const char* const end = f.data() + f.size();
    const auto [ptr, ec] = std::from_chars(f.data(), end, v);
    if (ec != std::errc{} || ptr != end) return std::nullopt;
    return v;
  };
  const std::string& id_field = fields[0];
  const char* const id_end = id_field.data() + id_field.size();
  SensorId id = 0;
  const auto [id_ptr, id_ec] = std::from_chars(id_field.data(), id_end, id);
  if (id_ec != std::errc{} || id_ptr != id_end) {
    const auto v = number(id_field);
    const auto checked = v ? to_sensor_id(*v) : std::nullopt;
    if (!checked) return LineParse::kBadSensorId;
    id = *checked;
  }
  const auto t = number(fields[1]);
  if (!t) return LineParse::kBadNumber;
  rec = {id, *t, {}};
  for (std::size_t i = 2; i < fields.size(); ++i) {
    const auto v = number(fields[i]);
    if (!v) return LineParse::kBadNumber;
    rec.attrs.push_back(*v);
  }
  return LineParse::kRecord;
}

bool same_bits(const RecordBatch& b, std::size_t i, std::size_t first_attr,
               const SensorRecord& want) {
  return b.sensors[i] == want.sensor &&
         std::memcmp(&b.times[i], &want.time, sizeof want.time) == 0 &&
         b.widths[i] == want.attrs.size() &&
         std::memcmp(b.attrs.data() + first_attr, want.attrs.data(),
                     want.attrs.size() * sizeof(double)) == 0;
}

/// A fixed-notation number the record parser must accept: an optional '-',
/// 1-15 digits (leading zeros included), and a point anywhere before the
/// last digit or none -- ".5", "-0", "007" and plain integers among them.
std::string simple_number(std::mt19937_64& rng) {
  std::string s = rng() % 4 == 0 ? "-" : "";
  const std::size_t digits = 1 + rng() % 15;
  const std::size_t point = rng() % 3 == 0 ? digits : rng() % digits;  // digits: no point
  const std::size_t zeros = rng() % 5 == 0 ? rng() % digits : 0;      // leading zeros
  for (std::size_t d = 0; d < digits; ++d) {
    if (d == point) s += '.';
    s += d < zeros ? '0' : static_cast<char>('0' + rng() % 10);
  }
  return s;
}

TEST(TraceIo, RecordParserMatchesFromChars) {
  constexpr std::size_t kDims = 2;
  constexpr std::size_t kLines = 100000;
  // Shapes the record parser must decline, put in place of one field; the
  // general grammar then decides, and may still find a record.
  const std::vector<std::string> near_misses = {
      "1234567890123456", "0.000000000000001", "1e3", "+5", "5.", "-", "1.2.3", "", " 7",
      "7 ", "-.", ".", "0x10", "inf", "nan"};
  std::mt19937_64 rng(20261019);
  std::vector<std::string> lines;
  std::vector<bool> simple;  // the record parser must accept the line
  for (std::size_t n = 0; n < kLines; ++n) {
    std::string id = std::to_string(rng() % 100000);
    std::vector<std::string> nums = {simple_number(rng)};
    for (std::size_t i = 0; i < kDims; ++i) nums.push_back(simple_number(rng));
    bool ok = true;
    switch (rng() % 12) {
      case 0: {  // a near-miss in the time or an attribute
        const std::size_t field = rng() % nums.size();
        nums[field] = near_misses[rng() % near_misses.size()];
        ok = false;
        break;
      }
      case 1:  // one attribute fewer or more
        if (rng() % 2 == 0) {
          nums.pop_back();
        } else {
          nums.push_back(simple_number(rng));
        }
        ok = false;
        break;
      case 2: {  // ids at and past the uint32 limit, or not plain digits
        static const std::vector<std::string> ids = {"4294967295", "4294967296", "-1", "+3",
                                                     "2.5", "7.0", "1e2", "", "00000000042"};
        id = ids[rng() % ids.size()];
        ok = id == "4294967295" || id == "00000000042";
        break;
      }
      default: break;
    }
    std::string line = id;
    for (const std::string& x : nums) line += "," + x;
    const std::string line_before_suffix = line;
    switch (rng() % 40) {
      case 0: line += ","; break;        // trailing comma
      case 1: line += "\r"; break;       // CRLF
      case 2: line = " " + line; break;  // padded
      case 3: line = "# " + line; break;
      case 4: line.clear(); break;
      default: break;
    }
    lines.push_back(std::move(line));
    simple.push_back(ok && lines.back() == line_before_suffix);
  }
  // The buffer walk below ends on a record without a newline.
  lines.push_back("4294967295,86400.5,21.53625,-0.25");
  simple.push_back(true);

  // Line by line, each from an exact-size heap buffer, so a sanitized build
  // catches any read past `end`.
  std::size_t accepted = 0;
  std::vector<LineParse> want_kind(lines.size());
  std::vector<SensorRecord> want_rec(lines.size());
  RecordBatch got;
  std::vector<std::string_view> fields;
  for (std::size_t n = 0; n < lines.size(); ++n) {
    const std::string& line = lines[n];
    want_kind[n] = reference_parse(line, kDims, want_rec[n]);
    const auto buf = std::make_unique<char[]>(line.size());
    std::memcpy(buf.get(), line.data(), line.size());
    const char* const end = buf.get() + line.size();
    got.clear();
    const char* next = parse_trace_record(buf.get(), end, kDims, got);
    ASSERT_EQ(next != nullptr, simple[n]) << "line " << n << ": '" << line << "'";
    if (next != nullptr) {
      ++accepted;
      ASSERT_EQ(next, end) << line;
      ASSERT_EQ(want_kind[n], LineParse::kRecord) << line;
      ASSERT_TRUE(same_bits(got, 0, 0, want_rec[n])) << line;
    } else {
      ASSERT_TRUE(got.empty() && got.attrs.empty()) << line;
    }
    got.clear();
    std::size_t dims = kDims;
    const LineParse kind = parse_trace_line({buf.get(), line.size()}, dims, got, fields);
    ASSERT_EQ(kind, want_kind[n]) << "line " << n << ": '" << line << "'";
    if (kind == LineParse::kRecord) {
      ASSERT_TRUE(same_bits(got, 0, 0, want_rec[n])) << line;
    }
  }
  EXPECT_GT(accepted, kLines / 2);  // about two lines in three are of the simple shape

  // All lines in one exact-size buffer whose last line has no '\n', walked
  // as the batch reader walks a chunk: the record parser first, the
  // newline and the general grammar for a line it declines.
  std::string text;
  for (const std::string& line : lines) text += line + "\n";
  text.pop_back();
  const auto buf = std::make_unique<char[]>(text.size());
  std::memcpy(buf.get(), text.data(), text.size());
  const char* p = buf.get();
  const char* const end = p + text.size();
  got.clear();
  std::size_t first_attr = 0;
  for (std::size_t n = 0; n < lines.size(); ++n) {
    ASSERT_NE(p, end) << "line " << n;
    const std::size_t before = got.size();
    LineParse kind = LineParse::kRecord;
    if (const char* next = parse_trace_record(p, end, kDims, got)) {
      p = next;
    } else {
      const std::size_t left = static_cast<std::size_t>(end - p);
      const auto* nl = static_cast<const char*>(std::memchr(p, '\n', left));
      const std::size_t len = nl == nullptr ? left : static_cast<std::size_t>(nl - p);
      std::size_t dims = kDims;
      kind = parse_trace_line({p, len}, dims, got, fields);
      p = nl == nullptr ? end : nl + 1;
    }
    ASSERT_EQ(kind, want_kind[n]) << "line " << n << ": '" << lines[n] << "'";
    ASSERT_EQ(got.size(), before + (kind == LineParse::kRecord)) << "line " << n;
    if (kind == LineParse::kRecord) {
      ASSERT_TRUE(same_bits(got, before, first_attr, want_rec[n])) << lines[n];
      first_attr += kDims;
    }
  }
  EXPECT_EQ(p, end);
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
