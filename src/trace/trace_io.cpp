#include "trace/trace_io.h"

#include <charconv>
#include <cstdint>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "trace/trace_reader.h"
#include "util/csv.h"

namespace sentinel {

std::optional<SensorId> to_sensor_id(double v) {
  // The upper bound must be checked on the double side: SensorId's max + 1 is
  // exactly representable, the cast of anything >= it (or of NaN) is UB.
  constexpr double kLimit = 4294967296.0;  // 2^32
  static_assert(sizeof(SensorId) == 4);
  if (!(v >= 0.0) || v >= kLimit) return std::nullopt;
  const auto id = static_cast<SensorId>(v);
  if (static_cast<double>(id) != v) return std::nullopt;  // fractional
  return id;
}

namespace {

// Fused single-scan parse of the dominant line shape:
//   digits ',' number ',' number [',' number ...]
// with no whitespace, exponents, or long mantissas. Numbers take the same
// Clinger fast path as csv::parse_double (<= 15 significant digits, so one
// division is correctly rounded) -- a line this accepts produces the exact
// bits the general grammar would. Any deviation returns false and the caller
// re-parses through the general path, so accept/reject semantics never
// change; this only removes the per-field split + trim + call overhead from
// the common case.
bool parse_simple_line(std::string_view line, std::size_t dims, RecordBatch& out) {
  const char* p = line.data();
  const char* const end = p + line.size();

  // Sensor id: plain decimal digits, range-checked against uint32.
  std::uint64_t id = 0;
  const char* const id_start = p;
  while (p != end && *p >= '0' && *p <= '9') {
    id = id * 10 + static_cast<std::uint64_t>(*p - '0');
    if (id > 0xFFFFFFFFull) return false;
    ++p;
  }
  if (p == id_start || p == end || *p != ',') return false;
  ++p;

  static constexpr double kPow10[] = {1e0, 1e1, 1e2,  1e3,  1e4,  1e5,  1e6,  1e7,
                                      1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15};
  const auto parse_field = [&p, end](double& out_v) {
    bool neg = false;
    if (p != end && *p == '-') {
      neg = true;
      ++p;
    }
    std::uint64_t mant = 0;
    int digits = 0;
    int frac_digits = 0;
    bool seen_point = false;
    for (; p != end; ++p) {
      const char c = *p;
      if (c >= '0' && c <= '9') {
        mant = mant * 10 + static_cast<std::uint64_t>(c - '0');
        ++digits;
        if (seen_point) ++frac_digits;
      } else if (c == '.' && !seen_point) {
        seen_point = true;
      } else {
        break;
      }
    }
    if (digits == 0 || digits > 15 || (seen_point && frac_digits == 0)) return false;
    const double v = static_cast<double>(mant) / kPow10[frac_digits];
    out_v = neg ? -v : v;
    return true;
  };

  double time = 0.0;
  if (!parse_field(time) || p == end || *p != ',') return false;
  ++p;

  const std::size_t base = out.attrs.size();
  out.attrs.resize(base + dims);
  double* const attrs = out.attrs.data() + base;
  bool ok = true;
  for (std::size_t i = 0; ok && i < dims; ++i) {
    ok = parse_field(attrs[i]) && (i + 1 == dims || (p != end && *p++ == ','));
  }
  if (!ok || p != end) {  // trailing garbage / extra fields: re-check slowly
    out.attrs.resize(base);
    return false;
  }
  out.sensors.push_back(static_cast<SensorId>(id));
  out.times.push_back(time);
  out.widths.push_back(static_cast<std::uint32_t>(dims));
  return true;
}

}  // namespace

std::string to_string(const MalformedCounts& m) {
  return std::to_string(m.total()) + " malformed (field-count " +
         std::to_string(m.bad_field_count) + ", dims " + std::to_string(m.dims_mismatch) +
         ", sensor-id " + std::to_string(m.bad_sensor_id) + ", number " +
         std::to_string(m.bad_number) + ")";
}

LineParse parse_trace_line(std::string_view line, std::size_t& expected_dims, RecordBatch& out,
                           std::vector<std::string_view>& fields) {
  if (line.empty()) return LineParse::kBlank;
  if (line.front() == '#') return LineParse::kComment;
  if (expected_dims != 0 && parse_simple_line(line, expected_dims, out)) {
    return LineParse::kRecord;
  }
  csv::split_into(line, fields);
  // A width must fit RecordBatch::widths; no real line comes near.
  if (fields.size() < 3 || fields.size() - 2 > UINT32_MAX) return LineParse::kBadFieldCount;
  const std::size_t dims = fields.size() - 2;
  if (expected_dims == 0) {
    expected_dims = dims;
  }
  if (dims != expected_dims) return LineParse::kDimsMismatch;
  // Sensor-id fast path: the field is almost always a plain decimal integer,
  // which from_chars validates and range-checks in one step. Anything else
  // ("7.0", "1e2", out-of-range) takes the double route and the checked
  // conversion -- same accept/reject set, no double-to-int edge cases.
  SensorId sensor = 0;
  const auto [id_ptr, id_ec] =
      std::from_chars(fields[0].data(), fields[0].data() + fields[0].size(), sensor);
  if (id_ec != std::errc{} || id_ptr != fields[0].data() + fields[0].size()) {
    const auto id = csv::parse_double(fields[0]);
    if (!id) return LineParse::kBadSensorId;
    const auto checked = to_sensor_id(*id);
    if (!checked) return LineParse::kBadSensorId;
    sensor = *checked;
  }
  const auto t = csv::parse_double(fields[1]);
  if (!t) return LineParse::kBadNumber;
  const std::size_t base = out.attrs.size();
  out.attrs.resize(base + dims);
  for (std::size_t i = 0; i < dims; ++i) {
    const auto v = csv::parse_double(fields[i + 2]);
    if (!v) {
      out.attrs.resize(base);
      return LineParse::kBadNumber;
    }
    out.attrs[base + i] = *v;
  }
  out.sensors.push_back(sensor);
  out.times.push_back(*t);
  out.widths.push_back(static_cast<std::uint32_t>(dims));
  return LineParse::kRecord;
}

TraceReadResult read_trace(std::istream& in, std::size_t expected_dims) {
  TraceReadResult result;
  std::string line;
  std::vector<std::string_view> fields;
  RecordBatch rec;  // holds the one line just parsed
  while (std::getline(in, line)) {
    rec.clear();
    const LineParse p = parse_trace_line(line, expected_dims, rec, fields);
    switch (p) {
      case LineParse::kRecord:
        result.records.push_back({rec.sensors[0], rec.times[0], rec.attrs});
        break;
      case LineParse::kComment: ++result.comment_lines; break;
      case LineParse::kBlank: break;
      default: result.malformed.count(p); break;
    }
  }
  result.malformed_lines = result.malformed.total();
  return result;
}

TraceReadResult read_trace_file(const std::string& path, std::size_t expected_dims) {
  const auto reader = open_trace_reader(path, expected_dims);
  TraceReadResult result;
  std::vector<SensorRecord> batch;
  while (reader->read_batch(batch, TraceReader::kDefaultBatch) > 0) {
    result.records.insert(result.records.end(), batch.begin(), batch.end());
  }
  result.malformed = reader->malformed();
  result.malformed_lines = result.malformed.total();
  result.comment_lines = reader->comment_lines();
  result.status = reader->status();
  return result;
}

void write_trace(std::ostream& out, const std::vector<SensorRecord>& records,
                 const AttrSchema* schema) {
  if (schema != nullptr) {
    out << "# sensor,time";
    for (const auto& n : schema->names) out << ',' << n;
    out << '\n';
  }
  for (const auto& rec : records) {
    out << rec.sensor << ',' << csv::format(rec.time, 3);
    for (const double x : rec.attrs) out << ',' << csv::format(x, 6);
    out << '\n';
  }
}

void write_trace_file(const std::string& path, const std::vector<SensorRecord>& records,
                      const AttrSchema* schema) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("write_trace_file: cannot open " + path);
  write_trace(out, records, schema);
  if (!out) throw std::runtime_error("write_trace_file: write failed for " + path);
}

}  // namespace sentinel
