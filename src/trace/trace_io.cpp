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

const char* parse_trace_record(const char* p, const char* end, std::size_t dims,
                               RecordBatch& out) {
  // Sensor id: plain decimal digits, range-checked against uint32.
  std::uint64_t id = 0;
  const char* const id_start = p;
  for (; p != end && *p >= '0' && *p <= '9'; ++p) {
    id = id * 10 + static_cast<std::uint64_t>(*p - '0');
    if (id > 0xFFFFFFFFull) return nullptr;
  }
  if (p == id_start || p == end || *p != ',') return nullptr;
  double time = 0.0;
  p = csv::parse_fixed(p + 1, end, time);
  if (p == nullptr || p == end || *p != ',') return nullptr;

  const std::size_t base = out.attrs.size();
  out.attrs.resize(base + dims);
  double* const attrs = out.attrs.data() + base;
  for (std::size_t i = 0; i < dims; ++i) {
    p = csv::parse_fixed(p + 1, end, attrs[i]);  // p + 1: past the ',' before it
    const bool last = i + 1 == dims;
    if (p == nullptr || (last ? p != end && *p != '\n' : p == end || *p != ',')) {
      out.attrs.resize(base);  // a malformed field, or more or fewer of them
      return nullptr;
    }
  }
  out.sensors.push_back(static_cast<SensorId>(id));
  out.times.push_back(time);
  out.widths.push_back(static_cast<std::uint32_t>(dims));
  return p == end ? end : p + 1;
}

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
    // The record parser first, as the batch reader does; a line it
    // declines goes to the general grammar.
    const char* const end = line.data() + line.size();
    const bool simple =
        expected_dims != 0 && parse_trace_record(line.data(), end, expected_dims, rec) != nullptr;
    const LineParse p =
        simple ? LineParse::kRecord : parse_trace_line(line, expected_dims, rec, fields);
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
