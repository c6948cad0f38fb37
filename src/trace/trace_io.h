// CSV trace reading/writing.
//
// Format (one record per line):   sensor_id,time_seconds,x_1,...,x_n
// '#'-prefixed lines are comments; blank lines are ignored. A malformed line
// (wrong field count, non-numeric field) is *counted*, not fatal: the GDI
// deployment the paper evaluates on had missing and malformed packets, and
// the methodology is expected to tolerate them.
//
// Two readers share the grammar below, so they accept identical record
// sets: read_trace (istream + getline, the simple path, and the serial
// reference the reader tests compare against) and the decode-ahead batch
// reader in trace/trace_reader.h (records parsed straight off the file's
// mapping on the shared pool, the fast path). Both parse the common record
// shape with parse_trace_record and every other line with the general
// split grammar of parse_trace_line. read_trace_file() auto-detects the
// binary trace format (trace/binary_trace.h) by its magic, so every
// file-path entry point takes either format.

#pragma once

#include <cstddef>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "trace/record.h"
#include "util/status.h"

namespace sentinel {

/// Validated double -> SensorId conversion. nullopt for NaN, negative,
/// fractional, or out-of-range values -- casting such a double straight to an
/// integer type is undefined behavior, so the range check must come first.
std::optional<SensorId> to_sensor_id(double v);

/// Per-line parse outcome. The malformed variants attribute the *cause*, so
/// both readers (getline, mapped) report identical per-cause drop counts on
/// the same bytes -- a feed that is 90% bad-sensor-ids is a different
/// operational problem than one that is 90% short lines.
enum class LineParse {
  kRecord,
  kComment,
  kBlank,
  kBadFieldCount,  // fewer than sensor,time,x_1
  kDimsMismatch,   // width disagrees with the trace's fixed dimensionality
  kBadSensorId,    // id field not a valid uint32 (negative, fractional, huge)
  kBadNumber,      // unparseable time or attribute field
};

constexpr bool is_malformed(LineParse p) {
  return p == LineParse::kBadFieldCount || p == LineParse::kDimsMismatch ||
         p == LineParse::kBadSensorId || p == LineParse::kBadNumber;
}

/// Malformed-line tally broken down by cause. Every CSV reader keeps one;
/// equality across readers on the same input is test-enforced.
struct MalformedCounts {
  std::size_t bad_field_count = 0;
  std::size_t dims_mismatch = 0;
  std::size_t bad_sensor_id = 0;
  std::size_t bad_number = 0;

  std::size_t total() const {
    return bad_field_count + dims_mismatch + bad_sensor_id + bad_number;
  }
  void count(LineParse p, std::size_t n = 1) {
    switch (p) {
      case LineParse::kBadFieldCount: bad_field_count += n; break;
      case LineParse::kDimsMismatch: dims_mismatch += n; break;
      case LineParse::kBadSensorId: bad_sensor_id += n; break;
      case LineParse::kBadNumber: bad_number += n; break;
      default: break;
    }
  }
  MalformedCounts& operator+=(const MalformedCounts& o) {
    bad_field_count += o.bad_field_count;
    dims_mismatch += o.dims_mismatch;
    bad_sensor_id += o.bad_sensor_id;
    bad_number += o.bad_number;
    return *this;
  }
  /// Per-cause difference (resume accounting: what a reader tallied *after*
  /// the skipped prefix). Caller guarantees o is a componentwise prefix.
  friend MalformedCounts operator-(MalformedCounts a, const MalformedCounts& o) {
    a.bad_field_count -= o.bad_field_count;
    a.dims_mismatch -= o.dims_mismatch;
    a.bad_sensor_id -= o.bad_sensor_id;
    a.bad_number -= o.bad_number;
    return a;
  }
  friend bool operator==(const MalformedCounts&, const MalformedCounts&) = default;
};

std::string to_string(const MalformedCounts& m);

struct TraceReadResult {
  std::vector<SensorRecord> records;
  /// Total malformed lines (== malformed.total(); kept as a field because
  /// most callers only care about the headline number).
  std::size_t malformed_lines = 0;
  std::size_t comment_lines = 0;
  MalformedCounts malformed;
  /// Non-ok when the source failed mid-stream (e.g. a truncated binary
  /// trace): `records` holds everything read up to the failure.
  util::Status status;
};

/// The record parser: reads one record of the common shape
///   digits ',' number ',' number [',' number ...]
/// with exactly `dims` (>= 1) attributes straight from `p`, every number in
/// csv::parse_fixed's shape (no whitespace, sign '+', exponent or more than
/// 15 digits), and the record ending at a '\n' or at `end`. On success it
/// appends the record to `out` and returns the position after that '\n'
/// (or `end`), so a caller walking a buffer reads each such line once. On
/// anything else it returns nullptr and leaves `out` as it was; the line
/// may still be a record, which parse_trace_line decides. A record it
/// accepts has the bits parse_trace_line would give it.
const char* parse_trace_record(const char* p, const char* end, std::size_t dims,
                               RecordBatch& out);

/// The general grammar: parse one CSV line (without its newline) and, on
/// kRecord, append the record to `out`; any other outcome leaves `out` as
/// it was. The line is split into trimmed fields (string_views into
/// `line`), whose numbers parse with csv::parse_double. Both readers give
/// it only the lines parse_trace_record declines, and every line until the
/// width is known; on its own it accepts the same records with the same
/// bits, only slower. Allocation-free once `out` and the `fields` split
/// scratch have grown. `expected_dims` = 0 accepts any width >= 1 and is
/// fixed by the first line that has at least three fields.
LineParse parse_trace_line(std::string_view line, std::size_t& expected_dims, RecordBatch& out,
                           std::vector<std::string_view>& fields);

/// Parse records from a stream. `expected_dims` = 0 accepts any width >= 1
/// (first data line fixes it); otherwise rows with a different width count as
/// malformed.
TraceReadResult read_trace(std::istream& in, std::size_t expected_dims = 0);

/// Convenience: read a whole trace file, CSV or binary (auto-detected by
/// magic). Throws std::runtime_error as open_trace_reader does: the path is
/// not a regular file, the file cannot be opened or mapped, or a binary
/// header is structurally invalid. A file that turns out truncated
/// mid-stream yields the readable prefix with a non-ok result.status.
TraceReadResult read_trace_file(const std::string& path, std::size_t expected_dims = 0);

/// Write records to a stream, with an optional schema comment header.
void write_trace(std::ostream& out, const std::vector<SensorRecord>& records,
                 const AttrSchema* schema = nullptr);

/// Convenience: write to a file path. Throws std::runtime_error on failure.
void write_trace_file(const std::string& path, const std::vector<SensorRecord>& records,
                      const AttrSchema* schema = nullptr);

}  // namespace sentinel
