// Core trace types.
//
// The paper's data model (section 3.1): each sensor j periodically sends a
// message <t, p> to a single collector node, where p = <x_1, ..., x_n> is the
// vector of n environment attributes sampled at time t. SensorRecord is that
// message. Time is in seconds from the start of the deployment.

#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/vecn.h"

namespace sentinel {

using SensorId = std::uint32_t;

struct SensorRecord {
  SensorId sensor = 0;
  double time = 0.0;  // seconds since deployment start
  AttrVec attrs;      // <x_1, ..., x_n>

  bool operator==(const SensorRecord&) const = default;
};

/// A flat batch of records: one column per field, and every record's
/// attributes back to back in one arena (record i's widths[i] values follow
/// record i-1's). Widths are per record because one feed may mix them --
/// the windower must see a stray wider record in order, and reject it as it
/// would a SensorRecord. clear() keeps every column's capacity, so a batch
/// that is refilled and cleared in a loop stops allocating once it has held
/// its largest fill.
struct RecordBatch {
  std::vector<SensorId> sensors;
  std::vector<double> times;
  std::vector<std::uint32_t> widths;
  std::vector<double> attrs;

  std::size_t size() const { return sensors.size(); }
  bool empty() const { return sensors.empty(); }

  void clear() {
    sensors.clear();
    times.clear();
    widths.clear();
    attrs.clear();
  }

  /// Appends `recs` in order. Each column is sized once for the whole span
  /// and filled by index, so the copy pays no per-record capacity check.
  void append(std::span<const SensorRecord> recs) {
    std::size_t n = size();
    std::size_t a = attrs.size();
    std::size_t width_sum = 0;
    for (const SensorRecord& r : recs) width_sum += r.attrs.size();
    sensors.resize(n + recs.size());
    times.resize(n + recs.size());
    widths.resize(n + recs.size());
    attrs.resize(a + width_sum);
    for (const SensorRecord& r : recs) {
      sensors[n] = r.sensor;
      times[n] = r.time;
      widths[n] = static_cast<std::uint32_t>(r.attrs.size());
      ++n;
      for (const double x : r.attrs) attrs[a++] = x;
    }
  }
};

/// Names of the attribute dimensions (e.g. {"temperature", "humidity"}).
/// Purely descriptive; algorithms operate on indices.
struct AttrSchema {
  std::vector<std::string> names;

  std::size_t dims() const { return names.size(); }
};

/// The (temperature, humidity) schema used throughout the paper's evaluation.
inline AttrSchema gdi_schema() { return AttrSchema{{"temperature", "humidity"}}; }

/// Full multimodal mote schema (paper section 3.1 lists pressure too).
inline AttrSchema gdi_schema3() {
  return AttrSchema{{"temperature", "humidity", "pressure"}};
}

constexpr double kSecondsPerMinute = 60.0;
constexpr double kSecondsPerHour = 3600.0;
constexpr double kSecondsPerDay = 86400.0;

}  // namespace sentinel
