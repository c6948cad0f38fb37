// Alarm Generation + Alarm Filtering (paper section 3.1).
//
// A raw alarm a^j fires for sensor j in window i when the sensor's reading
// does not belong to the correct state (l_j != c_i). The AlarmBank keeps one
// AlarmFilter per sensor (k-of-n, SPRT, or CUSUM per configuration) and turns
// the raw stream into filtered alarms b^j; filtered raise/clear edges drive
// the error/attack track manager.

#pragma once

#include "changepoint/alarm_filter.h"
#include "changepoint/cusum.h"
#include "changepoint/kofn.h"
#include "changepoint/sprt.h"
#include "core/config.h"
#include "trace/record.h"
#include "trace/sensor_table.h"
#include "util/serialize_fwd.h"

namespace sentinel::core {

/// Build the configured filter factory.
changepoint::AlarmFilterFactory make_filter_factory(const AlarmFilterConfig& cfg);

struct AlarmUpdate {
  bool raw = false;
  bool filtered = false;
  bool raised_edge = false;   // filtered went inactive -> active this window
  bool cleared_edge = false;  // filtered went active -> inactive this window
};

class AlarmBank {
 public:
  explicit AlarmBank(const AlarmFilterConfig& cfg);

  /// Feed the raw alarm for one sensor in the current window.
  AlarmUpdate update(SensorId sensor, bool raw_alarm);

  bool filtered_active(SensorId sensor) const;

  /// Cumulative raw-alarm statistics per sensor (Fig. 12 accounting).
  std::size_t raw_count(SensorId sensor) const;
  std::size_t window_count(SensorId sensor) const;

  /// Persist / restore every seen sensor's filter state and counters (the
  /// resumable-checkpoint section; filters themselves write their kind tag,
  /// so a filter-config mismatch fails loudly on load). load() replaces the
  /// bank's state and expects a bank built from the same AlarmFilterConfig.
  void save(serialize::Writer& w) const;
  void load(serialize::Reader& r);

 private:
  /// One entry per sensor: filter + counters live together so the hot
  /// update() touches a single entry per sensor per window.
  struct Entry {
    changepoint::AlarmFilterPtr filter;
    std::size_t raw_count = 0;
    std::size_t window_count = 0;
  };

  changepoint::AlarmFilterFactory factory_;
  SensorTable<Entry> entries_;
};

}  // namespace sentinel::core
