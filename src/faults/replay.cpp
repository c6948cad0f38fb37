#include "faults/replay.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "trace/windower.h"
#include "util/stats.h"

namespace sentinel::faults {

TraceEnvironment::TraceEnvironment(const std::vector<SensorRecord>& records,
                                   TraceEnvironmentConfig cfg) {
  if (!(cfg.window_seconds > 0.0)) {
    throw std::invalid_argument("TraceEnvironment: window must be positive");
  }
  // Bucket the readings by window exactly as the windower would (sorted,
  // same index rule), so each run of equal indices is one nonempty window.
  std::vector<SensorRecord> sorted = records;
  sort_by_time(sorted);
  std::vector<double> xs;
  for (std::size_t begin = 0; begin < sorted.size();) {
    const std::size_t index = window_index(sorted[begin].time, cfg.window_seconds).index;
    const std::size_t width = sorted[begin].attrs.size();
    std::size_t end = begin + 1;
    for (; end < sorted.size() &&
           window_index(sorted[end].time, cfg.window_seconds).index == index;
         ++end) {
      // The windower rejects a window whose records disagree in width.
      if (sorted[end].attrs.size() != width) {
        throw std::invalid_argument("AttrVec dimension mismatch: " + std::to_string(width) +
                                    " vs " + std::to_string(sorted[end].attrs.size()));
      }
    }
    if (dims_ == 0) dims_ = width;
    // Per-attribute median across every reading in the window.
    AttrVec med(dims_);
    for (std::size_t a = 0; a < dims_; ++a) {
      xs.clear();
      for (std::size_t i = begin; i < end; ++i) {
        if (sorted[i].attrs.size() == dims_) xs.push_back(sorted[i].attrs[a]);
      }
      med[a] = median(xs);
    }
    const double start = cfg.window_seconds * static_cast<double>(index - 1);
    times_.push_back(0.5 * (start + cfg.window_seconds * static_cast<double>(index)));
    centers_.push_back(std::move(med));
    begin = end;
  }
  if (centers_.empty()) {
    throw std::invalid_argument("TraceEnvironment: trace has no nonempty window");
  }
}

AttrVec TraceEnvironment::truth(double t) const {
  if (t <= times_.front()) return centers_.front();
  if (t >= times_.back()) return centers_.back();
  const auto it = std::upper_bound(times_.begin(), times_.end(), t);
  const auto hi = static_cast<std::size_t>(it - times_.begin());
  const std::size_t lo = hi - 1;
  const double span = times_[hi] - times_[lo];
  const double frac = span > 0.0 ? (t - times_[lo]) / span : 0.0;
  AttrVec out(dims_);
  for (std::size_t a = 0; a < dims_; ++a) {
    out[a] = centers_[lo][a] * (1.0 - frac) + centers_[hi][a] * frac;
  }
  return out;
}

std::vector<SensorRecord> inject_into_trace(const std::vector<SensorRecord>& records,
                                            const faults::InjectionPlan& plan,
                                            const sim::Environment& truth_env) {
  std::vector<SensorRecord> out;
  out.reserve(records.size());
  for (const auto& rec : records) {
    if (!plan.has_entries_for(rec.sensor)) {
      out.push_back(rec);
      continue;
    }
    auto rewritten = plan.apply(rec.sensor, rec.time, rec.attrs, truth_env.truth(rec.time));
    if (!rewritten) continue;  // suppressed packet
    SensorRecord r = rec;
    r.attrs = std::move(*rewritten);
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace sentinel::faults
