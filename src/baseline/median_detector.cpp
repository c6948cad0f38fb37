#include "baseline/median_detector.h"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "util/stats.h"

namespace sentinel::baseline {

MedianDetector::MedianDetector(MedianDetectorConfig cfg) : cfg_(cfg) {
  if (!(cfg_.k > 0.0) || !(cfg_.min_sigma > 0.0)) {
    throw std::invalid_argument("MedianDetector: bad configuration");
  }
}

std::map<SensorId, bool> MedianDetector::process(const ObservationSet& window) {
  std::map<SensorId, bool> out;
  const auto& ids = window.rep_sensors;
  const auto& reps = window.rep_points;
  for (const SensorId id : ids) {
    out[id] = false;
    ++window_counts_[id];
  }
  if (reps.size() < 3) return out;

  const std::size_t dims = reps.front().size();
  for (std::size_t a = 0; a < dims; ++a) {
    std::vector<double> xs;
    xs.reserve(reps.size());
    for (const AttrVec& v : reps) xs.push_back(v[a]);
    const double med = median(xs);
    std::vector<double> devs;
    devs.reserve(xs.size());
    for (const double x : xs) devs.push_back(std::abs(x - med));
    const double sigma = std::max(cfg_.min_sigma, 1.4826 * median(devs));
    for (std::size_t j = 0; j < reps.size(); ++j) {
      if (std::abs(reps[j][a] - med) > cfg_.k * sigma) out[ids[j]] = true;
    }
  }
  for (const auto& [id, flagged] : out) {
    if (flagged) ++flag_counts_[id];
  }
  return out;
}

std::size_t MedianDetector::flags(SensorId sensor) const {
  const auto it = flag_counts_.find(sensor);
  return it == flag_counts_.end() ? 0 : it->second;
}

std::size_t MedianDetector::windows(SensorId sensor) const {
  const auto it = window_counts_.find(sensor);
  return it == window_counts_.end() ? 0 : it->second;
}

}  // namespace sentinel::baseline
