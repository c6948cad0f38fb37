#include "core/state_ident.h"

#include <algorithm>

#include "util/vecn.h"

namespace sentinel::core {

StateId WindowStates::mapped(SensorId sensor) const {
  const auto it = std::lower_bound(
      mapping.begin(), mapping.end(), sensor,
      [](const std::pair<SensorId, StateId>& e, SensorId s) { return e.first < s; });
  if (it == mapping.end() || it->first != sensor) {
    throw std::out_of_range("WindowStates::mapped: sensor had no representative");
  }
  return it->second;
}

namespace {

// eq. (4): c_i = the state with the largest cluster of observations.
// Slots ascend by state id, so scanning them skipping empty clusters visits
// the same (id, size) sequence the original std::map iteration produced.
void pick_correct_state(const ModelStateSet& states, WindowStates& out,
                        const StateIdentScratch& scratch) {
  StateId best = out.mapping.front().second;
  std::size_t best_size = 0;
  for (std::size_t slot = 0; slot < states.size(); ++slot) {
    const std::size_t size = scratch.cluster_sizes[slot];
    if (size == 0) continue;
    const StateId id = states.ids()[slot];
    const bool larger = size > best_size;
    const bool tie = size == best_size;
    // Deterministic tie-break: prefer the cluster that agrees with the
    // network-level observable state, then the smaller id (ascending slot
    // order guarantees the first seen is the smallest).
    const bool prefer_on_tie = tie && id == out.observable && best != out.observable;
    if (larger || prefer_on_tie) {
      best = id;
      best_size = size;
    }
  }
  out.correct = best;
  out.majority_size = best_size;
}

}  // namespace

void identify_states_into(std::span<const SensorId> sensors, std::span<const AttrVec> points,
                          const ModelStateSet& states, std::span<const double> window_mean,
                          WindowStates& out, StateIdentScratch& scratch,
                          std::span<const std::size_t> precomputed_slots) {
  if (sensors.empty()) {
    throw std::invalid_argument("identify_states: empty window");
  }
  if (sensors.size() != points.size()) {
    throw std::invalid_argument("identify_states: sensor/point count mismatch");
  }
  if (!precomputed_slots.empty() && precomputed_slots.size() != sensors.size()) {
    throw std::invalid_argument("identify_states: precomputed slot count mismatch");
  }

  out.mapping.clear();
  out.sensors = sensors.size();

  // eq. (2): o_i = argmin_k || s_k - mean(all observations) ||.
  out.observable = states.ids()[states.map_slot(window_mean)];

  // eq. (3): l_j per sensor representative; sensors ascend, so mapping[]
  // comes out sorted.
  scratch.point_slots.clear();
  scratch.cluster_sizes.assign(states.size(), 0);
  for (std::size_t j = 0; j < sensors.size(); ++j) {
    const std::size_t slot =
        precomputed_slots.empty() ? states.map_slot(points[j]) : precomputed_slots[j];
    out.mapping.emplace_back(sensors[j], states.ids()[slot]);
    scratch.point_slots.push_back(slot);
    ++scratch.cluster_sizes[slot];
  }

  pick_correct_state(states, out, scratch);
}

WindowStates identify_states(const ObservationSet& window, const ModelStateSet& states) {
  WindowStates out;
  StateIdentScratch scratch;
  identify_states_into(window.rep_sensors, window.rep_points, states, window.cached_mean, out,
                       scratch);
  return out;
}

}  // namespace sentinel::core
