// Observable / Correct state identification (paper section 3.1, eqs. (2)-(4)).
//
// Given a window's observation set and the current model states:
//  - the *observable* state o_i is the model state nearest the mean of all
//    observations (eq. (2)) -- what the network as a whole reports,
//  - each sensor representative maps to a model state l_j (eq. (3)),
//  - the *correct* state c_i is the model state holding the largest group of
//    observations (eq. (4)) -- valid under the paper's majority assumption:
//    the largest cluster of observations contains a majority of correct
//    sensors.

#pragma once

#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/model_states.h"
#include "trace/windower.h"

namespace sentinel::core {

struct WindowStates {
  StateId observable = 0;  // o_i
  StateId correct = 0;     // c_i
  /// l_j per sensor, ascending by sensor id (the windower's natural order).
  std::vector<std::pair<SensorId, StateId>> mapping;
  std::size_t majority_size = 0;  // |largest cluster|
  std::size_t sensors = 0;        // sensors in the window, a bloc's included

  /// l_j of one sensor (binary search); throws if the sensor had no
  /// representative this window.
  StateId mapped(SensorId sensor) const;
};

/// Reusable buffers for identify_states_into; keeping one per pipeline makes
/// the per-window identification allocation-free in steady state.
struct StateIdentScratch {
  /// Storage slot (see ModelStateSet::map_slot) of each per-sensor
  /// representative, in mapping[] order, then the bloc mean's slot when a
  /// bloc voted. Valid until the model-state set is next mutated -- the
  /// pipeline hands these to update_labeled so eq. (5) reuses the eq. (3)
  /// labels instead of recomputing every distance.
  std::vector<std::size_t> point_slots;
  std::vector<std::size_t> cluster_sizes;  // per-slot representative counts
};

/// Identify o_i, c_i, and l_j for one window, from its rep arrays and
/// cached_mean. Requires a nonempty window. Ties in eq. (4) break toward the
/// cluster containing the observable state, then toward the smaller state
/// id (deterministic).
WindowStates identify_states(const ObservationSet& window, const ModelStateSet& states);

/// Allocation-free variant over flat arrays (the pipeline's hot path):
/// `sensors[j]`/`points[j]` must be the per-sensor representatives in
/// ascending sensor order. Writes into `out` and `scratch` (cleared and
/// reused; their capacity persists across windows). `window_mean` must be
/// the window's overall mean (eq. (2) input), precomputed by the caller so
/// the same mean also serves the spawn pass.
///
/// `precomputed_slots`, when nonempty, must hold map_slot() of each
/// representative (in `points` order) under the *current* centroids -- e.g.
/// from ModelStateSet::maybe_spawn_mapped when it created no states -- and
/// lets eq. (3) skip its distance scans entirely. Throws if its size
/// disagrees with the representative count.
///
/// A bloc is `bloc_weight` further sensors known only through their mean,
/// `bloc_mean` (the pipeline's screened sensors; see
/// PipelineConfig::screen). When the weight is nonzero, the bloc's mean is
/// mapped once, its cluster gains `bloc_weight` votes in eq. (4), its slot
/// is appended to scratch.point_slots for the eq. (5) update, and it adds no
/// mapping[] entry; `sensors` may then be empty. A zero weight ignores
/// `bloc_mean`.
void identify_states_into(std::span<const SensorId> sensors, std::span<const AttrVec> points,
                          const ModelStateSet& states, std::span<const double> window_mean,
                          WindowStates& out, StateIdentScratch& scratch,
                          std::span<const std::size_t> precomputed_slots = {},
                          std::span<const double> bloc_mean = {},
                          std::size_t bloc_weight = 0);

}  // namespace sentinel::core
