// Model State Identification (paper section 3.1, eqs. (3), (5), (6)).
//
// Maintains the set S = {s_1, ..., s_M} of model states that synthetically
// describe the physical conditions traversed by the environment *and by
// error/attack data*. An on-line clustering algorithm updates centroids with
// an EMA (eq. (6)), merges states that drift too close together, and spawns a
// new state when an observation lands too far from every existing state --
// which is how a stuck-at sensor's bogus regime gets its own state, e.g. the
// paper's (15, 1).
//
// State ids are stable: a merge keeps the older state's id, and the merged
// id's last centroid stays queryable so emission matrices built against it
// remain interpretable.
//
// Storage is flat: one contiguous centroid buffer in slot order plus an
// id->slot hash index. Slot order always equals ascending-id order (spawns
// append monotonically increasing ids; merges keep the older id, i.e. the
// earlier slot), which keeps every distance scan and tie-break identical to
// the original per-state-struct layout while map() runs as a tight loop over
// consecutive memory and is_active()/centroid()/resolve() are O(1) lookups.
//
// The per-slot stride is dims() rounded up to the 4-lane kernel width
// (util/kernels.h) and padding cells are zero, so map()/maybe_spawn() scan
// whole blocks of slots with the SIMD dist2_block kernel. Zero pads add
// exactly +0.0 to a reduction lane, so padded distances are bit-identical to
// the unpadded ones.

#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/config.h"
#include "hmm/markov_chain.h"
#include "trace/record.h"
#include "util/serialize_fwd.h"

namespace sentinel::core {

using hmm::StateId;

struct ModelState {
  StateId id = 0;
  AttrVec centroid;
};

class ModelStateSet {
 public:
  /// Start from the initial estimate S_o (offline k-means over history, or
  /// random -- the paper reports both work). Throws if empty.
  ModelStateSet(ModelStateConfig cfg, std::vector<AttrVec> initial);

  /// eq. (3): the active state nearest to p.
  StateId map(const AttrVec& p) const { return ids_[map_slot(p)]; }

  /// eq. (3) by storage slot: index into ids()/centroid_at() of the active
  /// state nearest to p. Slots are ascending-id order and stay valid until
  /// the next maybe_spawn / update / load.
  std::size_t map_slot(std::span<const double> p) const;

  /// Spawn pass: create a state s_{M+1} = p for every observation farther
  /// than spawn_threshold from its nearest state (respecting max_states).
  /// Returns ids of states created. Run *before* mapping a window so a fresh
  /// fault regime is representable immediately.
  std::vector<StateId> maybe_spawn(std::span<const AttrVec> points);
  std::vector<StateId> maybe_spawn(const std::vector<AttrVec>& points) {
    return maybe_spawn(std::span<const AttrVec>(points));
  }

  /// Spawn pass that also records each point's nearest slot from the same
  /// scan. When the returned list is empty (the steady state), `slots[j]` is
  /// exactly map_slot(points[j]) under the final centroids, so the caller's
  /// eq. (3) mapping pass can skip its scans. When states *were* created a
  /// later spawn may be nearer to an earlier point than its recorded slot --
  /// callers must remap (identify_states does its own scans then).
  std::vector<StateId> maybe_spawn_mapped(std::span<const AttrVec> points,
                                          std::vector<std::size_t>& slots);

  /// eqs. (5)+(6): EMA-update each state's centroid from the observations
  /// mapped to it, then merge states closer than merge_threshold.
  void update(const std::vector<AttrVec>& points);

  /// Same, but reusing per-point slot labels already computed by the caller
  /// (identify_states maps the very same representatives for eq. (3); the
  /// centroids cannot have changed in between, so remapping is redundant).
  /// `slots[j]` must be map_slot(points[j]) under the current centroids.
  void update_labeled(std::span<const AttrVec> points, std::span<const std::size_t> slots);

  /// Snapshot of the active states in slot (== ascending id) order.
  std::vector<ModelState> states() const;
  std::size_t size() const { return ids_.size(); }
  std::size_t dims() const { return dims_; }

  /// Active state ids in slot order.
  const std::vector<StateId>& ids() const { return ids_; }
  /// Centroid of the state in storage slot `slot` (no bounds check).
  std::span<const double> centroid_at(std::size_t slot) const {
    return {centroids_.data() + slot * stride_, dims_};
  }

  /// Centroid by id; falls back to the last known centroid of a merged-away
  /// state. nullopt for ids never seen.
  std::optional<AttrVec> centroid(StateId id) const;

  /// True if `id` is currently an active state.
  bool is_active(StateId id) const { return slot_of_.find(id) != slot_of_.end(); }

  /// If `id` was merged away, the id it was folded into (transitively).
  /// O(1): the merge lineage is path-compressed eagerly at merge time.
  StateId resolve(StateId id) const {
    const auto it = resolved_.find(id);
    return it == resolved_.end() ? id : it->second;
  }

  std::size_t spawn_count() const { return spawns_; }
  std::size_t merge_count() const { return merges_; }

  /// Checkpointing: active states, historical centroids, merge lineage.
  /// load() requires the same ModelStateConfig the saved instance had.
  /// The path-compressed resolution memo is derived state and not saved;
  /// load() rebuilds it from the raw lineage, so bytes match older saves.
  void save(serialize::Writer& w) const;
  static ModelStateSet load(ModelStateConfig cfg, serialize::Reader& r);

 private:
  void merge_close_states();
  void append_state(StateId id, std::span<const double> centroid);
  /// Slot and squared distance of the active state nearest to p (strict-<
  /// first-min, identical to the historical sequential scan).
  std::pair<std::size_t, double> scan_nearest(std::span<const double> p) const;

  ModelStateConfig cfg_;
  std::size_t dims_ = 0;
  std::size_t stride_ = 0;          // kern::padded(dims_): per-slot stride
  std::vector<StateId> ids_;        // slot -> id, ascending
  std::vector<double> centroids_;   // slot-major, stride_ stride, zero pads
  std::unordered_map<StateId, std::size_t> slot_of_;  // active id -> slot
  std::unordered_map<StateId, AttrVec> historical_;   // last centroid of every id ever
  std::unordered_map<StateId, StateId> merged_into_;  // raw lineage (serialized as-is)
  std::unordered_map<StateId, StateId> resolved_;     // path-compressed memo (derived)
  StateId next_id_ = 0;
  std::size_t spawns_ = 0;
  std::size_t merges_ = 0;

  // update() scratch, reused across windows so the steady-state hot path
  // performs no allocations.
  std::vector<double> acc_sum_;
  std::vector<std::size_t> acc_count_;
  std::vector<std::size_t> self_slots_;
};

}  // namespace sentinel::core
