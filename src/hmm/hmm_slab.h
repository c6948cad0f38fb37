// Struct-of-arrays slab storage for per-sensor online HMMs.
//
// Every escalated sensor the diagnosis tier tracks carries two OnlineHmm
// estimators (the active track's M_CE and the sensor's pooled aggregate).
// As independent heap objects each observe() walks two std::maps, touches
// four scattered Matrix allocations, and track churn reallocates A/B from
// scratch. The slab packs the same estimator state for ALL lanes into
// contiguous arenas keyed by dense lane ids:
//
//   a_      lane-major fixed-gain A tiles      (h_cap x h_stride doubles)
//   b_      lane-major fixed-gain B tiles      (h_cap x s_stride doubles)
//   a_avg_  decreasing-gain transition counts  (same shape as a_)
//   b_avg_  decreasing-gain emission counts    (same shape as b_)
//
// plus per-lane header vectors (hidden/symbol id segments, row counts,
// symbol totals, last-hidden, steps). All lanes share one capacity pair
// (h_cap_, s_cap_): when any lane outgrows it the whole slab repacks into
// wider tiles (counted in the `hmm.slab.repacks` metric and re-validated
// with two mat_vec moment sweeps per arena).
//
// observe(lane, hidden, symbol) interns ids (a linear scan over the lane's
// id segment: lanes hold a handful of states, and first-seen append order
// matches OnlineHmm's map-based interning exactly), then takes the step in
// OnlineHmm::observe's order: scale the transition row, bump it, add the
// counts; then the same for the emission row. A row is scaled over its
// padded stride, whose slack cells hold +0.0 and stay +0.0, so materialize()
// reproduces the OnlineHmm fed the same observations, checkpoint bytes
// included.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "hmm/online_hmm.h"

namespace sentinel::hmm {

class OnlineHmmSlab {
 public:
  static constexpr std::uint32_t kNoLane = 0xffffffffu;

  explicit OnlineHmmSlab(OnlineHmmConfig cfg);

  /// Claim a zeroed lane (recycled from the freelist when one is free).
  std::uint32_t open_lane();
  /// Return a lane to the freelist; its state is cleared for reuse.
  void free_lane(std::uint32_t lane);

  /// One estimation step on the lane (see OnlineHmm::observe).
  void observe(std::uint32_t lane, StateId hidden, StateId symbol);

  std::size_t steps(std::uint32_t lane) const { return steps_[lane]; }
  /// Whole-slab repacks triggered by capacity growth (also metric-counted
  /// as `hmm.slab.repacks`).
  std::size_t repacks() const { return repacks_; }

  /// Build the standalone estimator this lane's state denotes -- the same
  /// object (checkpoint bytes included) an OnlineHmm fed the same
  /// observations would be. Its averaged-matrix caches refresh lazily on
  /// first read, so consumers that never look (track close, checkpointing)
  /// pay nothing for them.
  OnlineHmm materialize(std::uint32_t lane) const;

  /// Load `src`'s state into an (empty) lane -- checkpoint restore.
  void adopt(std::uint32_t lane, const OnlineHmm& src);

 private:
  std::size_t a_tile() const { return h_cap_ * hs_; }
  std::size_t b_tile() const { return h_cap_ * ss_; }
  double* a_row(std::uint32_t lane, std::size_t r) { return a_.data() + lane * a_tile() + r * hs_; }
  double* b_row(std::uint32_t lane, std::size_t r) { return b_.data() + lane * b_tile() + r * ss_; }

  std::size_t intern_hidden(std::uint32_t lane, StateId id, StateId first_symbol);
  std::size_t intern_symbol(std::uint32_t lane, StateId id);
  /// Index of an already-interned hidden id (the last-hidden lookup).
  std::size_t index_of_hidden(std::uint32_t lane, StateId id) const;

  void grow_lanes(std::size_t need);
  /// Repack every tile into wider (h_need, s_need) capacities.
  void grow_caps(std::size_t h_need, std::size_t s_need);
  void clear_lane(std::uint32_t lane);
  /// Post-repack invariant check over all in-use lanes, two mat_vec sweeps
  /// per arena: each logical A/B row must sum to ~1 with its
  /// index-weighted mass inside the logical column range (so a repack that
  /// mis-copied offsets or leaked values into slack cells fails loudly).
  void validate_after_repack() const;

  OnlineHmmConfig cfg_;

  std::size_t lane_cap_ = 0;
  std::size_t h_cap_ = 0;  // hidden-state capacity shared by all lanes
  std::size_t s_cap_ = 0;  // symbol capacity shared by all lanes
  std::size_t hs_ = 0;     // padded row stride of a_/a_avg_ tiles
  std::size_t ss_ = 0;     // padded row stride of b_/b_avg_ tiles

  std::vector<double> a_, b_, a_avg_, b_avg_;

  // Per-lane headers; id/count segments are lane-major slices of size
  // h_cap_/s_cap_ so a repack moves them with the tiles.
  std::vector<StateId> hidden_ids_;      // lane_cap_ * h_cap_
  std::vector<StateId> symbol_ids_;      // lane_cap_ * s_cap_
  std::vector<double> a_row_counts_;     // lane_cap_ * h_cap_
  std::vector<double> b_row_counts_;     // lane_cap_ * h_cap_
  std::vector<double> symbol_totals_;    // lane_cap_ * s_cap_
  std::vector<std::uint32_t> n_hidden_;
  std::vector<std::uint32_t> n_symbols_;
  std::vector<StateId> last_hidden_;
  std::vector<std::uint8_t> has_last_;
  std::vector<std::uint8_t> in_use_;
  std::vector<std::uint64_t> steps_;

  std::vector<std::uint32_t> free_lanes_;

  std::size_t repacks_ = 0;
};

}  // namespace sentinel::hmm
