// Struct-of-arrays slab storage for per-sensor online HMMs.
//
// Every escalated sensor the diagnosis tier tracks carries two OnlineHmm
// estimators (the active track's M_CE and the sensor's pooled aggregate).
// As independent heap objects those defeat the SIMD kernel layer one tiny
// row update at a time: each observe() walks two std::maps, touches four
// scattered Matrix allocations, and track churn reallocates A/B from
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
// with a batched mat_vec_block moment check).
//
// Updates run in two phases so the hot loop is branch-light and the row
// EMAs batch into one kernel call per matrix:
//
//   observe(lane, hidden, symbol)  -- intern ids (linear scan over the
//       lane's id segment: lanes hold a handful of states, and first-seen
//       append order matches OnlineHmm's map-based interning exactly),
//       push the (lane, row, col) EMA updates onto the pending batch, and
//       apply the order-independent scalar count bumps immediately.
//   flush()  -- one ema_scale_bump_rows call over the batched A rows and
//       one over the batched B rows. Byte offsets are computed at flush
//       time, so a repack between observe and flush is safe.
//
// Bit-identity with per-object OnlineHmm: each pending row is scaled then
// bumped in batch order (exactly the per-observe sequence); within one
// window every lane is observed at most once, so batch rows are distinct;
// the count-matrix updates are +1.0 adds on doubles (exact, commutative);
// and scaling a padded row's +0.0 slack leaves it +0.0. materialize()
// therefore reproduces the OnlineHmm an unbatched run would have built,
// checkpoint bytes included.

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
  /// The lane must have no pending batched updates.
  void free_lane(std::uint32_t lane);

  /// Phase 1 of one estimation step (see OnlineHmm::observe): interning and
  /// scalar count bumps now, the two EMA row updates onto the pending batch.
  void observe(std::uint32_t lane, StateId hidden, StateId symbol);

  /// Phase 2: apply all pending EMA row updates in arrival order, one
  /// batched kernel call per matrix. Idempotent when nothing is pending.
  void flush();

  bool lane_has_pending(std::uint32_t lane) const { return pending_in_lane_[lane] != 0; }
  bool has_pending() const { return !pending_a_.empty() || !pending_b_.empty(); }

  std::size_t steps(std::uint32_t lane) const { return steps_[lane]; }
  std::size_t lanes_in_use() const { return lanes_in_use_; }
  std::size_t lane_capacity() const { return lane_cap_; }
  /// Whole-slab repacks triggered by capacity growth (also metric-counted
  /// as `hmm.slab.repacks`).
  std::size_t repacks() const { return repacks_; }

  /// Build the standalone estimator this lane's state denotes -- the same
  /// object (checkpoint bytes included) an unbatched OnlineHmm fed the same
  /// observations would be. Its averaged-matrix caches refresh lazily on
  /// first read, so consumers that never look (track close, checkpointing)
  /// pay nothing for them. The lane's pending updates must be flushed first.
  OnlineHmm materialize(std::uint32_t lane) const;

  /// Load `src`'s state into an (empty) lane -- checkpoint restore.
  void adopt(std::uint32_t lane, const OnlineHmm& src);

 private:
  struct PendingRow {
    std::uint32_t lane;
    std::uint32_t row;
    std::uint32_t col;
  };

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
  /// Post-repack invariant check over all in-use lanes, batched through
  /// mat_vec_block: each logical A/B row must sum to ~1 with its
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
  std::vector<std::uint32_t> pending_in_lane_;

  std::vector<std::uint32_t> free_lanes_;
  std::size_t lanes_in_use_ = 0;

  std::vector<PendingRow> pending_a_;
  std::vector<PendingRow> pending_b_;
  // Flush scratch (offsets/columns), retained across windows.
  std::vector<std::size_t> flush_offs_;
  std::vector<std::uint32_t> flush_cols_;

  std::size_t repacks_ = 0;
};

}  // namespace sentinel::hmm
