// Time windowing (paper section 3.1, eq. (1)).
//
// The collector node partitions incoming observations into windows of
// duration w: O_i = { p | <t,p> in O  and  w*(i-1) <= t <= w*i }.
//
// An ObservationSet carries the per-sensor *representatives* (the mean of a
// sensor's samples within the window) plus the screen-tier caches derived
// from them; the pipeline maps each sensor's representative to a model state
// (eq. (3)), so a sensor contributes one vote per window regardless of how
// many of its packets survived the radio. The rep arrays are the only form
// of a window: no raw samples and no per-sensor map are kept.
//
// The windower itself is columnar: per-sensor running sums live in
// slot-indexed SoA arenas, reused across windows. A sensor's slot is numbered
// on first sight and found through a SensorTable (array indexing for every
// real deployment's ids). Each record is added straight into its sensor's sum
// row and the window total in arrival order, and every per-window container
// is recycled, so the steady-state ingest path performs zero allocations per
// record.
// Finalization reproduces the legacy map-based accumulation order
// bit-for-bit (see windower.cpp), so goldens and checkpoints are unchanged.

#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "trace/record.h"
#include "trace/sensor_table.h"
#include "util/serialize_fwd.h"

namespace sentinel {

struct ObservationSet {
  std::size_t window_index = 0;  // i, 1-based as in the paper
  double window_start = 0.0;     // seconds
  double window_end = 0.0;       // seconds

  /// Records the window received; 0 for an empty window.
  std::size_t records = 0;

  /// Flat per-sensor representatives in ascending sensor order:
  /// rep_points[j] is the mean of sensor rep_sensors[j]'s samples in the
  /// window. Sensors with no surviving packets this window are absent. The
  /// pipeline's per-window passes (spawn scan, eq. (3) mapping, eq. (5)
  /// update) all iterate these arrays.
  std::vector<SensorId> rep_sensors;
  std::vector<AttrVec> rep_points;

  /// Screen-tier line-rate cache, filled at finalization (while the
  /// representatives are still cache-hot): rep_sums[j] is
  /// vecn::scalar_sum(rep_points[j]), and rep_total is the attr-wise sum
  /// over all representatives in rep order. With these, a screening
  /// pipeline touches only one scalar per healthy sensor per window -- the
  /// full representative vectors are read for escalated sensors alone (the
  /// screened-bloc mean comes from rep_total minus the escalated points).
  std::vector<double> rep_sums;
  AttrVec rep_total;

  /// Mean over all of the window's records in arrival order (the input to
  /// observable-state identification, eq. (2)); empty for an empty window.
  AttrVec cached_mean;
};

/// Window i (1-based) holding `time` under eq. (1) with half-open windows
/// [w*(i-1), w*i) of `window_seconds`. Times before deployment start (and
/// NaN) clamp into window 1, astronomically large times to window 9e18;
/// `clamped` says whether either happened. Every windowing path buckets
/// records with this rule.
struct WindowIndex {
  std::size_t index = 0;
  bool clamped = false;
};
WindowIndex window_index(double time, double window_seconds);

/// Stable sort by time, NaN times first: they clamp into window 1, where
/// the windower puts them, so a NaN anywhere in the input neither breaks
/// the sort's ordering nor makes later records late.
void sort_by_time(std::vector<SensorRecord>& records);

/// Streaming windower: feed records in nondecreasing-ish time order, pop
/// completed windows. Records may arrive slightly out of order within a
/// window; a record older than an already-emitted window is dropped and
/// counted as late.
class Windower {
 public:
  /// `window_seconds` is the paper's w (they use 12 samples x 5 min =
  /// 1 hour). Must be > 0.
  explicit Windower(double window_seconds);

  /// A run of `count` consecutive empty windows: how a gap in time reaches
  /// the callback, in one call however long it is. A timestamp far in the
  /// future (clamped to window 9e18) opens a gap no per-window loop
  /// finishes.
  struct EmptyWindows {
    std::size_t count = 0;
  };

  /// The fused decode -> window -> screen-cache pass. The trace readers and
  /// FleetMonitor feed whole decoded batches here; per record the window
  /// bookkeeping and the adds into the sensor's sum row and the window total
  /// run inline, so the common no-window-closed case touches no allocator
  /// and no map. Completed windows are delivered to
  /// `on_window(ObservationSet&&)` in order; the emission object is recycled
  /// across windows when the callback reads it in place (the pipeline does).
  /// A gap of empty windows after a completed window arrives as one
  /// `on_window(EmptyWindows)`, so the callback must accept both.
  template <typename Fn>
  void add_batch(std::span<const SensorRecord> recs, Fn&& on_window) {
    for (const SensorRecord& rec : recs) step(rec.sensor, rec.time, rec.attrs, on_window);
  }

  /// The same pass over a flat batch (the fleet's shard queues carry these).
  template <typename Fn>
  void add_batch(const RecordBatch& batch, Fn&& on_window) {
    const double* attrs = batch.attrs.data();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const std::size_t width = batch.widths[i];
      step(batch.sensors[i], batch.times[i], {attrs, width}, on_window);
      attrs += width;
    }
  }

  /// Flush the final partial window (if any).
  std::optional<ObservationSet> flush();

  std::size_t late_records() const { return late_records_; }
  /// Records whose time was degenerate (NaN, negative, astronomically
  /// large) and had to be clamped into a representable window. Legal input
  /// per section 3.1's malformed-packet tolerance, but worth counting: a
  /// sensor emitting clamped timestamps is broken in a specific way.
  std::size_t clamped_records() const { return clamped_records_; }
  double window_seconds() const { return window_seconds_; }

  /// Persist / restore the in-flight state -- the open window's index and
  /// pending records, plus the late/clamped tallies -- so a resumed pipeline
  /// continues mid-window exactly where the checkpointed one stopped (the
  /// resumable-checkpoint section; window_seconds_ is configuration and is
  /// not serialized). The byte format is the arrival-order record log, so
  /// checkpoints are byte-identical to the pre-columnar windower's; load()
  /// rebuilds the columnar accumulators by replaying the log.
  void save(serialize::Writer& w) const;
  void load(serialize::Reader& r);

 private:
  static constexpr std::uint32_t kDimsUnset = 0xFFFFFFFFu;

  /// One record through the window bookkeeping: both add_batch overloads
  /// run this, in input order.
  template <typename Fn>
  void step(SensorId sensor, double time, std::span<const double> attrs, Fn& on_window) {
    const auto [idx, clamped] = window_index(time, window_seconds_);
    if (clamped) ++clamped_records_;
    if (current_index_ == 0) {
      current_index_ = idx;
    } else if (idx < current_index_) {
      ++late_records_;
      return;
    } else if (idx > current_index_) {
      finalize_into(out_);
      on_window(std::move(out_));
      // Hand over any gap so downstream sees the time hole.
      if (idx - current_index_ > 1) on_window(EmptyWindows{idx - current_index_ - 1});
      current_index_ = idx;
    }
    accumulate(sensor, time, attrs);
  }

  /// Log the record into the open window's arrival-order log and add it into
  /// its sensor's sum row and the window total. Allocation-free at steady
  /// state.
  void accumulate(SensorId sensor, double time, std::span<const double> attrs);
  std::uint32_t slot_for(SensorId id);
  void grow_stride(std::size_t dims);
  /// Build the completed window into `out` (recycling its buffers) from the
  /// columnar state, then reset the per-window accumulators. Throws the
  /// legacy dimension-mismatch errors (see windower.cpp); the window's
  /// content is discarded in that case.
  void finalize_into(ObservationSet& out);
  void reset_window_state();

  double window_seconds_;
  std::size_t current_index_ = 0;  // 0 = no window open yet
  std::size_t late_records_ = 0;
  std::size_t clamped_records_ = 0;

  // Arrival-order log of the open window's records, cleared (capacity kept)
  // when the window closes. This is the checkpoint byte format.
  RecordBatch log_;

  // Columnar per-sensor state. Slots are numbered in first-seen order and
  // persist for the windower's lifetime; per-window fields (counts, dims,
  // sums rows) are reset for touched slots only.
  SensorTable<std::uint32_t> slots_;         // sensor id -> slot
  std::vector<SensorId> slot_ids_;           // slot -> sensor id
  std::vector<std::size_t> slot_counts_;     // samples this window
  std::vector<std::uint32_t> slot_dims_;     // dims of the slot's first sample
  std::vector<std::uint32_t> slot_conflict_; // dims of its first mismatched sample
  std::vector<double> sums_;                 // slot-major running sums, stride_ wide
  std::size_t stride_ = 0;                   // kern::padded(max dims seen)
  std::vector<std::uint32_t> touched_;       // slots hit this window, first-touch order

  // Whole-window running total (the cached_mean numerator).
  std::vector<double> total_;
  std::uint32_t window_dims_ = kDimsUnset;   // dims of the window's first record
  std::uint32_t window_conflict_ = kDimsUnset;

  ObservationSet out_;  // recycled emission object
};

/// Batch convenience: window a whole trace (records need not be sorted).
/// Sorts with sort_by_time, runs one Windower over the records, and returns
/// the non-empty windows in order; a gap costs nothing however long it is.
std::vector<ObservationSet> window_trace(std::vector<SensorRecord> records, double window_seconds);

}  // namespace sentinel
