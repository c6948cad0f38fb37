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
// The windower's only per-record state is the open window's arrival-order
// record log, which is also the checkpoint byte format. A run of records
// whose times fall inside the open window's exact bounds -- the smallest
// times window_index itself puts in that window and in the next -- is
// appended to the log in bulk; only a record outside them goes through
// window_index. Where the bounds cannot be found (indices past 2^52, a
// product that overflows) they stay empty and every record takes
// window_index. The window is summed once, when it closes: one pass over
// the log adds each record into its sensor's sum row (slot-indexed SoA
// arenas, a slot numbered on first sight and found through a SensorTable)
// and into the window total, in arrival order. Every buffer is recycled
// across windows, so the steady-state ingest path performs zero allocations
// per record. Finalization reproduces the legacy map-based accumulation
// order bit-for-bit (see windower.cpp), so goldens and checkpoints are
// unchanged.

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
  /// FleetMonitor feed whole decoded batches here. Each run of records inside
  /// the open window's bounds is appended to the log at once, so the common
  /// no-window-closed case makes no division and no map lookup, and no
  /// allocation once the log has grown to a window's size.
  /// Completed windows are delivered to `on_window(ObservationSet&&)` in
  /// order; the emission object is recycled across windows when the callback
  /// reads it in place (the pipeline does). A gap of empty windows after a
  /// completed window arrives as one `on_window(EmptyWindows)`, so the
  /// callback must accept both.
  template <typename Fn>
  void add_batch(std::span<const SensorRecord> recs, Fn&& on_window) {
    for (std::size_t i = 0; i < recs.size();) {
      std::size_t j = i;
      while (j < recs.size() && in_window(recs[j].time)) ++j;
      log_.append(recs.subspan(i, j - i));
      if (j == recs.size()) break;
      if (admit(recs[j].time, on_window)) log_.append(recs.subspan(j, 1));
      i = j + 1;
    }
  }

  /// The same pass over a flat batch (the fleet's shard queues carry these).
  template <typename Fn>
  void add_batch(const RecordBatch& batch, Fn&& on_window) {
    const double* attrs = batch.attrs.data();
    for (std::size_t i = 0; i < batch.size();) {
      std::size_t j = i;
      const double* run_attrs = attrs;
      while (j < batch.size() && in_window(batch.times[j])) attrs += batch.widths[j++];
      log_run(batch, i, j, run_attrs, attrs);
      if (j == batch.size()) break;
      const double* rec_attrs = attrs;
      attrs += batch.widths[j];
      if (admit(batch.times[j], on_window)) log_run(batch, j, j + 1, rec_attrs, attrs);
      i = j + 1;
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
  /// refills the log, which the window's close sums like any other.
  void save(serialize::Writer& w) const;
  void load(serialize::Reader& r);

 private:
  static constexpr std::uint32_t kDimsUnset = 0xFFFFFFFFu;

  /// Whether `time` lies inside the open window's bounds, where window_index
  /// would return the open window unclamped. NaN never does.
  bool in_window(double time) const { return lo_ <= time && time < hi_; }

  /// A record outside the open window's bounds through window_index and the
  /// late/clamped/close/gap bookkeeping. Returns whether the record belongs in
  /// the (possibly newly) open window's log; a late record does not.
  template <typename Fn>
  bool admit(double time, Fn& on_window) {
    const auto [idx, clamped] = window_index(time, window_seconds_);
    if (clamped) ++clamped_records_;
    if (current_index_ == 0) {
      open_window(idx);
    } else if (idx < current_index_) {
      ++late_records_;
      return false;
    } else if (idx > current_index_) {
      finalize_into(out_);
      on_window(std::move(out_));
      // Hand over any gap so downstream sees the time hole.
      if (idx - current_index_ > 1) on_window(EmptyWindows{idx - current_index_ - 1});
      open_window(idx);
    }
    return true;
  }

  /// Make `index` the open window and find its bounds.
  void open_window(std::size_t index);
  /// Append records [first, last) of `batch`, whose attributes are
  /// [attrs, attrs_end), to the log.
  void log_run(const RecordBatch& batch, std::size_t first, std::size_t last,
               const double* attrs, const double* attrs_end);
  /// Append a slot for a sensor seen for the first time (an allocating
  /// event, once per sensor).
  void add_slot(SensorId id);
  void grow_stride(std::size_t dims);
  /// Sum the log into the completed window `out` (recycling its buffers),
  /// then reset the per-window state. Throws the legacy dimension-mismatch
  /// errors (see windower.cpp); the window's content is discarded in that
  /// case.
  void finalize_into(ObservationSet& out);
  void reset_window_state();

  double window_seconds_;
  std::size_t current_index_ = 0;  // 0 = no window open yet
  std::size_t late_records_ = 0;
  std::size_t clamped_records_ = 0;
  // The open window's exact bounds [lo_, hi_); empty (lo_ == hi_) when no
  // window is open or they could not be found, so every record takes
  // window_index.
  double lo_ = 0.0;
  double hi_ = 0.0;

  // Arrival-order log of the open window's records, cleared (capacity kept)
  // when the window closes. This is the checkpoint byte format.
  RecordBatch log_;

  // Per-sensor sums, filled at close. Slots are numbered in first-seen order
  // and persist for the windower's lifetime; per-window fields (count, dims,
  // sums rows) are reset for touched slots only.
  struct Slot {
    SensorId id = 0;
    std::uint32_t dims = kDimsUnset;      // dims of the slot's first sample
    std::uint32_t conflict = kDimsUnset;  // dims of its first mismatched sample
    std::size_t count = 0;                // samples this window
  };
  SensorTable<std::uint32_t> slot_of_;  // sensor id -> slot
  std::vector<Slot> slots_;
  std::vector<double> sums_;            // slot-major sums, stride_ wide
  std::size_t stride_ = 0;              // kern::padded(max dims seen)
  std::vector<std::uint32_t> touched_;  // slots hit this window, ascending id
  std::vector<std::uint32_t> by_id_;    // every slot in ascending id

  ObservationSet out_;  // recycled emission object
};

/// Batch convenience: window a whole trace (records need not be sorted).
/// Sorts with sort_by_time, runs one Windower over the records, and returns
/// the non-empty windows in order; a gap costs nothing however long it is.
std::vector<ObservationSet> window_trace(std::vector<SensorRecord> records, double window_seconds);

}  // namespace sentinel
