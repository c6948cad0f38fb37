// Time windowing (paper section 3.1, eq. (1)).
//
// The collector node partitions incoming observations into windows of
// duration w: O_i = { p | <t,p> in O  and  w*(i-1) <= t <= w*i }.
//
// An ObservationSet carries the per-sensor *representatives* (the mean of a
// sensor's samples within the window) plus the screen-tier caches derived
// from them; the pipeline maps each sensor's representative to a model state
// (eq. (3)), so a sensor contributes one vote per window regardless of how
// many of its packets survived the radio. Raw per-record retention is an
// opt-in (WindowerConfig::keep_raw) -- the fleet path consumes only the flat
// rep arrays and cached_mean.
//
// The windower itself is columnar: per-sensor running sums live in
// slot-indexed SoA arenas (O(1) sensor-id -> slot, reused across windows), a
// record's floating-point adds are batched through the kernel dispatch
// table's accum_rows/sum_rows entries, and every per-window container is
// recycled, so the steady-state ingest path performs zero allocations per
// record. Finalization reproduces the legacy map-based accumulation order
// bit-for-bit (see windower.cpp), so goldens and checkpoints are unchanged.

#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "trace/record.h"
#include "util/serialize_fwd.h"

namespace sentinel {

struct ObservationSet {
  std::size_t window_index = 0;  // i, 1-based as in the paper
  double window_start = 0.0;     // seconds
  double window_end = 0.0;       // seconds

  /// All raw attribute vectors received in this window. Populated only when
  /// the producing windower keeps raw history (WindowerConfig::keep_raw) or
  /// the window was hand-built; the flat rep arrays below are authoritative.
  std::vector<AttrVec> raw;

  /// Per-sensor representative: mean of that sensor's samples in the window.
  /// Sensors with no surviving packets this window are absent. Like `raw`,
  /// populated only with keep_raw (it duplicates rep_sensors/rep_points as a
  /// map; rebuildable from them).
  std::map<SensorId, AttrVec> per_sensor;

  /// Mean over all raw observations, filled by the windower at finalization
  /// (same accumulation order as vecn::mean over the raw records, so the
  /// bits match). Empty for hand-built windows; overall_mean() computes it
  /// on demand then. Caching it means window replay (the fleet's dominant
  /// workload) never re-walks the raw vectors.
  AttrVec cached_mean;

  /// Flat per-sensor representatives in ascending sensor order, filled at
  /// finalization: rep_points[j] is sensor rep_sensors[j]'s representative.
  /// The pipeline's per-window passes (spawn scan, eq. (3) mapping, eq. (5)
  /// update) all iterate these arrays instead of walking a map. Empty for
  /// hand-built windows (the pipeline copies out of per_sensor then).
  std::vector<SensorId> rep_sensors;
  std::vector<AttrVec> rep_points;

  /// Screen-tier line-rate cache, also filled at finalization (while the
  /// representatives are still cache-hot): rep_sums[j] is
  /// vecn::scalar_sum(rep_points[j]), and rep_total is the attr-wise sum
  /// over all representatives in rep order. With these, a screening
  /// pipeline touches only one scalar per healthy sensor per window -- the
  /// full representative vectors are read for escalated sensors alone (the
  /// screened-bloc mean comes from rep_total minus the escalated points).
  /// Empty for hand-built windows; the pipeline falls back to computing
  /// the identical values from rep_points / per_sensor.
  std::vector<double> rep_sums;
  AttrVec rep_total;

  /// True when the window saw no observations at all. Checks the rep arrays
  /// as well as raw/per_sensor so a keep_raw=false window (raw never
  /// retained) still reads as occupied.
  bool empty() const { return raw.empty() && per_sensor.empty() && rep_sensors.empty(); }

  /// Number of sensors represented in this window. Prefers the flat rep
  /// arrays so a pre-aggregated upload (representatives only, no per-sensor
  /// map and no raw samples -- what a cluster head that windows locally
  /// sends) still counts its sensors for the min-sensors gate and the
  /// fleet's ingest weight. Identical to per_sensor.size() whenever the map
  /// is populated.
  std::size_t sensor_count() const {
    return rep_sensors.empty() ? per_sensor.size() : rep_sensors.size();
  }

  /// Mean over all raw observations (the input to observable-state
  /// identification, eq. (2)). Prefers the finalization-time cache (the only
  /// source when raw history is off). Throws if the window is empty.
  AttrVec overall_mean() const;

  /// Representatives as a flat (sensor, value) list in sensor order.
  std::vector<std::pair<SensorId, AttrVec>> representatives() const;
};

/// Windower configuration.
struct WindowerConfig {
  /// The paper's w (they use 12 samples x 5 min = 1 hour). Must be > 0.
  double window_seconds = 0.0;
  /// Retain each window's raw attribute vectors and the per_sensor map in
  /// the emitted ObservationSet. Costs one heap copy per record plus map
  /// nodes per sensor per window; the detection pipeline reads only the rep
  /// arrays + cached_mean, so the fleet path runs with this off.
  bool keep_raw = true;
};

/// Streaming windower: feed records in nondecreasing-ish time order, pop
/// completed windows. Records may arrive slightly out of order within a
/// window; a record older than an already-emitted window is dropped and
/// counted as late.
class Windower {
 public:
  explicit Windower(const WindowerConfig& cfg);
  /// Legacy convenience: window duration only, raw history retained.
  explicit Windower(double window_seconds)
      : Windower(WindowerConfig{window_seconds, /*keep_raw=*/true}) {}

  /// A run of `count` consecutive empty windows, handed to a callback that
  /// accepts one instead of `count` empty ObservationSets. A timestamp far in
  /// the future (clamped to window 9e18) opens a gap no per-window loop
  /// finishes.
  struct EmptyWindows {
    std::size_t count = 0;
  };

  /// Add a record. Returns any windows completed by this record's arrival
  /// (possibly more than one if time jumped; empty windows are emitted so the
  /// caller sees gaps explicitly -- the pipeline skips them).
  std::vector<ObservationSet> add(const SensorRecord& rec);

  /// Allocation-free variant: invokes `on_window(ObservationSet&&)` for each
  /// completed window instead of materializing a result vector.
  template <typename Fn>
  void add(const SensorRecord& rec, Fn&& on_window) {
    add_batch(std::span<const SensorRecord>(&rec, 1), std::forward<Fn>(on_window));
  }

  /// Bulk entry: the fused decode -> window -> screen-cache pass. The trace
  /// readers and FleetMonitor feed whole decoded batches here; per record the
  /// window bookkeeping runs inline and the floating-point accumulation is
  /// deferred into gather buffers flushed through the kernel table
  /// (accum_rows / sum_rows), so the common no-window-closed case touches no
  /// allocator and no map. Completed windows are delivered to
  /// `on_window(ObservationSet&&)` in order; the emission object is recycled
  /// across windows when the callback reads it in place (the pipeline does).
  /// A gap of empty windows arrives as one `on_window(EmptyWindows)` when the
  /// callback accepts that, else as one empty ObservationSet per window.
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
  bool keep_raw() const { return keep_raw_; }

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
  static constexpr std::size_t kGatherCap = 256;

  /// One record through the window bookkeeping: both add_batch overloads
  /// run this, in input order.
  template <typename Fn>
  void step(SensorId sensor, double time, std::span<const double> attrs, Fn& on_window) {
    const auto idx = index_for(time);
    if (current_index_ == 0) {
      open_window(idx);
    } else if (idx < current_index_) {
      ++late_records_;
      return;
    } else if (idx > current_index_) {
      finalize_into(out_);
      on_window(std::move(out_));
      // Emit empty windows for any gap so downstream sees time holes.
      if constexpr (std::is_invocable_v<Fn&, EmptyWindows>) {
        if (idx - current_index_ > 1) on_window(EmptyWindows{idx - current_index_ - 1});
      } else {
        for (std::size_t i = current_index_ + 1; i < idx; ++i) {
          ObservationSet empty;
          empty.window_index = i;
          empty.window_start = window_seconds_ * static_cast<double>(i - 1);
          empty.window_end = window_seconds_ * static_cast<double>(i);
          on_window(std::move(empty));
        }
      }
      open_window(idx);
    }
    accumulate(sensor, time, attrs);
  }

  void open_window(std::size_t index);
  std::size_t index_for(double time);
  /// Log the record into the recycled arrival-order log and update the
  /// columnar accumulators (gather-deferred adds). Allocation-free at steady
  /// state.
  void accumulate(SensorId sensor, double time, std::span<const double> attrs);
  void accumulate_entry(const SensorRecord& e);
  std::uint32_t slot_for(SensorId id);
  void grow_stride(std::size_t dims);
  void rehash();
  void flush_slot_gather();
  void flush_total_gather();
  /// Build the completed window into `out` (recycling its buffers) from the
  /// columnar state, then reset the per-window accumulators. Throws the
  /// legacy dimension-mismatch errors (see windower.cpp); the window's
  /// content is discarded in that case.
  void finalize_into(ObservationSet& out);
  void reset_window_state();

  double window_seconds_;
  bool keep_raw_;
  std::size_t current_index_ = 0;  // 0 = no window open yet
  std::size_t late_records_ = 0;
  std::size_t clamped_records_ = 0;

  // Arrival-order log of the open window's records. Elements are recycled
  // (attrs keep their heap buffers across windows); only the first
  // pending_count_ entries are live. This is the checkpoint byte format and
  // the source of `raw` when keep_raw is on.
  std::vector<SensorRecord> pending_log_;
  std::size_t pending_count_ = 0;

  // Columnar per-sensor state. Slots are assigned on first sight of a sensor
  // id and persist for the windower's lifetime; per-window fields (counts,
  // dims, sums rows) are reset for touched slots only.
  std::vector<std::uint32_t> ht_;            // open-addressing: slot + 1, 0 = empty
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

  // Gather buffers for the deferred adds. Sources point into pending_log_
  // entries (heap-stable across log growth), so a gather may span add_batch
  // calls; destinations are offsets so sums_ may grow underneath.
  std::array<std::size_t, kGatherCap> g_offs_;
  std::array<const double*, kGatherCap> g_srcs_;
  std::size_t g_count_ = 0;
  std::size_t g_dims_ = 0;
  std::array<const double*, kGatherCap> gt_srcs_;
  std::size_t gt_count_ = 0;

  ObservationSet out_;  // recycled emission object
};

/// Batch convenience: window a whole trace (records need not be sorted).
std::vector<ObservationSet> window_trace(std::vector<SensorRecord> records, double window_seconds);

}  // namespace sentinel
