// Columnar windower implementation.
//
// Bit-identity contract: every value in a finalized ObservationSet must equal,
// bit for bit, what the legacy map-based finalization produced --
//
//   std::map<SensorId, std::vector<AttrVec>> by_sensor;   // group samples
//   for each sensor ascending: rep = vecn::mean(samples); // accumulate, *1/n
//   rep_sums.push_back(vecn::scalar_sum(rep));
//   rep_total += rep (sized from the first rep, min-truncated);
//   vecn::mean_into(raw, cached_mean);                    // all records, *1/n
//
// The columnar path reproduces each accumulation order exactly:
//  * A slot's running-sum row receives that sensor's samples in arrival
//    order, element-wise from +0.0 -- the same add sequence vecn::mean
//    performs on the grouped samples (grouping preserves arrival order per
//    sensor). The representative is sums[i] * (1.0/count), the same single
//    rounding vecn::mean's `x *= inv` applies to the same sum.
//  * The whole-window total receives every record in arrival order,
//    element-wise -- vecn::mean_into's order over `raw` -- and cached_mean
//    is total[i] * (1.0/count), matching its `*= inv`.
//  * Reps are emitted in ascending sensor order (std::sort over touched
//    slots), the order std::map iteration gave the legacy loop; rep_sums /
//    rep_total are computed from the finished reps with the identical
//    helper and truncation guard.
//
// Dimension-mismatch errors also mirror the legacy path: a sensor whose
// samples disagree in width throws vecn::check_same_size's message for the
// lowest such sensor id (legacy: vecn::mean over the first conflicted group),
// else a window whose records disagree throws it for the first record that
// differs from the window's first (legacy: vecn::mean_into over raw). In
// both cases the window being finalized is discarded; unlike the legacy
// code, which left moved-from remnants behind, the columnar windower resets
// to a clean empty window.

#include "trace/windower.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "util/kernels.h"
#include "util/serialize.h"

namespace sentinel {

namespace {

// Fibonacci-style mix so consecutive sensor ids spread across the table.
inline std::size_t hash_id(SensorId id) {
  return static_cast<std::size_t>(id) * 0x9E3779B97F4A7C15ull;
}

[[noreturn]] void throw_dims_mismatch(std::uint32_t have, std::uint32_t got) {
  throw std::invalid_argument("AttrVec dimension mismatch: " + std::to_string(have) + " vs " +
                              std::to_string(got));
}

}  // namespace

WindowIndex window_index(double time, double window_seconds) {
  // The paper's eq. (1) is inclusive on both ends, but half-open intervals
  // avoid double counting. Degenerate times need defined handling before the
  // cast -- converting a negative or out-of-range double to size_t is
  // undefined behavior (the ASan+UBSan CI job checks this path). Each clamp
  // is reported so the windower can count degenerate timestamps instead of
  // absorbing them silently.
  const double idx = std::floor(time / window_seconds);
  if (!(idx >= 0.0)) return {1, true};
  constexpr double kMaxIndex = 9.0e18;  // < 2^63: cast below is defined
  if (idx >= kMaxIndex) return {static_cast<std::size_t>(kMaxIndex), true};
  return {static_cast<std::size_t>(idx) + 1, false};
}

void sort_by_time(std::vector<SensorRecord>& records) {
  // `a.time < b.time` alone is not a strict weak order once a NaN is present.
  std::stable_sort(records.begin(), records.end(),
                   [](const SensorRecord& a, const SensorRecord& b) {
                     return (std::isnan(a.time) && !std::isnan(b.time)) || a.time < b.time;
                   });
}

Windower::Windower(double window_seconds) : window_seconds_(window_seconds) {
  if (!(window_seconds_ > 0.0)) throw std::invalid_argument("Windower: window must be positive");
  ht_.assign(64, 0);
}

std::uint32_t Windower::slot_for(SensorId id) {
  std::size_t mask = ht_.size() - 1;
  std::size_t h = hash_id(id) & mask;
  while (ht_[h] != 0) {
    const std::uint32_t s = ht_[h] - 1;
    if (slot_ids_[s] == id) return s;
    h = (h + 1) & mask;
  }
  // First sight of this sensor: append a slot (the only allocating event on
  // the accumulate path, amortized to zero once the fleet's id set is seen).
  const auto s = static_cast<std::uint32_t>(slot_ids_.size());
  slot_ids_.push_back(id);
  slot_counts_.push_back(0);
  slot_dims_.push_back(kDimsUnset);
  slot_conflict_.push_back(kDimsUnset);
  sums_.resize(sums_.size() + stride_, 0.0);
  ht_[h] = s + 1;
  if ((slot_ids_.size() + 1) * 4 > ht_.size() * 3) rehash();
  return s;
}

void Windower::rehash() {
  std::vector<std::uint32_t> bigger(ht_.size() * 2, 0);
  const std::size_t mask = bigger.size() - 1;
  for (std::uint32_t s = 0; s < slot_ids_.size(); ++s) {
    std::size_t h = hash_id(slot_ids_[s]) & mask;
    while (bigger[h] != 0) h = (h + 1) & mask;
    bigger[h] = s + 1;
  }
  ht_.swap(bigger);
}

void Windower::grow_stride(std::size_t dims) {
  // A record wider than any seen before: re-lay the sums arena at the new
  // padded stride.
  const std::size_t new_stride = kern::padded(dims);
  std::vector<double> wider(slot_ids_.size() * new_stride, 0.0);
  for (std::size_t s = 0; s < slot_ids_.size(); ++s) {
    const double* src = sums_.data() + s * stride_;
    double* dst = wider.data() + s * new_stride;
    for (std::size_t i = 0; i < stride_; ++i) dst[i] = src[i];
  }
  sums_.swap(wider);
  stride_ = new_stride;
}

void Windower::accumulate(SensorId sensor, double time, std::span<const double> attrs) {
  const auto dims = static_cast<std::uint32_t>(attrs.size());
  log_.sensors.push_back(sensor);
  log_.times.push_back(time);
  log_.widths.push_back(dims);
  log_.attrs.insert(log_.attrs.end(), attrs.begin(), attrs.end());

  // Whole-window total: every record whose width matches the window's first.
  if (window_dims_ == kDimsUnset) {
    window_dims_ = dims;
    total_.assign(dims, 0.0);
  }
  if (dims == window_dims_) {
    for (std::size_t i = 0; i < dims; ++i) total_[i] += attrs[i];
  } else if (window_conflict_ == kDimsUnset) {
    window_conflict_ = dims;
  }

  // Per-sensor running sum.
  if (static_cast<std::size_t>(dims) > stride_) grow_stride(dims);
  const std::uint32_t slot = slot_for(sensor);
  if (slot_counts_[slot] == 0) {
    touched_.push_back(slot);
    slot_dims_[slot] = dims;
  }
  ++slot_counts_[slot];
  if (dims == slot_dims_[slot]) {
    double* row = sums_.data() + static_cast<std::size_t>(slot) * stride_;
    for (std::size_t i = 0; i < dims; ++i) row[i] += attrs[i];
  } else if (slot_conflict_[slot] == kDimsUnset) {
    slot_conflict_[slot] = dims;
  }
}

void Windower::reset_window_state() {
  for (const std::uint32_t s : touched_) {
    slot_counts_[s] = 0;
    slot_dims_[s] = kDimsUnset;
    slot_conflict_[s] = kDimsUnset;
    double* row = sums_.data() + static_cast<std::size_t>(s) * stride_;
    std::fill(row, row + stride_, 0.0);
  }
  touched_.clear();
  log_.clear();
  window_dims_ = kDimsUnset;
  window_conflict_ = kDimsUnset;
}

void Windower::finalize_into(ObservationSet& out) {
  out.window_index = current_index_;
  out.window_start = window_seconds_ * static_cast<double>(current_index_ - 1);
  out.window_end = window_seconds_ * static_cast<double>(current_index_);
  out.records = log_.size();
  out.cached_mean.clear();
  out.rep_sensors.clear();
  out.rep_sums.clear();
  out.rep_total.clear();
  // rep_points is recycled element-wise below (clear() would free every
  // inner buffer and reintroduce per-window allocations).

  // Ascending sensor order -- the order the legacy std::map iteration gave.
  std::sort(touched_.begin(), touched_.end(),
            [&](std::uint32_t a, std::uint32_t b) { return slot_ids_[a] < slot_ids_[b]; });

  // Legacy throw order: the lowest sensor id whose own samples disagree in
  // width throws first (vecn::mean over that group)...
  for (const std::uint32_t s : touched_) {
    if (slot_conflict_[s] != kDimsUnset) {
      const std::uint32_t have = slot_dims_[s];
      const std::uint32_t got = slot_conflict_[s];
      reset_window_state();
      throw_dims_mismatch(have, got);
    }
  }

  const std::size_t n_sensors = touched_.size();
  if (out.rep_points.size() > n_sensors) out.rep_points.resize(n_sensors);
  out.rep_sensors.reserve(n_sensors);
  out.rep_sums.reserve(n_sensors);
  for (std::size_t j = 0; j < n_sensors; ++j) {
    const std::uint32_t s = touched_[j];
    const double* row = sums_.data() + static_cast<std::size_t>(s) * stride_;
    const std::size_t dims = slot_dims_[s];
    const double inv = 1.0 / static_cast<double>(slot_counts_[s]);
    if (j == out.rep_points.size()) out.rep_points.emplace_back();
    AttrVec& rep = out.rep_points[j];
    rep.resize(dims);
    for (std::size_t i = 0; i < dims; ++i) rep[i] = row[i] * inv;
    out.rep_sensors.push_back(slot_ids_[s]);
    out.rep_sums.push_back(vecn::scalar_sum(rep));
    if (out.rep_total.empty()) out.rep_total.assign(rep.size(), 0.0);
    for (std::size_t a = 0; a < out.rep_total.size() && a < rep.size(); ++a) {
      out.rep_total[a] += rep[a];
    }
  }

  if (!log_.empty()) {
    // ...then a window whose records disagree with its first record's width
    // (vecn::mean_into over raw).
    if (window_conflict_ != kDimsUnset) {
      const std::uint32_t have = window_dims_;
      const std::uint32_t got = window_conflict_;
      reset_window_state();
      throw_dims_mismatch(have, got);
    }
    const double inv = 1.0 / static_cast<double>(log_.size());
    out.cached_mean.resize(window_dims_);
    for (std::size_t i = 0; i < window_dims_; ++i) out.cached_mean[i] = total_[i] * inv;
  }

  reset_window_state();
}

std::vector<ObservationSet> Windower::add(const SensorRecord& rec) {
  std::vector<ObservationSet> completed;
  add(rec, [&completed](ObservationSet&& w) { completed.push_back(std::move(w)); });
  return completed;
}

std::optional<ObservationSet> Windower::flush() {
  if (current_index_ == 0 || log_.empty()) return std::nullopt;
  ObservationSet set;
  finalize_into(set);  // resets to an empty window at the same index
  return set;
}

void Windower::save(serialize::Writer& w) const {
  serialize::tag(w, "windower");
  serialize::put(w, current_index_);
  serialize::put(w, late_records_);
  serialize::put(w, clamped_records_);
  serialize::put(w, log_.size());
  const double* attrs = log_.attrs.data();
  for (std::size_t i = 0; i < log_.size(); ++i) {
    serialize::put(w, log_.sensors[i]);
    serialize::put(w, log_.times[i]);
    const std::size_t width = log_.widths[i];
    serialize::put(w, width);
    for (std::size_t a = 0; a < width; ++a) serialize::put(w, attrs[a]);
    attrs += width;
  }
}

void Windower::load(serialize::Reader& r) {
  serialize::expect(r, "windower");
  current_index_ = serialize::get<std::size_t>(r);
  late_records_ = serialize::get<std::size_t>(r);
  clamped_records_ = serialize::get<std::size_t>(r);
  const auto n = serialize::get<std::size_t>(r);
  if (n > (1u << 26)) throw std::runtime_error("checkpoint: implausible pending-record count");
  // Rebuild the columnar accumulators by replaying the log (the counters
  // above were restored from the stream; replay must not re-count).
  reset_window_state();
  for (std::size_t i = 0; i < n; ++i) {
    const auto sensor = serialize::get<SensorId>(r);
    const auto time = serialize::get<double>(r);
    const AttrVec attrs = serialize::get_vector<double>(r);
    accumulate(sensor, time, attrs);
  }
}

std::vector<ObservationSet> window_trace(std::vector<SensorRecord> records,
                                         double window_seconds) {
  sort_by_time(records);
  Windower w(window_seconds);
  std::vector<ObservationSet> out;
  struct Sink {
    std::vector<ObservationSet>& out;
    void operator()(ObservationSet&& window) const { out.push_back(std::move(window)); }
    void operator()(Windower::EmptyWindows) const {}
  };
  w.add_batch(records, Sink{out});
  if (auto last = w.flush()) out.push_back(std::move(*last));
  return out;
}

}  // namespace sentinel
