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
// The window is summed once, at close, by one pass over its arrival-order
// log, and that pass reproduces each accumulation order exactly:
//  * A slot's sum row receives that sensor's samples in arrival order,
//    element-wise from +0.0 -- the same add sequence vecn::mean performs on
//    the grouped samples (grouping preserves arrival order per sensor). The
//    representative is sums[i] * (1.0/count), the same single rounding
//    vecn::mean's `x *= inv` applies to the same sum.
//  * The whole-window total receives every record in arrival order,
//    element-wise -- vecn::mean_into's order over `raw` -- and cached_mean
//    is total[i] * (1.0/count), matching its `*= inv`. For widths up to 4 the
//    total is held in locals; the adds are the same.
//  * Reps are emitted in ascending sensor order (the touched slots, picked
//    out of every slot in id order), the order std::map iteration gave the
//    legacy loop; rep_sums / rep_total are computed from the finished reps
//    with the identical helper and truncation guard.
//
// Which window a record belongs to is window_index's answer on both paths:
// the open window's bounds are the smallest times window_index itself puts
// in that window and in the next, so a record inside them is one that
// window_index puts in the open window, unclamped.
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
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>

#include "util/kernels.h"
#include "util/serialize.h"

namespace sentinel {

namespace {

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

namespace {

/// The smallest time that window_index puts in window `index` or a later one
/// (index >= 2), found by stepping from (index - 1) * w one ulp at a time;
/// NaN when the product overflows or the search does not settle in a few
/// steps. Division and floor are monotone, so every larger time is in
/// `index` or later too.
double first_time_in(std::size_t index, double window_seconds) {
  constexpr int kSteps = 8;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto reaches = [&](double t) { return window_index(t, window_seconds).index >= index; };
  double t = static_cast<double>(index - 1) * window_seconds;
  for (int step = 0; step < kSteps && std::isfinite(t); ++step) {
    if (!reaches(t)) {
      t = std::nextafter(t, kInf);
    } else if (const double below = std::nextafter(t, -kInf); reaches(below)) {
      t = below;
    } else {
      return t;
    }
  }
  return std::numeric_limits<double>::quiet_NaN();
}

}  // namespace

void sort_by_time(std::vector<SensorRecord>& records) {
  // `a.time < b.time` alone is not a strict weak order once a NaN is present.
  std::stable_sort(records.begin(), records.end(),
                   [](const SensorRecord& a, const SensorRecord& b) {
                     return (std::isnan(a.time) && !std::isnan(b.time)) || a.time < b.time;
                   });
}

Windower::Windower(double window_seconds) : window_seconds_(window_seconds) {
  if (!(window_seconds_ > 0.0)) throw std::invalid_argument("Windower: window must be positive");
}

void Windower::add_slot(SensorId id) {
  slots_.push_back({.id = id});
  sums_.resize(sums_.size() + stride_, 0.0);
}

void Windower::grow_stride(std::size_t dims) {
  // A record wider than any seen before: re-lay the sums arena at the new
  // padded stride.
  const std::size_t new_stride = kern::padded(dims);
  std::vector<double> wider(slots_.size() * new_stride, 0.0);
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    const double* src = sums_.data() + s * stride_;
    double* dst = wider.data() + s * new_stride;
    for (std::size_t i = 0; i < stride_; ++i) dst[i] = src[i];
  }
  sums_.swap(wider);
  stride_ = new_stride;
}

void Windower::open_window(std::size_t index) {
  current_index_ = index;
  lo_ = hi_ = 0.0;
  // Past 2^52 consecutive indices no longer map to distinct doubles.
  if (index == 0 || index > (std::size_t{1} << 52)) return;
  // Window 1 also holds tiny negative times whose quotient rounds to -0.0;
  // they take window_index.
  const double lo = index == 1 ? 0.0 : first_time_in(index, window_seconds_);
  const double hi = first_time_in(index + 1, window_seconds_);
  if (lo < hi) {  // false when either search failed (NaN)
    lo_ = lo;
    hi_ = hi;
  }
}

void Windower::log_run(const RecordBatch& batch, std::size_t first, std::size_t last,
                       const double* attrs, const double* attrs_end) {
  log_.sensors.insert(log_.sensors.end(), batch.sensors.begin() + first,
                      batch.sensors.begin() + last);
  log_.times.insert(log_.times.end(), batch.times.begin() + first, batch.times.begin() + last);
  log_.widths.insert(log_.widths.end(), batch.widths.begin() + first,
                     batch.widths.begin() + last);
  log_.attrs.insert(log_.attrs.end(), attrs, attrs_end);
}

void Windower::reset_window_state() {
  for (const std::uint32_t s : touched_) {
    slots_[s].count = 0;
    slots_[s].dims = kDimsUnset;
    slots_[s].conflict = kDimsUnset;
    double* row = sums_.data() + static_cast<std::size_t>(s) * stride_;
    std::fill(row, row + stride_, 0.0);
  }
  touched_.clear();
  log_.clear();
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

  // One pass over the log in arrival order. A record whose width matches the
  // window's first record's is added into the window total: in locals for
  // widths up to 4 (faster than adds through memory), else in cached_mean.
  const std::uint32_t window_dims = log_.empty() ? 0 : log_.widths[0];
  std::uint32_t window_conflict = kDimsUnset;
  double t0 = 0.0, t1 = 0.0, t2 = 0.0, t3 = 0.0;
  if (window_dims > 4) out.cached_mean.assign(window_dims, 0.0);
  const double* x = log_.attrs.data();
  for (std::size_t r = 0; r < log_.size(); x += log_.widths[r++]) {
    const std::uint32_t dims = log_.widths[r];
    if (dims != window_dims) {
      if (window_conflict == kDimsUnset) window_conflict = dims;
    } else {
      switch (dims) {
        case 0: break;
        case 1: t0 += x[0]; break;
        case 2: t0 += x[0]; t1 += x[1]; break;
        case 3: t0 += x[0]; t1 += x[1]; t2 += x[2]; break;
        case 4: t0 += x[0]; t1 += x[1]; t2 += x[2]; t3 += x[3]; break;
        default:
          for (std::size_t i = 0; i < dims; ++i) out.cached_mean[i] += x[i];
      }
    }

    if (dims > stride_) grow_stride(dims);
    const SensorId id = log_.sensors[r];
    const auto [s, created] = slot_of_.emplace(id, static_cast<std::uint32_t>(slots_.size()));
    if (created) add_slot(id);
    Slot& slot = slots_[s];
    if (slot.count++ == 0) slot.dims = dims;
    if (dims == slot.dims) {
      double* row = sums_.data() + static_cast<std::size_t>(s) * stride_;
      for (std::size_t i = 0; i < dims; ++i) row[i] += x[i];
    } else if (slot.conflict == kDimsUnset) {
      slot.conflict = dims;
    }
  }

  // Ascending sensor order -- the order the legacy std::map iteration gave:
  // the touched slots, picked out of every slot in id order.
  if (by_id_.size() != slots_.size()) {
    by_id_.resize(slots_.size());
    std::iota(by_id_.begin(), by_id_.end(), 0u);
    std::sort(by_id_.begin(), by_id_.end(),
              [&](std::uint32_t a, std::uint32_t b) { return slots_[a].id < slots_[b].id; });
  }
  for (const std::uint32_t s : by_id_) {
    if (slots_[s].count != 0) touched_.push_back(s);
  }

  // Legacy throw order: the lowest sensor id whose own samples disagree in
  // width throws first (vecn::mean over that group), then a window whose
  // records disagree with its first record's width (vecn::mean_into over
  // raw).
  for (const std::uint32_t s : touched_) {
    if (slots_[s].conflict != kDimsUnset) {
      const std::uint32_t have = slots_[s].dims;
      const std::uint32_t got = slots_[s].conflict;
      reset_window_state();
      throw_dims_mismatch(have, got);
    }
  }
  if (window_conflict != kDimsUnset) {
    reset_window_state();
    throw_dims_mismatch(window_dims, window_conflict);
  }

  const std::size_t n_sensors = touched_.size();
  if (out.rep_points.size() > n_sensors) out.rep_points.resize(n_sensors);
  out.rep_sensors.reserve(n_sensors);
  out.rep_sums.reserve(n_sensors);
  for (std::size_t j = 0; j < n_sensors; ++j) {
    const std::uint32_t s = touched_[j];
    const double* row = sums_.data() + static_cast<std::size_t>(s) * stride_;
    const std::size_t dims = slots_[s].dims;
    const double inv = 1.0 / static_cast<double>(slots_[s].count);
    if (j == out.rep_points.size()) out.rep_points.emplace_back();
    AttrVec& rep = out.rep_points[j];
    rep.resize(dims);
    for (std::size_t i = 0; i < dims; ++i) rep[i] = row[i] * inv;
    out.rep_sensors.push_back(slots_[s].id);
    out.rep_sums.push_back(vecn::scalar_sum(rep));
    if (out.rep_total.empty()) out.rep_total.assign(rep.size(), 0.0);
    for (std::size_t a = 0; a < out.rep_total.size() && a < rep.size(); ++a) {
      out.rep_total[a] += rep[a];
    }
  }

  if (!log_.empty()) {
    const double inv = 1.0 / static_cast<double>(log_.size());
    if (window_dims <= 4) {
      const double head[4] = {t0, t1, t2, t3};
      out.cached_mean.assign(head, head + window_dims);
    }
    for (double& m : out.cached_mean) m *= inv;
  }

  reset_window_state();
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
  const auto index = serialize::get<std::size_t>(r);
  late_records_ = serialize::get<std::size_t>(r);
  clamped_records_ = serialize::get<std::size_t>(r);
  const auto n = serialize::get<std::size_t>(r);
  if (n > (1u << 26)) throw std::runtime_error("checkpoint: implausible pending-record count");
  reset_window_state();
  open_window(index);
  for (std::size_t i = 0; i < n; ++i) {
    const SensorRecord rec{.sensor = serialize::get<SensorId>(r),
                           .time = serialize::get<double>(r),
                           .attrs = serialize::get_vector<double>(r)};
    log_.append({&rec, 1});
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
