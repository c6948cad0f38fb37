#include "screen/screen.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "util/serialize.h"

namespace sentinel::screen {

const char* to_string(ScreenMode mode) {
  switch (mode) {
    case ScreenMode::kOff: return "off";
    case ScreenMode::kScreen: return "screen";
  }
  return "off";
}

bool parse_screen_mode(const char* text, ScreenMode& out) {
  if (text == nullptr) return false;
  if (std::strcmp(text, "off") == 0) {
    out = ScreenMode::kOff;
  } else if (std::strcmp(text, "screen") == 0) {
    out = ScreenMode::kScreen;
  } else {
    return false;
  }
  return true;
}

ScreenBank::ScreenBank(const ScreenConfig& cfg, const kern::Kernels* kernels)
    : cfg_(cfg), kernels_(kernels != nullptr ? kernels : &kern::k()) {
  if (cfg_.window < 4 || cfg_.window > 64) {
    throw std::invalid_argument("ScreenBank: window must be in [4, 64]");
  }
  if (cfg_.warmup_windows < 2 || cfg_.warmup_windows > cfg_.window) {
    throw std::invalid_argument("ScreenBank: warmup_windows must be in [2, window]");
  }
  if (cfg_.deescalate_after == 0 || cfg_.deescalate_after > 0xffff) {
    throw std::invalid_argument("ScreenBank: deescalate_after must be in [1, 65535]");
  }
  if (!(cfg_.min_variance > 0.0)) {
    throw std::invalid_argument("ScreenBank: min_variance must be > 0");
  }

  // Tabulate the runs test per possible np. |runs - E[R]| > z * sqrt(Var[R])
  // with E[R] = 1 + 2*np*nn/n and Var[R] = (E[R]-1)(E[R]-2)/(n-1): squared
  // and folded into one threshold per np, so eval() is a table lookup, a
  // subtract, a multiply, and a compare.
  const double wn = static_cast<double>(cfg_.window);
  const double z2 = cfg_.runs_z_threshold * cfg_.runs_z_threshold;
  runs_er_.resize(cfg_.window + 1, 0.0);
  runs_thr_.resize(cfg_.window + 1, 0.0);
  for (std::size_t np = 0; np <= cfg_.window; ++np) {
    const double nn = wn - static_cast<double>(np);
    if (np == 0 || nn == 0.0) {
      // Sign collapse: every residual on one side of the baseline for W
      // windows -- a stuck value or a persistent steering offset.
      runs_er_[np] = 0.0;
      runs_thr_[np] = -1.0;  // (runs - 0)^2 > -1 always
      continue;
    }
    const double er = 1.0 + 2.0 * static_cast<double>(np) * nn / wn;
    const double vr_num = (er - 1.0) * (er - 2.0);  // Var[R] * (n-1)
    runs_er_[np] = er;
    runs_thr_[np] = vr_num > 0.0 ? z2 * vr_num / (wn - 1.0)
                                 : std::numeric_limits<double>::infinity();
  }
}

ScreenBank::Entry& ScreenBank::entry(SensorId sensor) {
  Entry* e;
  if (sensor < kDenseLimit) {
    if (sensor >= dense_.size()) dense_.resize(static_cast<std::size_t>(sensor) + 1);
    e = &dense_[sensor];
  } else {
    e = &sparse_[sensor];
  }
  if (!e->seen) {
    e->seen = true;
    e->ring_base = static_cast<std::uint32_t>(rings_.size());
    rings_.resize(rings_.size() + cfg_.window, 0.0);
    ++sensors_;
    ++escalated_now_;  // unseen sensors start escalated
  }
  return *e;
}

const ScreenBank::Entry* ScreenBank::find_entry(SensorId sensor) const {
  if (sensor < kDenseLimit) {
    if (sensor >= dense_.size() || !dense_[sensor].seen) return nullptr;
    return &dense_[sensor];
  }
  const auto it = sparse_.find(sensor);
  return it == sparse_.end() ? nullptr : &it->second;
}

ScreenDecision ScreenBank::observe(SensorId sensor, double residual) {
  StepAcc acc;
  const ScreenDecision d = step(entry(sensor), residual, acc);
  commit(acc);
  return d;
}

void ScreenBank::observe_block(const SensorId* sensors, const double* residuals,
                               std::size_t n, ScreenDecision* out) {
  StepAcc acc;
  for (std::size_t i = 0; i < n; ++i) {
    // entry() can grow the arena, so the ring pointer inside step() is
    // resolved per sensor, after any allocation.
    out[i] = step(entry(sensors[i]), residuals[i], acc);
  }
  commit(acc);
}

void ScreenBank::commit(const StepAcc& acc) {
  chi2_trips_ += acc.chi2_trips;
  runs_trips_ += acc.runs_trips;
  escalations_ += acc.escalations;
  escalated_now_ += acc.escalations;
  screened_windows_ += acc.screened_windows;
  escalated_windows_ += acc.escalated_windows;
}

ScreenDecision ScreenBank::step(Entry& e, double residual, StepAcc& acc) {
  const std::size_t w = cfg_.window;
  double* const ring = rings_.data() + e.ring_base;

  // Push into the ring with incremental moment updates; the kernel re-reduces
  // both sums exactly once per lap, so incremental rounding never outlives
  // one window.
  const std::uint32_t h = e.head;
  const double evicted = ring[h];
  ring[h] = residual;
  e.sum += residual - evicted;
  e.sumsq += residual * residual - evicted * evicted;

  // Sign and runs bookkeeping, branchless: for a healthy sensor the new
  // sign is a coin flip, so conditional code here would mispredict every
  // other window. Evicting the oldest sign and appending the newest moves
  // the time-ordered run count at exactly two pair boundaries.
  const std::uint32_t hp1 = (h + 1 == w) ? 0 : h + 1;  // oldest after push
  const std::uint32_t hm1 = (h == 0) ? static_cast<std::uint32_t>(w) - 1 : h - 1;
  const std::uint64_t m = e.sign_mask;
  const auto s_old = static_cast<std::uint32_t>((m >> h) & 1);
  const auto s_next = static_cast<std::uint32_t>((m >> hp1) & 1);
  const auto s_prev = static_cast<std::uint32_t>((m >> hm1) & 1);
  const std::uint32_t s_new = residual >= e.mu ? 1u : 0u;
  e.runs = static_cast<std::uint8_t>(e.runs - (s_old ^ s_next) + (s_new ^ s_prev));
  e.np = static_cast<std::uint8_t>(e.np - s_old + s_new);
  e.sign_mask = (m & ~(1ull << h)) | (static_cast<std::uint64_t>(s_new) << h);
  e.head = static_cast<std::uint8_t>(hp1);
  e.count += (e.count < 0xffffu) ? 1 : 0;

  // The kernel invocations (per-lap re-reduce, baseline freeze) are
  // quarantined in the noinline cold path: a potential call inside the
  // block loop would force every cached Entry field and accumulator back
  // to memory on each sensor, roughly doubling the line-rate cost. The
  // cold path also recounts runs/np from the mask, so incremental drift
  // (there is none -- the updates are exact -- but belt and braces)
  // cannot outlive a lap.
  if (e.head == 0 || !e.baseline_ready) [[unlikely]] {
    return step_cold(e, residual, acc);
  }
  return eval(e, residual, acc);
}

__attribute__((noinline)) ScreenDecision ScreenBank::step_cold(Entry& e, double residual,
                                                               StepAcc& acc) {
  const std::size_t w = cfg_.window;
  double* const ring = rings_.data() + e.ring_base;
  if (e.head == 0) kernels_->sum_sumsq(ring, w, &e.sum, &e.sumsq);

  // Freeze the baseline from the opening residuals, then re-sign the ring
  // against it so the runs window does not inherit the mu = 0 bootstrap.
  if (!e.baseline_ready && e.count >= cfg_.warmup_windows) {
    double s = 0.0;
    double q = 0.0;
    kernels_->sum_sumsq(ring, cfg_.warmup_windows, &s, &q);
    const double n = static_cast<double>(cfg_.warmup_windows);
    e.mu = s / n;
    e.var = std::max(q / n - e.mu * e.mu, cfg_.min_variance);
    e.baseline_ready = true;
    std::uint64_t mask = 0;
    for (std::size_t i = 0; i < cfg_.warmup_windows; ++i) {
      if (ring[i] >= e.mu) mask |= 1ull << i;
    }
    e.sign_mask = mask;
  }
  recount_runs(e);
  return eval(e, residual, acc);
}

/// Exact runs/np from the sign mask (rotate so bit 0 is the oldest sign,
/// then count sign-change boundaries). Cold-path only; the hot path keeps
/// both counters incrementally and lands on the same values.
void ScreenBank::recount_runs(Entry& e) const {
  const std::size_t w = cfg_.window;
  const std::uint64_t full = (w == 64) ? ~0ull : ((1ull << w) - 1);
  const std::uint64_t rot =
      e.head == 0
          ? (e.sign_mask & full)
          : (((e.sign_mask >> e.head) | (e.sign_mask << (w - e.head))) & full);
  e.np = static_cast<std::uint8_t>(std::popcount(rot));
  e.runs = static_cast<std::uint8_t>(std::popcount((rot ^ (rot >> 1)) & (full >> 1)) + 1);
}

inline ScreenDecision ScreenBank::eval(Entry& e, double residual, StepAcc& acc) {
  const std::size_t w = cfg_.window;
  ScreenDecision d;
  bool trip = false;
  if (e.baseline_ready && e.count >= w) {
    // Windowed chi-squared: sum over the ring of (r - mu)^2 / var, expanded
    // through the ring's running moments (sum, sumsq are kernel-identical
    // across levels, so the statistic is too). Division-free: the test
    // centered/var > thr*W is evaluated as centered > thr*W*var -- this is
    // the per-sensor line-rate hot path, every flop counts.
    const double wn = static_cast<double>(w);
    const double centered = e.sumsq - 2.0 * e.mu * e.sum + wn * e.mu * e.mu;
    d.chi2_trip = centered > cfg_.chi2_threshold * wn * e.var;

    // Runs monitor over the sign sequence in time order: the run and sign
    // counts are maintained incrementally by step() (recounted from the
    // mask on every cold step), and the per-np constants come from the
    // ctor's tables -- branchless, division-free, sqrt-free.
    const double dev = static_cast<double>(e.runs) - runs_er_[e.np];
    d.runs_trip = dev * dev > runs_thr_[e.np];
    trip = d.chi2_trip | d.runs_trip;
    acc.chi2_trips += d.chi2_trip ? 1 : 0;
    acc.runs_trips += d.runs_trip ? 1 : 0;
  }
  e.last_trip = trip;

  if (trip && !e.escalated) {
    e.escalated = true;
    e.clean_windows = 0;
    d.escalated_edge = true;
    ++acc.escalations;
  }

  // The baseline tracks environment drift only through windows the screens
  // accept, so an active fault cannot teach it.
  if (!trip && e.baseline_ready) {
    e.mu += cfg_.baseline_alpha * (residual - e.mu);
    const double dev = residual - e.mu;
    e.var = std::max((1.0 - cfg_.baseline_alpha) * e.var + cfg_.baseline_alpha * dev * dev,
                     cfg_.min_variance);
  }

  d.full_path = e.escalated;
  acc.escalated_windows += e.escalated ? 1 : 0;
  acc.screened_windows += e.escalated ? 0 : 1;
  return d;
}

void ScreenBank::resolve(SensorId sensor, bool full_tier_clean) {
  Entry* e = nullptr;
  if (sensor < kDenseLimit) {
    if (sensor < dense_.size() && dense_[sensor].seen) e = &dense_[sensor];
  } else {
    const auto it = sparse_.find(sensor);
    if (it != sparse_.end()) e = &it->second;
  }
  if (e == nullptr || !e->escalated) return;
  if (full_tier_clean && !e->last_trip && e->count >= cfg_.window) {
    if (++e->clean_windows >= cfg_.deescalate_after) {
      e->escalated = false;
      e->clean_windows = 0;
      ++deescalations_;
      --escalated_now_;
    }
  } else {
    e->clean_windows = 0;
  }
}

bool ScreenBank::is_escalated(SensorId sensor) const {
  const Entry* e = find_entry(sensor);
  return e == nullptr ? true : e->escalated;
}

ScreenStats ScreenBank::stats() const {
  ScreenStats s;
  s.sensors = sensors_;
  s.escalated = escalated_now_;
  s.escalations = escalations_;
  s.deescalations = deescalations_;
  s.chi2_trips = chi2_trips_;
  s.runs_trips = runs_trips_;
  s.screened_windows = screened_windows_;
  s.escalated_windows = escalated_windows_;
  return s;
}

void ScreenBank::save_entry(serialize::Writer& w, SensorId id, const Entry& e) const {
  serialize::put(w, id);
  // Fixed-width fields (the in-memory Entry packs these narrower).
  serialize::put(w, static_cast<std::uint32_t>(e.count));
  serialize::put(w, static_cast<std::uint32_t>(e.head));
  serialize::put(w, e.sign_mask);
  for (std::size_t i = 0; i < cfg_.window; ++i) serialize::put(w, rings_[e.ring_base + i]);
  serialize::put(w, e.sum);
  serialize::put(w, e.sumsq);
  serialize::put(w, e.mu);
  serialize::put(w, e.var);
  serialize::put(w, e.baseline_ready);
  serialize::put(w, e.escalated);
  serialize::put(w, e.last_trip);
  serialize::put(w, static_cast<std::uint32_t>(e.clean_windows));
}

void ScreenBank::save(serialize::Writer& w) const {
  serialize::put(w, sensors_);
  // Dense ids precede sparse ids numerically, so this emits ascending order.
  for (SensorId id = 0; id < dense_.size(); ++id) {
    if (dense_[id].seen) save_entry(w, id, dense_[id]);
  }
  for (const auto& [id, e] : sparse_) save_entry(w, id, e);
  serialize::put(w, escalations_);
  serialize::put(w, deescalations_);
  serialize::put(w, chi2_trips_);
  serialize::put(w, runs_trips_);
  serialize::put(w, screened_windows_);
  serialize::put(w, escalated_windows_);
}

void ScreenBank::load(serialize::Reader& r) {
  dense_.clear();
  sparse_.clear();
  rings_.clear();
  sensors_ = 0;
  escalated_now_ = 0;
  const auto n = serialize::get<std::size_t>(r);
  for (std::size_t i = 0; i < n; ++i) {
    const auto id = serialize::get<SensorId>(r);
    Entry& e = entry(id);
    const auto count = serialize::get<std::uint32_t>(r);
    const auto head = serialize::get<std::uint32_t>(r);
    if (head >= cfg_.window) {
      throw std::runtime_error("screen checkpoint: ring head out of range (window mismatch?)");
    }
    e.count = static_cast<std::uint16_t>(std::min<std::uint32_t>(count, 0xffffu));
    e.head = static_cast<std::uint8_t>(head);
    e.sign_mask = serialize::get<std::uint64_t>(r);
    for (std::size_t j = 0; j < cfg_.window; ++j) {
      rings_[e.ring_base + j] = serialize::get<double>(r);
    }
    e.sum = serialize::get<double>(r);
    e.sumsq = serialize::get<double>(r);
    e.mu = serialize::get<double>(r);
    e.var = serialize::get<double>(r);
    e.baseline_ready = serialize::get_bool(r);
    const bool escalated = serialize::get_bool(r);
    if (!escalated) --escalated_now_;  // entry() counted it escalated
    e.escalated = escalated;
    e.last_trip = serialize::get_bool(r);
    e.clean_windows =
        static_cast<std::uint16_t>(std::min<std::uint32_t>(
            serialize::get<std::uint32_t>(r), 0xffffu));
    // runs/np are derived state, not serialized: recount from the mask.
    recount_runs(e);
  }
  escalations_ = serialize::get<std::size_t>(r);
  deescalations_ = serialize::get<std::size_t>(r);
  chi2_trips_ = serialize::get<std::size_t>(r);
  runs_trips_ = serialize::get<std::size_t>(r);
  screened_windows_ = serialize::get<std::size_t>(r);
  escalated_windows_ = serialize::get<std::size_t>(r);
}

}  // namespace sentinel::screen
