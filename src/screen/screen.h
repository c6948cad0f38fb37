// First-tier per-sensor screens that gate the full clustering + HMM path.
//
// At fleet scale most sensors are healthy in most windows, yet the pipeline
// pays the full model-state mapping + alarm-filter + HMM cost for every
// sensor every window -- detection cost is O(sensors) when it should be
// O(suspicious). This tier keeps one cheap statistical monitor per sensor
// and decides, before the expensive per-sensor stages run, whether a sensor
// stays in the "screened" state (one scalar residual push per window) or is
// escalated to the full diagnosis path:
//
//  - a *windowed chi-squared* detector (after the residual-based detectors
//    of arXiv 1710.02573): the squared deviation of the sensor's scalar
//    residual from its learned baseline, summed over the last W windows and
//    normalized by the baseline variance. Healthy sensors concentrate near
//    W; faults and value-steering attacks inflate the statistic.
//  - a *serial-randomness (runs) monitor* (after the randomness-deficiency
//    tests of arXiv 2005.07832): the number of sign runs in the last W
//    residuals. A healthy sensor's residuals flip sign like noise; a
//    stuck-at fault collapses to one run, and a stealthy in-band attack that
//    stays under the chi-squared radar still shows a persistent sign bias
//    or an unnaturally periodic flip pattern. The statistic is integer
//    (popcounts over a sign bitmask) compared against per-np tabulated
//    limits, so it is exactly reproducible everywhere.
//
// Escalation is hysteretic: escalate immediately on either trip (a window
// of evidence is never discarded), de-escalate only after K consecutive
// windows in which the screens are quiet AND the full tier saw nothing
// (no raw alarm, no active track). Unseen sensors start escalated -- the
// full path owns a sensor until its screens have a warm baseline.
//
// Determinism: all reductions go through the util/kernels function table
// (sum_sumsq), whose levels are bit-identical by contract, and the
// per-sensor state machine is a pure function of that sensor's residual
// history -- so escalation decisions are bit-identical at any thread count
// and under any SENTINEL_KERNELS forcing. The incremental ring sums are
// re-reduced through the kernel every time the ring wraps, so floating-
// point drift from the add/subtract updates is bounded by one window.
//
// Thread-safety: a ScreenBank is single-writer, like the pipeline that owns
// it; stats() is safe on a quiescent bank.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "trace/record.h"
#include "trace/sensor_table.h"
#include "util/kernels.h"
#include "util/serialize_fwd.h"
#include "util/vecn.h"

namespace sentinel::screen {

/// How the pipeline uses the screen tier.
///  - kOff: tier disabled; the pipeline is byte-identical to a build that
///    never heard of screening (no screen work, no checkpoint section).
///  - kScreen: screens gate the full path -- screened sensors skip the
///    per-sensor mapping/alarm/HMM stages and vote as a bloc.
enum class ScreenMode { kOff = 0, kScreen = 1 };

const char* to_string(ScreenMode mode);
/// Parse "off" / "screen". Returns false on anything else.
bool parse_screen_mode(const char* text, ScreenMode& out);

struct ScreenConfig {
  ScreenMode mode = ScreenMode::kOff;

  /// W: residual windows per statistic. 4..64 (the sign history is one
  /// 64-bit mask). 16 gives the chi-squared statistic enough mass to
  /// separate faults from noise within a few hours at the paper's 1-hour
  /// windows while keeping the per-sensor state one cache line of ring.
  std::size_t window = 16;

  /// Chi-squared trip when stat > chi2_threshold * W. Healthy sensors have
  /// E[stat] ~= W; 3.0 sits above the 99.9th percentile of chi^2(16)/16
  /// (~2.4) with margin for baseline-estimation error.
  double chi2_threshold = 3.0;

  /// Runs-monitor trip when |z| of the run count exceeds this (z ~ N(0,1)
  /// for healthy sensors). A one-sided sign collapse (all residuals on one
  /// side of the baseline for W windows) trips unconditionally.
  double runs_z_threshold = 3.2;

  /// Residuals observed before the baseline (mu, sigma^2) is frozen from
  /// the opening window and screening can begin. 2..window.
  std::size_t warmup_windows = 8;

  /// K: consecutive windows with quiet screens and a quiet full tier before
  /// an escalated sensor drops back to screened. Escalate fast, de-escalate
  /// slow -- a flapping sensor stays on the full path.
  std::size_t deescalate_after = 24;

  /// EMA gain for the baseline drift tracking (applied only on windows the
  /// screens accept, so an active fault cannot teach the baseline).
  double baseline_alpha = 0.02;

  /// Variance floor: a sensor whose residuals are near-constant (a silent
  /// digital channel) must not divide by ~0.
  double min_variance = 1e-6;
};

/// Per-window decision for one sensor.
struct ScreenDecision {
  bool full_path = false;       // sensor takes the full per-sensor path now
  bool chi2_trip = false;       // windowed chi-squared fired this window
  bool runs_trip = false;       // serial-randomness monitor fired
  bool escalated_edge = false;  // screened -> escalated on this window
};

/// Cumulative tier statistics (single-writer; read when quiescent).
struct ScreenStats {
  std::size_t sensors = 0;            // sensors ever observed
  std::size_t escalated = 0;          // currently escalated
  std::size_t escalations = 0;        // screened -> escalated edges
  std::size_t deescalations = 0;      // escalated -> screened edges
  std::size_t chi2_trips = 0;         // sensor-windows the chi^2 screen fired
  std::size_t runs_trips = 0;         // sensor-windows the runs screen fired
  std::size_t screened_windows = 0;   // sensor-windows that skipped the full path
  std::size_t escalated_windows = 0;  // sensor-windows on the full path
};

class ScreenBank {
 public:
  /// `kernels` defaults to the process-wide dispatch (kern::k()); tests pass
  /// a specific level table to prove cross-level bit-identity in-process.
  explicit ScreenBank(const ScreenConfig& cfg, const kern::Kernels* kernels = nullptr);

  /// Feed one sensor's scalar residual for the current window: pushes it
  /// into the ring, evaluates both screens, and applies the escalate-fast
  /// edge. Sensors never seen before start escalated.
  ScreenDecision observe(SensorId sensor, double residual);

  /// Batched observe: one call per window instead of one per sensor. The
  /// per-sensor update is a serial dependency chain (ring push -> moments ->
  /// trip tests -> baseline EMA), so feeding sensors one call at a time
  /// leaves the core idle between chains; the block loop lets independent
  /// sensors' chains overlap in the out-of-order window. Decisions are
  /// written to `out[i]` for `sensors[i]` and are identical to n calls of
  /// observe() in order.
  void observe_block(const SensorId* sensors, const double* residuals, std::size_t n,
                     ScreenDecision* out);

  /// Close the window for an escalated sensor after the full tier ran:
  /// `full_tier_clean` means no raw alarm and no active track this window.
  /// K consecutive clean windows (screens quiet too) de-escalate. No-op for
  /// screened or unseen sensors.
  void resolve(SensorId sensor, bool full_tier_clean);

  bool is_escalated(SensorId sensor) const;

  ScreenStats stats() const;
  const ScreenConfig& config() const { return cfg_; }

  /// Persist / restore every sensor's ring, baseline, and escalation state
  /// plus the tier totals (the "sentinel-screen-v1" checkpoint section).
  /// load() replaces the bank's state and expects a bank built from the
  /// same ScreenConfig.
  void save(serialize::Writer& w) const;
  void load(serialize::Reader& r);

 private:
  /// One cache line per sensor. The residual ring itself lives in the
  /// bank-level `rings_` arena (rings allocated in first-touch order, so
  /// a fleet iterating sensors in id order walks the arena sequentially) --
  /// a per-entry heap block would cost a dependent pointer chase per sensor
  /// per window on the line-rate path.
  struct Entry {
    double sum = 0.0;             // running sum of ring (kernel-refreshed)
    double sumsq = 0.0;           // running sum of squares (kernel-refreshed)
    double mu = 0.0;              // baseline residual mean
    double var = 1.0;             // baseline residual variance
    std::uint64_t sign_mask = 0;  // bit i: ring[i] >= mu at push time
    std::uint32_t ring_base = 0;  // offset of this sensor's ring in rings_
    std::uint16_t count = 0;      // residuals observed (saturating)
    std::uint16_t clean_windows = 0;  // consecutive clean windows (saturating)
    std::uint8_t head = 0;        // next ring write position (window <= 64)
    // The runs statistic, maintained incrementally: replacing the oldest
    // sign changes the time-ordered run count at exactly two boundaries
    // (the evicted oldest pair, the appended newest pair), so the per-
    // window update is a handful of bit tests instead of a mask rotation
    // plus popcounts. Both are recomputed from sign_mask on every cold
    // step, so drift cannot survive a ring lap.
    std::uint8_t runs = 0;        // time-ordered sign runs in the ring
    std::uint8_t np = 0;          // signs >= baseline in the ring
    bool baseline_ready = false;
    bool escalated = true;        // full path owns unseen sensors
    bool last_trip = false;       // either screen fired on the last window
  };

  /// Per-block tallies kept in registers: the bank's member counters share
  /// a store type with Entry fields, so updating them inside the hot loop
  /// would defeat enregistration (the compiler must assume aliasing).
  struct StepAcc {
    std::size_t chi2_trips = 0;
    std::size_t runs_trips = 0;
    std::size_t escalations = 0;
    std::size_t screened_windows = 0;
    std::size_t escalated_windows = 0;
  };

  /// First sight of a sensor: give it a ring in the arena; it starts
  /// escalated.
  void admit(Entry& e);
  /// The per-sensor update, split hot/cold: step() is call-free (fully
  /// enregisterable inside observe_block's loop); the rare kernel work --
  /// per-lap re-reduce and the one-time baseline freeze -- lives in the
  /// noinline step_cold(). Both finish through eval() (trips, escalation
  /// edge, baseline EMA); commit() folds the register tallies into the
  /// bank's counters once per block.
  ScreenDecision step(Entry& e, double residual, StepAcc& acc);
  ScreenDecision step_cold(Entry& e, double residual, StepAcc& acc);
  ScreenDecision eval(Entry& e, double residual, StepAcc& acc);
  void commit(const StepAcc& acc);
  void recount_runs(Entry& e) const;

  ScreenConfig cfg_;
  const kern::Kernels* kernels_;
  SensorTable<Entry> entries_;
  std::vector<double> rings_;  // ring arena, `window` doubles per entry

  /// Runs-test constants indexed by np (signs above baseline): the expected
  /// run count and the squared-deviation trip limit depend only on np and W,
  /// so the ctor tabulates them and the per-sensor test collapses to
  /// (runs - er[np])^2 > thr[np] -- no division, no branch, no sqrt on the
  /// line-rate path. Sign collapse (np == 0 or W) gets thr = -1 (always
  /// trips); a variance too small for the normal approximation gets
  /// thr = +inf (never trips).
  std::vector<double> runs_er_;
  std::vector<double> runs_thr_;

  std::size_t escalated_now_ = 0;
  std::size_t escalations_ = 0;
  std::size_t deescalations_ = 0;
  std::size_t chi2_trips_ = 0;
  std::size_t runs_trips_ = 0;
  std::size_t screened_windows_ = 0;
  std::size_t escalated_windows_ = 0;
};

/// The scalar residual the screens monitor: sum(p) - sum(mean), both sides
/// through vecn::scalar_sum's fixed accumulation order. Signed, so the runs
/// monitor sees direction; a per-sensor bias against the network mean is
/// absorbed by the baseline mu. Defined as a difference of component sums
/// (not a sum of componentwise differences) so the line-rate path can use a
/// per-sensor sum precomputed at aggregation time (ObservationSet::rep_sums)
/// and get bit-identical residuals without ever touching the full point.
inline double scalar_residual(std::span<const double> p, std::span<const double> mean) {
  return vecn::scalar_sum(p) - vecn::scalar_sum(mean);
}

}  // namespace sentinel::screen
