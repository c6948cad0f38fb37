// Pipeline configuration, mirroring the paper's Table 1 plus the tuning
// knobs sections 3.1 and 3.4 describe in prose (clustering merge/spawn
// thresholds, alarm-filter choice, classifier orthogonality thresholds).

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "screen/screen.h"
#include "trace/record.h"

namespace sentinel::core {

enum class FilterKind {
  kKofN,   // simple k-of-n rule (paper's default suggestion)
  kSprt,   // Wald sequential probability ratio test
  kCusum,  // Page's cumulative sum
};

struct ModelStateConfig {
  /// Learning factor for the centroid EMA update, eq. (6). Paper: 0.10.
  double alpha = 0.10;
  /// Merge two model states closer than this ("merging two states that are
  /// too close to each other into a single state", section 3.1). Sized so
  /// the surviving states are spaced comfortably wider than the observable
  /// bias a single faulty sensor can induce on the network mean (~attribute
  /// range / K).
  double merge_threshold = 6.0;
  /// Spawn a new state when an observation is farther than this from its
  /// nearest state ("creating a new state s_{M+1} = p_j").
  double spawn_threshold = 9.0;
  /// Hard cap so pathological data cannot blow up the state set.
  std::size_t max_states = 16;
};

struct ClassifierConfig {
  /// Orthogonality thresholds. diag_min bounds the raw self-product
  /// sum_k b_ik^2 (row concentration; the paper's "> 0.8 for i = j").
  /// Cross products are evaluated as *cosine similarity* (normalized by the
  /// vector norms): genuine structural sharing -- a Deletion collapsing two
  /// rows onto one symbol, a Creation splitting one row over two symbols --
  /// yields near-proportional vectors (cosine ~1), while the boundary
  /// leakage that windowed clustering inevitably produces stays small.
  double diag_min = 0.8;
  double offdiag_max = 0.35;
  /// Stuck-at: minimum emission mass a row must put on the shared column.
  double stuck_min = 0.6;
  /// Stuck-at: at least this many distinct hidden states must share the
  /// column (one pair alone cannot witness "independent of the correct
  /// state").
  std::size_t stuck_min_states = 2;
  /// Calibration/Additive: a correct-state row takes part in the
  /// (correct, error) pairing when its dominant error symbol carries at
  /// least pair_min of the row's mass (the paper pairs states the same way
  /// -- its Table 5 rows are only ~0.5-0.9 dominant); at least min_pairs
  /// such rows with *distinct* dominants are needed for the constant
  /// ratio/difference test.
  double pair_min = 0.6;
  std::size_t min_pairs = 2;
  /// Dynamic Change: attribute distance beyond which a correct state and its
  /// observable image count as "different attributes".
  double change_attr_tol = 4.0;
  /// Hidden states/symbols with occupancy below this fraction are ignored
  /// during structural analysis (the paper's spurious states).
  double min_occupancy = 0.02;
  /// Emission-matrix filtering: rows keeping less than this mass after the
  /// bottom symbol is removed carry no error information and are dropped;
  /// columns with less total mass than this are treated as spurious symbols.
  double min_row_mass = 0.15;
  double min_symbol_mass = 0.20;
  /// Calibration vs additive: a one-parameter fit (x_e = g*x_c or
  /// x_e = x_c + k) is accepted when its per-attribute residual variance
  /// stays below max(diff_var_max, (rel_fit_tol * span(x_c))^2) -- an
  /// absolute floor for near-constant attributes plus a scale-relative bound
  /// so the test works for 20-unit temperatures and 300-unit latencies
  /// alike. When both models fit, the smaller total residual wins.
  double diff_var_max = 2.0;
  double rel_fit_tol = 0.15;
  /// A sensor's track must have seen at least this many anomalous windows
  /// before its B^CE is considered diagnosable.
  std::size_t min_track_anomalies = 3;
  /// Attack verdicts from B^CO require a *coordinated coalition*: at least
  /// this many implicated sensors whose error tracks share the same dominant
  /// error state (coalition members inject the same steering value, so their
  /// tracks coincide; independently faulty sensors do not). A single sensor
  /// can steer the network mean by at most (attribute range) / K -- the bias
  /// regime of an accidental error -- and the paper's attack experiments
  /// compromise one-third of the network. Coalition-free distortions of
  /// B^CO are classified through B^CE instead.
  std::size_t min_implicated_sensors = 2;
};

struct AlarmFilterConfig {
  FilterKind kind = FilterKind::kKofN;
  // k-of-n parameters.
  std::size_t k = 3;
  std::size_t n = 5;
  // SPRT / CUSUM parameters.
  double p0 = 0.05;
  double p1 = 0.60;
  double sprt_alpha = 0.01;
  double sprt_beta = 0.01;
  double cusum_threshold = 4.0;
};

struct PipelineConfig {
  /// Observation window w. The paper uses 12 samples x 5 minutes = 1 hour.
  double window_seconds = 12.0 * 5.0 * kSecondsPerMinute;
  /// Initial model states S_o ("selected randomly or based on historical
  /// data"; the paper runs an offline clustering for the initial 6 states).
  std::vector<AttrVec> initial_states;
  /// HMM learning factors (paper Table 1: beta = gamma = 0.90).
  double beta = 0.90;
  double gamma = 0.90;

  ModelStateConfig model_states;
  AlarmFilterConfig alarm_filter;
  ClassifierConfig classifier;

  /// Windows with fewer surviving sensors than this are skipped (cannot form
  /// a meaningful majority).
  std::size_t min_sensors_per_window = 3;

  /// First-tier screening (screen/screen.h). The default mode (off) runs
  /// the same procedure with every sensor escalated, no screen state and no
  /// screen checkpoint section -- reports and checkpoint bytes are identical
  /// to a build without the tier. kScreen gates the per-sensor
  /// mapping/alarm/HMM stages behind the cheap screens.
  screen::ScreenConfig screen;

  /// Record coarse per-stage wall-clock histograms (spawn scan, state
  /// identification, alarm filtering, HMM updates, centroid update) into the
  /// process-global metrics registry. Off by default: with the toggle off the
  /// pipeline takes no clock reads at all, so the hot path is untouched.
  /// Purely observational -- reports and checkpoints are byte-identical
  /// either way.
  bool stage_timers = false;
};

}  // namespace sentinel::core
