// Shared experiment harness for the reproduction benches: builds the
// GDI-like deployment (DESIGN.md substitution #1), wires an injection plan,
// runs the detection pipeline over the delivered trace, and prints matrices
// in the paper's "(temperature,humidity)"-labelled table style.

#pragma once

#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "faults/injection_plan.h"
#include "sim/simulator.h"

namespace sentinel::bench {

struct ScenarioConfig {
  double duration_days = 31.0;  // the paper analyzes one month
  std::size_t num_sensors = 10;
  std::uint64_t seed = 42;
  double packet_loss = 0.12;
  double malform_prob = 0.01;
  double noise_sigma = 0.4;
  std::size_t initial_states = 6;  // paper Table 1: M = 6
  core::FilterKind filter = core::FilterKind::kKofN;
  // Table 1 knobs, exposed for the ablation benches.
  std::size_t window_samples = 12;  // w, in 5-minute samples
  double alpha = 0.10;
  double beta = 0.90;
  double gamma = 0.90;
  // First-tier screen configuration (default off: the historical path).
  // screen_roc sweeps the thresholds to trace the tier's ROC against the
  // HMM pipeline on the same injected traces.
  screen::ScreenConfig screen;
};

struct ScenarioResult {
  std::unique_ptr<core::DetectionPipeline> pipeline;  // already fed the trace
  sim::SimulationResult sim;
  core::PipelineConfig pipeline_config;
  std::vector<core::WindowSummary> windows;  // every processed window, in order
};

/// Feed `trace` to `p` in process_trace's own steps -- a copy sorted with
/// sort_by_time, add_record on each record, then finish() -- and return a
/// copy of last_window() for every window that processes, in order. A record
/// closes at most one window, so checking windows_processed() after each
/// call sees them all.
std::vector<core::WindowSummary> collect_windows(core::DetectionPipeline& p,
                                                 const std::vector<SensorRecord>& trace);

/// Initial model states via offline k-means on the environment's own
/// history (paper section 4.1: "an off-line clustering algorithm on the
/// entire data").
std::vector<AttrVec> initial_states_from_env(const sim::Environment& env,
                                             double duration_seconds, std::size_t k,
                                             std::uint64_t seed);

/// Pipeline configuration for a scenario (Table 1 parameters + DESIGN.md
/// clustering thresholds).
core::PipelineConfig make_pipeline_config(const sim::Environment& env,
                                          const ScenarioConfig& cfg);

/// Simulate the deployment with `inject` populating the fault/attack plan
/// (may be null for a clean run), then run the pipeline over the trace
/// through collect_windows.
using InjectFn = std::function<void(faults::InjectionPlan&, const sim::Environment&)>;
ScenarioResult run_scenario(const sim::GdiEnvironmentConfig& env_cfg, const ScenarioConfig& cfg,
                            const InjectFn& inject);

/// Canonical injection scenarios used by the accuracy / ablation benches:
/// every error and attack type of section 3.3 plus clean and benign controls.
enum class InjectionKind {
  kClean,
  kStuckAt,
  kCalibration,
  kAdditive,
  kRandomNoise,
  kCreation,
  kDeletion,
  kChange,
  kMixed,
  kBenign,
};

const char* to_string(InjectionKind kind);

/// All kinds, in enum order.
std::vector<InjectionKind> all_injection_kinds();

/// Build the injector for a kind. Error kinds afflict sensor 6; attack
/// coalitions are sensors {7,8,9} (fraction 0.3) except Change, which uses
/// {6,7,8,9} (fraction 0.4) so the shifted observable state stays inside the
/// attributes' admissible ranges. Injection starts at `start_time`.
InjectFn make_injection(InjectionKind kind, std::uint64_t seed,
                        double start_time = 2.0 * kSecondsPerDay);

/// Ground truth the classifier should produce for a kind.
core::Verdict expected_verdict(InjectionKind kind);
core::AnomalyKind expected_kind(InjectionKind kind);

/// Score one diagnosis report against the injected ground truth: exact if
/// both verdict and kind match, detected if the verdict matches.
struct ScenarioScore {
  bool detected = false;   // verdict matches ground truth
  bool exact = false;      // kind also matches
  core::Verdict verdict = core::Verdict::kNormal;
  core::AnomalyKind kind = core::AnomalyKind::kNone;
};
ScenarioScore score_report(const core::DiagnosisReport& report, InjectionKind injected);

/// A hand-built window `index` of `window_seconds`, filled as the windower
/// closes a window that holds one record per sensor: `points[j]` is sensor
/// `sensors[j]`'s representative (ids ascending), and rep_sums, rep_total,
/// cached_mean and records follow from them. The vectors are moved in, so
/// the points keep the heap placement the caller gave them.
ObservationSet make_window(std::size_t index, double window_seconds,
                           std::vector<SensorId> sensors, std::vector<AttrVec> points);

/// "(24,70)"-style label for a model state (the paper's table headers).
std::string state_label(hmm::StateId id, const core::CentroidLookup& lookup);

/// Print an emission matrix with labelled rows/columns, paper-table style.
void print_emission(std::ostream& os, const hmm::OnlineHmm& m,
                    const core::CentroidLookup& lookup, const std::string& title);

/// Print a filtered emission matrix (post spurious-state removal).
void print_filtered(std::ostream& os, const core::FilteredEmission& f,
                    const core::CentroidLookup& lookup, const std::string& title);

/// Print a Markov chain with labelled states (Fig. 7 style).
void print_chain(std::ostream& os, const hmm::MarkovChain& chain,
                 const core::CentroidLookup& lookup, const std::string& title);

}  // namespace sentinel::bench
