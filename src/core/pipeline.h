// The collector-node detection pipeline (paper section 3, Fig. 1).
//
// Per observation window the pipeline:
//  1. lets the Model State Identification module spawn states for
//     observations no existing state represents,
//  2. identifies the observable state o_i (eq. 2), the per-sensor mappings
//     l_j (eq. 3), and the correct state c_i (eq. 4, majority cluster),
//  3. raises raw alarms a^j where l_j != c_i, filters them into b^j, and
//     opens/closes per-sensor error/attack tracks on filtered edges,
//  4. feeds (c_i, o_i) to the network HMM M_CO and (c_i, e_i) to each active
//     track's HMM M_CE,
//  5. appends c_i / o_i to the Markov models M_C and M_O, and
//  6. EMA-updates the model-state centroids (eqs. 5-6) with merge/spawn --
//     reusing the eq. (3) labels from step 2, so each representative is
//     distance-mapped once per window, not twice.
//
// diagnose() then performs the section 3.4 structural analysis and returns
// the combined network + per-sensor report.
//
// The per-window hot path is allocation-free in steady state: all working
// buffers (spawn slots, labels, cluster counters, escalated copies) live in
// reusable scratch owned by the pipeline, and the only remaining
// steady-state allocation is the history append (see
// PipelineConfig::record_history and docs/PERFORMANCE.md).
//
// Thread-safety: a pipeline is single-writer -- add_record / process_window /
// finish must not run concurrently with anything else on the same instance.
// Every const member is safe to call from any number of threads on a
// quiescent pipeline: the model accessors and history/stats are pure reads,
// and the diagnosis-side lazy caches (significant states, coalition, the
// network diagnosis, the HMMs' averaged matrices) are mutex-guarded. They
// cache pure functions of the learned state, so results are identical to
// recomputation. core/fleet.h relies on this to run per-region diagnosis
// jobs in parallel; see docs/CONCURRENCY.md and docs/PERFORMANCE.md.

#pragma once

#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <vector>

#include "core/alarms.h"
#include "core/classifier.h"
#include "core/config.h"
#include "core/model_states.h"
#include "core/report.h"
#include "core/state_ident.h"
#include "core/tracks.h"
#include "hmm/markov_chain.h"
#include "hmm/online_hmm.h"
#include "screen/screen.h"
#include "trace/windower.h"
#include "util/arena.h"
#include "util/flat_map.h"
#include "util/serialize_fwd.h"
#include "util/sync.h"

namespace sentinel::util {
class Histogram;
}  // namespace sentinel::util

namespace sentinel::core {

/// Pipeline activity counters, maintained inline on the single-writer hot
/// path (plain integers -- no atomics needed) and read via counters() once
/// the pipeline is quiescent. Observational only: exporters fold them into a
/// util::MetricsSnapshot with a per-region prefix; nothing here feeds back
/// into detection.
struct PipelineCounters {
  std::size_t windows_processed = 0;
  std::size_t windows_skipped = 0;
  std::size_t state_spawns = 0;
  std::size_t state_merges = 0;
  std::size_t raw_alarms = 0;        // per-sensor raw alarm windows (a^j set)
  std::size_t filtered_alarms = 0;   // per-sensor filtered alarm windows (b^j set)
  std::size_t track_opens = 0;
  std::size_t track_closes = 0;
  std::size_t hmm_updates = 0;       // M_CO + per-track M_CE observe() calls
  std::size_t late_records = 0;      // dropped: older than an emitted window
  std::size_t clamped_records = 0;   // degenerate timestamps clamped (windower)
};

/// Per-window, per-sensor alarm record (Fig. 12's raw-alarm series).
struct SensorWindowInfo {
  StateId mapped = 0;  // l_j
  bool raw_alarm = false;
  bool filtered_alarm = false;
};

struct WindowSummary {
  std::size_t window_index = 0;
  double window_start = 0.0;
  StateId observable = 0;  // o_i
  StateId correct = 0;     // c_i
  std::size_t majority_size = 0;
  /// Per-sensor records in ascending sensor order. A sorted view into the
  /// pipeline's history arena: retaining a window allocates nothing at
  /// steady state (the arena grows one slab per ~4096 rows). Valid for the
  /// owning pipeline's lifetime.
  util::FlatMapView<SensorId, SensorWindowInfo> sensors;
};

/// What save_checkpoint persists.
///  - kModel: the learned models only ("sentinel-checkpoint-v1", the format
///    every existing checkpoint uses -- bytes are golden-pinned). Restored
///    alarm filters start cold and partial windows are dropped.
///  - kResumable: kModel plus an appended "sentinel-resume-v1" section with
///    the windower's in-flight window, every alarm filter's run state, and
///    the activity counters -- enough to continue a stream mid-window with
///    *bit-identical* downstream results (the crash-recovery contract; see
///    docs/RELIABILITY.md). The restoring constructor auto-detects the
///    section, so either scope loads through the same path.
enum class CheckpointScope { kModel, kResumable };

class DetectionPipeline {
 public:
  explicit DetectionPipeline(PipelineConfig cfg);

  /// Restore from a checkpoint written by save_checkpoint(). `cfg` must be
  /// the same configuration the checkpointed pipeline ran with (the
  /// checkpoint stores learned state, not configuration). For kModel
  /// checkpoints, alarm filters restart cold and re-converge within a
  /// filter window; a kResumable checkpoint restores them exactly. The
  /// per-window history is session-local and starts empty either way.
  DetectionPipeline(PipelineConfig cfg, std::istream& checkpoint);

  /// Persist all learned state -- model states, M_CO, M_C, M_O, every
  /// error/attack track with its M_CE -- as a versioned checkpoint. Text
  /// (the default) stays diffable and byte-compatible with older tooling;
  /// binary (serialize::Format::kBinary) is smaller and faster to parse,
  /// and the restoring constructor auto-detects either by its leading
  /// magic byte. With the default kModel scope, call at a window boundary
  /// (after finish() or between add_record bursts) so no partial window is
  /// lost; kResumable captures the partial window too and is valid at any
  /// record boundary.
  void save_checkpoint(std::ostream& os,
                       serialize::Format format = serialize::Format::kText,
                       CheckpointScope scope = CheckpointScope::kModel) const;

  /// Streaming entry point: records must arrive roughly time-ordered; the
  /// internal windower closes windows as time advances.
  void add_record(const SensorRecord& rec);

  /// Bulk streaming entry: one fused pass over a decoded batch. The windower
  /// accumulates columnar per-sensor sums inline and each completed window is
  /// processed in place -- no per-record dispatch overhead and no
  /// allocations per record at steady state. Equivalent to calling
  /// add_record on each element in order.
  void add_records(std::span<const SensorRecord> recs);

  /// The same pass over a flat batch: what a threads > 1 fleet's drain task
  /// applies (see core/fleet.h).
  void add_batch(const RecordBatch& batch);

  /// Close the final partial window.
  void finish();

  /// Batch entry point used by experiments: process one pre-built window.
  /// Throws std::invalid_argument unless rep_points and rep_sums match
  /// rep_sensors in length and rep_total matches cached_mean in width (the
  /// windower's output always does; see bench::make_window for hand-built
  /// windows).
  void process_window(const ObservationSet& window);

  /// Convenience: a copy of `records` sorted with sort_by_time, then
  /// add_records() and finish(). The records go through this pipeline's own
  /// windower, so late_records / clamped_records count them and a time gap
  /// of any length costs one step.
  void process_trace(const std::vector<SensorRecord>& records);

  // --- Model access -------------------------------------------------------
  const ModelStateSet& model_states() const { return states_; }
  const hmm::OnlineHmm& m_co() const { return m_co_; }
  const hmm::MarkovChain& m_c() const { return m_c_; }
  const hmm::MarkovChain& m_o() const { return m_o_; }
  /// The user-facing error/attack-free model of the environment (M_C with
  /// spurious states pruned, Fig. 7).
  hmm::MarkovChain correct_model() const;
  /// Combined (all-tracks) M_CE for a sensor, if it ever had a track.
  const hmm::OnlineHmm* m_ce(SensorId sensor) const;
  const TrackManager& tracks() const { return tracks_; }
  const AlarmBank& alarms() const { return alarms_; }

  /// The first-tier screen bank, or null when PipelineConfig::screen.mode is
  /// kOff (off-mode pipelines allocate no screen state at all).
  const screen::ScreenBank* screens() const { return screens_.get(); }
  /// Tier statistics; all-zero when screening is off.
  screen::ScreenStats screen_stats() const;

  // --- History / stats ----------------------------------------------------
  /// Empty when PipelineConfig::record_history is off.
  const std::vector<WindowSummary>& history() const { return history_; }
  /// The c_i sequence of this session's processed windows (input for
  /// core/smoothing.h; empty when record_history is off).
  std::vector<StateId> correct_sequence() const;
  std::size_t windows_processed() const { return windows_processed_; }
  std::size_t windows_skipped() const { return windows_skipped_; }
  /// Activity counters (see PipelineCounters). Safe on a quiescent pipeline.
  PipelineCounters counters() const;

  /// Correct-state ids whose occupancy in M_C clears the spurious-state bar.
  /// Cached between windows (recomputed after the next processed window).
  std::vector<StateId> significant_states() const;

  /// Coordinated-coalition evidence gating B^CO attack verdicts (see
  /// ClassifierConfig::min_implicated_sensors): the largest group of
  /// implicated sensors whose error tracks share a dominant error state.
  struct CoalitionInfo {
    std::size_t size = 0;
    std::optional<StateId> dominant_error_state;
    std::set<SensorId> members;
  };
  CoalitionInfo coalition() const;
  std::size_t coalition_size() const { return coalition().size; }

  /// Centroid lookup bound to this pipeline's model-state set (O(1) hash
  /// lookups; safe to call concurrently from any number of threads).
  CentroidLookup centroid_lookup() const;

  // --- Diagnosis (section 3.4) --------------------------------------------
  Diagnosis diagnose_network() const;
  std::map<SensorId, Diagnosis> diagnose_sensors() const;
  DiagnosisReport diagnose() const;

  const PipelineConfig& config() const { return cfg_; }

 private:
  /// The windower callback of add_records/add_batch: processes each completed
  /// window in place, and counts a run of empty windows as skipped in one
  /// step (each would fail the min_sensors_per_window >= 1 gate).
  struct WindowSink;

  /// The kScreen per-window path: per-sensor screens decide who takes the
  /// full mapping/alarm/HMM stages; screened sensors vote as a bloc through
  /// their collective mean.
  void process_window_screened(const ObservationSet& window);

  /// Fill resid_ (and size screen_dec_) for the screen tier: one scalar per
  /// sensor, from the window's cached rep_sums (without touching the
  /// representative vectors).
  void fill_residuals(const ObservationSet& window);

  /// Stage (3): alarms and tracks over window_states_.mapping, iterated in
  /// cache-sized sensor blocks as four passes (alarm updates, track edges,
  /// batched M_CE observes, screen resolution + history rows staged in
  /// hist_scratch_). Every pass is per-sensor independent, so the results
  /// are bit-identical to the old interleaved loop -- but the M_CE row
  /// updates enqueue into the track slab and coalesce into two kernel calls
  /// at the window flush.
  void run_alarm_track_stage(const ObservationSet& window);

  /// Move the staged hist_scratch_ rows into the history arena, point
  /// `summary.sensors` at them, and append the summary to history_.
  void commit_history(WindowSummary& summary);

  /// Inputs diagnose_*() would otherwise recompute per tracked sensor,
  /// computed once per (diagnosis, window) pair. Guarded by diag_mu_;
  /// invalidated by process_window and checkpoint load.
  struct DiagCache {
    std::vector<StateId> significant;
    CoalitionInfo coalition;
    Diagnosis network;
  };
  const DiagCache& diag_cache_locked() const;
  std::vector<StateId> compute_significant_states() const;
  CoalitionInfo compute_coalition() const;
  std::map<SensorId, Diagnosis> diagnose_sensors_locked(const DiagCache& cache) const;

  PipelineConfig cfg_;
  ModelStateSet states_;
  Windower windower_;
  AlarmBank alarms_;
  TrackManager tracks_;
  hmm::OnlineHmm m_co_;
  hmm::MarkovChain m_c_;
  hmm::MarkovChain m_o_;
  std::unique_ptr<screen::ScreenBank> screens_;  // null when screening is off
  std::optional<StateId> prev_correct_;
  std::optional<StateId> prev_observable_;
  std::vector<WindowSummary> history_;
  /// Backing store for WindowSummary::sensors rows (stable addresses).
  util::SlabArena<std::pair<SensorId, SensorWindowInfo>> history_arena_;
  /// Recycled staging buffer the alarm/track stage fills before the rows are
  /// copied into the arena (only when record_history is on).
  std::vector<std::pair<SensorId, SensorWindowInfo>> hist_scratch_;
  std::size_t windows_processed_ = 0;
  std::size_t windows_skipped_ = 0;
  std::size_t raw_alarms_ = 0;
  std::size_t filtered_alarms_ = 0;
  std::size_t track_opens_ = 0;
  std::size_t track_closes_ = 0;
  std::size_t hmm_updates_ = 0;

  // Stage-timer histograms, resolved from the global registry at
  // construction when cfg_.stage_timers is set; null otherwise, and a null
  // histogram makes ScopedTimerNs skip the clock read entirely.
  util::Histogram* t_screen_ = nullptr;
  util::Histogram* t_spawn_ = nullptr;
  util::Histogram* t_identify_ = nullptr;
  util::Histogram* t_alarms_ = nullptr;
  util::Histogram* t_hmm_ = nullptr;
  util::Histogram* t_centroid_ = nullptr;

  // Per-window scratch, reused so the steady-state hot path allocates
  // nothing (see docs/PERFORMANCE.md).
  std::vector<std::size_t> spawn_slots_;  // per-point slots from the spawn scan
  WindowStates window_states_;
  StateIdentScratch ident_scratch_;

  // kScreen-path scratch: escalated representatives and the screened bloc's
  // mean (appended to esc_points_ for the combined centroid update), plus
  // the batched-screen buffers (residuals in, decisions out).
  std::vector<AttrVec> esc_points_;
  std::vector<SensorId> esc_sensors_;
  AttrVec screened_mean_;
  std::vector<double> resid_;
  std::vector<screen::ScreenDecision> screen_dec_;
  std::vector<AlarmUpdate> blk_updates_;  // per-block alarm-stage scratch

  mutable util::CopyableMutex diag_mu_;
  mutable std::optional<DiagCache> diag_cache_;
};

}  // namespace sentinel::core
