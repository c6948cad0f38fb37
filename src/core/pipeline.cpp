#include "core/pipeline.h"

#include <algorithm>
#include <istream>
#include <mutex>
#include <ostream>
#include <span>
#include <stdexcept>

#include "util/metrics.h"
#include "util/serialize.h"
#include "util/vecn.h"

namespace sentinel::core {

namespace {

hmm::OnlineHmmConfig hmm_config(const PipelineConfig& cfg) {
  hmm::OnlineHmmConfig hc;
  hc.beta = cfg.beta;
  hc.gamma = cfg.gamma;
  return hc;
}

// Stage-timer bucket bounds: 250 ns .. ~4 ms, geometric. All pipelines share
// the same named histograms in the global registry; the registry rejects a
// bounds mismatch, so resolve them through one helper.
util::Histogram& stage_histogram(const char* name) {
  return util::metrics().histogram(
      name, util::Histogram::exponential_bounds(250, 2.0, 14));
}

}  // namespace

DetectionPipeline::DetectionPipeline(PipelineConfig cfg)
    : cfg_(std::move(cfg)),
      states_(cfg_.model_states, cfg_.initial_states),
      windower_(WindowerConfig{cfg_.window_seconds, cfg_.keep_raw}),
      alarms_(cfg_.alarm_filter),
      tracks_(hmm_config(cfg_)),
      m_co_(hmm_config(cfg_)) {
  if (cfg_.min_sensors_per_window == 0) {
    throw std::invalid_argument("DetectionPipeline: min_sensors_per_window must be >= 1");
  }
  if (cfg_.screen.mode != screen::ScreenMode::kOff) {
    screens_ = std::make_unique<screen::ScreenBank>(cfg_.screen);
  }
  if (cfg_.stage_timers) {
    if (screens_ != nullptr) t_screen_ = &stage_histogram("pipeline.stage.screen_ns");
    t_spawn_ = &stage_histogram("pipeline.stage.spawn_ns");
    t_identify_ = &stage_histogram("pipeline.stage.identify_ns");
    t_alarms_ = &stage_histogram("pipeline.stage.alarms_ns");
    t_hmm_ = &stage_histogram("pipeline.stage.hmm_ns");
    t_centroid_ = &stage_histogram("pipeline.stage.centroid_ns");
  }
}

DetectionPipeline::DetectionPipeline(PipelineConfig cfg, std::istream& checkpoint)
    : DetectionPipeline(std::move(cfg)) {
  // Codec negotiated by the first byte: binary checkpoints open with the
  // serialize magic, text ones with the human-readable version tag.
  const auto format = serialize::detect_format(checkpoint);
  const auto r = serialize::make_reader(checkpoint);
  serialize::expect(*r, "sentinel-checkpoint-v1");
  states_ = ModelStateSet::load(cfg_.model_states, *r);
  m_co_ = hmm::OnlineHmm::load(hmm_config(cfg_), *r);
  m_c_ = hmm::MarkovChain::load(*r);
  m_o_ = hmm::MarkovChain::load(*r);
  tracks_ = TrackManager::load(hmm_config(cfg_), *r);
  const bool has_prev_c = serialize::get_bool(*r);
  const auto prev_c = serialize::get<StateId>(*r);
  if (has_prev_c) prev_correct_ = prev_c;
  const bool has_prev_o = serialize::get_bool(*r);
  const auto prev_o = serialize::get<StateId>(*r);
  if (has_prev_o) prev_observable_ = prev_o;
  windows_skipped_ = serialize::get<std::size_t>(*r);

  // A kResumable checkpoint appends a second section after the v1 payload;
  // detect it by peeking past the end (text checkpoints end in whitespace,
  // which must be consumed first -- binary bytes are position-exact).
  if (format == serialize::Format::kText) checkpoint >> std::ws;
  if (checkpoint.peek() != std::char_traits<char>::eof()) {
    serialize::expect(*r, "sentinel-resume-v1");
    windower_.load(*r);
    alarms_.load(*r);
    windows_processed_ = serialize::get<std::size_t>(*r);
    raw_alarms_ = serialize::get<std::size_t>(*r);
    filtered_alarms_ = serialize::get<std::size_t>(*r);
    track_opens_ = serialize::get<std::size_t>(*r);
    track_closes_ = serialize::get<std::size_t>(*r);
    hmm_updates_ = serialize::get<std::size_t>(*r);

    // A screened pipeline appends a third section. A checkpoint without one
    // (pre-screen bytes, or written with screening off) resumes with a fresh
    // bank -- every sensor restarts escalated, which is safe. The reverse
    // (screen bytes, screening off) fails loudly: silently dropping state a
    // config mismatch cannot interpret would mask a deployment error.
    if (format == serialize::Format::kText) checkpoint >> std::ws;
    if (checkpoint.peek() != std::char_traits<char>::eof()) {
      serialize::expect(*r, "sentinel-screen-v1");
      if (screens_ == nullptr) {
        throw std::runtime_error(
            "checkpoint carries screen-tier state but PipelineConfig::screen.mode is off");
      }
      screens_->load(*r);
    }
  }
  diag_cache_.reset();
}

void DetectionPipeline::save_checkpoint(std::ostream& os, serialize::Format format,
                                        CheckpointScope scope) const {
  const auto w = serialize::make_writer(os, format);
  serialize::tag(*w, "sentinel-checkpoint-v1");
  states_.save(*w);
  m_co_.save(*w);
  m_c_.save(*w);
  m_o_.save(*w);
  tracks_.save(*w);
  serialize::put(*w, prev_correct_.has_value());
  serialize::put(*w, prev_correct_.value_or(0));
  serialize::put(*w, prev_observable_.has_value());
  serialize::put(*w, prev_observable_.value_or(0));
  serialize::put(*w, windows_skipped_);
  w->newline();
  if (scope == CheckpointScope::kResumable) {
    serialize::tag(*w, "sentinel-resume-v1");
    windower_.save(*w);
    alarms_.save(*w);
    serialize::put(*w, windows_processed_);
    serialize::put(*w, raw_alarms_);
    serialize::put(*w, filtered_alarms_);
    serialize::put(*w, track_opens_);
    serialize::put(*w, track_closes_);
    serialize::put(*w, hmm_updates_);
    w->newline();
    if (screens_ != nullptr) {
      serialize::tag(*w, "sentinel-screen-v1");
      screens_->save(*w);
      w->newline();
    }
  }
}

void DetectionPipeline::add_record(const SensorRecord& rec) {
  add_records(std::span<const SensorRecord>(&rec, 1));
}

void DetectionPipeline::add_records(std::span<const SensorRecord> recs) {
  // One fused pass: the windower's columnar accumulators run inline over the
  // batch, and each completed window is processed in place through the
  // recycled emission object -- no per-record virtual dispatch, no window
  // materialization, and (keep_raw off) no allocations per record.
  windower_.add_batch(recs, [this](ObservationSet&& window) { process_window(window); });
}

void DetectionPipeline::finish() {
  if (auto last = windower_.flush()) process_window(*last);
}

void DetectionPipeline::process_trace(const std::vector<SensorRecord>& records) {
  for (const auto& window : window_trace(records, cfg_.window_seconds)) {
    process_window(window);
  }
}

void DetectionPipeline::process_window(const ObservationSet& window) {
  if (window.sensor_count() < cfg_.min_sensors_per_window) {
    ++windows_skipped_;
    return;
  }

  // Per-sensor representatives drive every step: each sensor gets one vote
  // per window, so a chatty sensor cannot outvote the rest. The windower
  // caches them as flat arrays; hand-built windows are copied into the
  // reusable scratch (element-wise, so the AttrVecs keep their capacity).
  std::span<const AttrVec> points;
  std::span<const SensorId> sensors;
  if (!window.rep_points.empty()) {
    points = window.rep_points;
    sensors = window.rep_sensors;
  } else {
    points_.resize(window.per_sensor.size());
    sensors_.resize(window.per_sensor.size());
    std::size_t i = 0;
    for (const auto& [id, p] : window.per_sensor) {
      sensors_[i] = id;
      points_[i].assign(p.begin(), p.end());
      ++i;
    }
    points = points_;
    sensors = sensors_;
  }
  // The windower caches the overall mean at finalization (same accumulation
  // order, so the bits match); only hand-built windows pay the re-walk here.
  const AttrVec* window_mean = &window.cached_mean;
  if (window_mean->empty()) {
    vecn::mean_into(window.raw, window_mean_);
    window_mean = &window_mean_;
  }

  if (screens_ != nullptr) {
    process_window_screened(window, points, sensors, *window_mean);
    return;
  }

  // (1) Make fresh regimes representable before mapping (section 3.1's
  // "creating a new state s_{M+1} = p_j"). The window mean is a spawn
  // candidate too: under a coalition attack the network-level observable
  // (eq. 2 maps the mean) can sit far from every individual reading -- the
  // fabricated state of a Dynamic Creation attack must become a model state
  // for B^CO to expose it. Two calls, same candidate order as one. The spawn
  // scan doubles as the eq. (3) mapping scan: when nothing spawned, the
  // recorded slots are exact under the final centroids.
  bool spawned_points = false;
  bool spawned_mean = false;
  {
    util::ScopedTimerNs t(t_spawn_);
    spawned_points = !states_.maybe_spawn_mapped(points, spawn_slots_).empty();
    spawned_mean = !states_.maybe_spawn(std::span<const AttrVec>(window_mean, 1)).empty();
  }

  // (2) o_i, c_i, l_j -- over the flat copies made above, so the window's
  // per-sensor map is walked exactly once per window.
  WindowStates& ws = window_states_;
  {
    util::ScopedTimerNs t(t_identify_);
    identify_states_into(sensors, points, states_, *window_mean, ws, ident_scratch_,
                         (spawned_points || spawned_mean)
                             ? std::span<const std::size_t>{}
                             : std::span<const std::size_t>(spawn_slots_));
  }

  // (3) Alarms and tracks.
  WindowSummary summary;
  if (cfg_.record_history) {
    summary.window_index = window.window_index;
    summary.window_start = window.window_start;
    summary.observable = ws.observable;
    summary.correct = ws.correct;
    summary.majority_size = ws.majority_size;
    hist_scratch_.clear();
  }
  run_alarm_track_stage(window);

  {
    util::ScopedTimerNs t(t_hmm_);
    // (4) Network HMM M_CO.
    m_co_.observe(ws.correct, ws.observable);
    ++hmm_updates_;

    // (5) Markov models M_C and M_O.
    if (prev_correct_) {
      m_c_.add_transition(*prev_correct_, ws.correct);
    } else {
      m_c_.add_visit(ws.correct);
    }
    if (prev_observable_) {
      m_o_.add_transition(*prev_observable_, ws.observable);
    } else {
      m_o_.add_visit(ws.observable);
    }
    prev_correct_ = ws.correct;
    prev_observable_ = ws.observable;
  }

  // (6) Centroid EMA update + merge, reusing the eq. (3) labels: nothing
  // moved a centroid since identify_states_into, so the slots are exact.
  {
    util::ScopedTimerNs t(t_centroid_);
    states_.update_labeled(points, ident_scratch_.point_slots);
  }

  ++windows_processed_;
  if (cfg_.record_history) commit_history(summary);

  // The learned state advanced: drop the memoized diagnosis inputs.
  {
    std::lock_guard<std::mutex> lock(diag_mu_.get());
    diag_cache_.reset();
  }
}

void DetectionPipeline::commit_history(WindowSummary& summary) {
  // Park the staged per-sensor rows (ascending sensor order, built by the
  // alarm/track stage) in the slab arena and retain a view over them: the
  // history append itself never allocates, and the arena grows one slab per
  // ~4096 rows.
  const auto rows = history_arena_.alloc(hist_scratch_.size());
  std::copy(hist_scratch_.begin(), hist_scratch_.end(), rows.begin());
  summary.sensors = util::FlatMapView<SensorId, SensorWindowInfo>(rows.data(), rows.size());
  history_.push_back(summary);
}

void DetectionPipeline::fill_residuals(const ObservationSet& window,
                                       std::span<const AttrVec> points,
                                       const AttrVec& window_mean) {
  const std::size_t n = points.size();
  resid_.resize(n);
  screen_dec_.resize(n);
  const double mean_sum = vecn::scalar_sum(window_mean);
  // The windower caches each representative's scalar_sum at finalization,
  // while the samples are still cache-hot; reading one double per sensor
  // here is bit-identical to recomputing it (same fixed accumulation
  // order), so hand-built windows without the cache take the full walk and
  // land on the same residuals.
  if (window.rep_sums.size() == n) {
    const double* sums = window.rep_sums.data();
    for (std::size_t j = 0; j < n; ++j) resid_[j] = sums[j] - mean_sum;
  } else {
    for (std::size_t j = 0; j < n; ++j) {
      resid_[j] = vecn::scalar_sum(points[j]) - mean_sum;
    }
  }
}

void DetectionPipeline::run_alarm_track_stage(const ObservationSet& window) {
  util::ScopedTimerNs t(t_alarms_);
  WindowStates& ws = window_states_;
  // Block size: one block's alarm rows, mapping slice, and update scratch
  // stay L1-resident across the four passes.
  constexpr std::size_t kBlock = 256;
  const std::size_t n = ws.mapping.size();
  blk_updates_.resize(std::min(kBlock, n));
  tracks_.begin_window();
  for (std::size_t base = 0; base < n; base += kBlock) {
    const std::size_t m = std::min(kBlock, n - base);
    // Pass 1: alarm filter updates.
    for (std::size_t k = 0; k < m; ++k) {
      const auto& [sensor, l] = ws.mapping[base + k];
      const bool raw = l != ws.correct;
      blk_updates_[k] = alarms_.update(sensor, raw);
      if (raw) ++raw_alarms_;
      if (blk_updates_[k].filtered) ++filtered_alarms_;
    }
    // Pass 2: track edges.
    for (std::size_t k = 0; k < m; ++k) {
      const AlarmUpdate& u = blk_updates_[k];
      if (u.raised_edge) {
        tracks_.open(ws.mapping[base + k].first, window.window_index);
        ++track_opens_;
      }
      if (u.cleared_edge) {
        tracks_.close(ws.mapping[base + k].first, window.window_index);
        ++track_closes_;
      }
    }
    // Pass 3: M_CE observes, enqueued into the track slab (applied in two
    // batched kernel calls by the flush below).
    for (std::size_t k = 0; k < m; ++k) {
      const auto& [sensor, l] = ws.mapping[base + k];
      if (!tracks_.has_active_track(sensor)) continue;
      const bool raw = l != ws.correct;
      tracks_.observe(sensor, ws.correct, raw ? l : hmm::kBottomSymbol);
      ++hmm_updates_;
    }
    // Pass 4: screen hysteresis resolution and history.
    for (std::size_t k = 0; k < m; ++k) {
      const auto& [sensor, l] = ws.mapping[base + k];
      const bool raw = l != ws.correct;
      if (screens_ != nullptr) {
        screens_->resolve(sensor, !raw && !tracks_.has_active_track(sensor));
      }
      if (cfg_.record_history) {
        SensorWindowInfo info;
        info.mapped = l;
        info.raw_alarm = raw;
        info.filtered_alarm = blk_updates_[k].filtered;
        hist_scratch_.emplace_back(sensor, info);
      }
    }
  }
  tracks_.flush_window();
}

void DetectionPipeline::process_window_screened(const ObservationSet& window,
                                                std::span<const AttrVec> points,
                                                std::span<const SensorId> sensors,
                                                const AttrVec& window_mean) {
  const std::size_t n = sensors.size();

  // Screens partition the window: escalated representatives go through the
  // full per-sensor stages; the screened majority is folded into one bloc
  // mean that votes (and EMA-updates) with the bloc's weight. One residual
  // push per screened sensor is the whole per-sensor cost.
  std::size_t esc_n = 0;
  std::size_t screened_n = 0;
  esc_sensors_.clear();
  {
    util::ScopedTimerNs t(t_screen_);
    // Three passes, each a tight loop: residuals (one cached scalar per
    // sensor when the windower filled rep_sums), one batched bank update
    // (independent per-sensor chains overlap), then the partition on the
    // decisions. With rep_sums and rep_total present, a healthy sensor's
    // full representative is never read at all -- the screened bloc's sum
    // comes from rep_total minus the escalated points.
    fill_residuals(window, points, window_mean);
    screens_->observe_block(sensors.data(), resid_.data(), n, screen_dec_.data());
    const bool have_total = window.rep_total.size() == window_mean.size();
    if (have_total) {
      screened_mean_.assign(window.rep_total.begin(), window.rep_total.end());
    } else {
      screened_mean_.assign(window_mean.size(), 0.0);
    }
    for (std::size_t j = 0; j < n; ++j) {
      if (screen_dec_[j].full_path) {
        if (esc_points_.size() <= esc_n) esc_points_.emplace_back();
        const AttrVec& p = points[j];
        esc_points_[esc_n].assign(p.begin(), p.end());
        esc_sensors_.push_back(sensors[j]);
        ++esc_n;
        if (have_total) {
          for (std::size_t a = 0; a < screened_mean_.size() && a < p.size(); ++a) {
            screened_mean_[a] -= p[a];
          }
        }
      } else {
        if (!have_total) {
          const AttrVec& p = points[j];
          for (std::size_t a = 0; a < screened_mean_.size() && a < p.size(); ++a) {
            screened_mean_[a] += p[a];
          }
        }
        ++screened_n;
      }
    }
  }
  if (screened_n > 0) {
    for (double& a : screened_mean_) a /= static_cast<double>(screened_n);
  }
  const std::span<const AttrVec> esc(esc_points_.data(), esc_n);

  // (1) Spawn scan over the escalated representatives plus the window mean
  // (the full path's candidates, minus the screened sensors -- which sit
  // near the mean by construction and cannot need a fresh state).
  bool spawned = false;
  {
    util::ScopedTimerNs t(t_spawn_);
    spawned = !states_.maybe_spawn_mapped(esc, spawn_slots_).empty();
    spawned |= !states_.maybe_spawn(std::span<const AttrVec>(&window_mean, 1)).empty();
  }

  // (2) o_i from the window mean (eq. 2 unchanged); l_j for escalated
  // sensors; c_i by majority where the screened bloc votes through its mean
  // with weight screened_n. Same tie-breaks as identify_states_into: largest
  // cluster, ties toward the observable's cluster, then the smaller id.
  WindowStates& ws = window_states_;
  std::size_t screened_slot = 0;
  {
    util::ScopedTimerNs t(t_identify_);
    const std::size_t slots = states_.size();
    ident_scratch_.cluster_sizes.assign(slots, 0);
    ident_scratch_.point_slots.resize(esc_n);
    ws.mapping.clear();
    ws.sensors = n;
    for (std::size_t j = 0; j < esc_n; ++j) {
      const std::size_t s = spawned ? states_.map_slot(esc_points_[j]) : spawn_slots_[j];
      ident_scratch_.point_slots[j] = s;
      ++ident_scratch_.cluster_sizes[s];
      ws.mapping.emplace_back(esc_sensors_[j], states_.ids()[s]);
    }
    const std::size_t obs_slot = states_.map_slot(window_mean);
    screened_slot = obs_slot;
    if (screened_n > 0) {
      screened_slot = states_.map_slot(screened_mean_);
      ident_scratch_.cluster_sizes[screened_slot] += screened_n;
    }
    std::size_t best = slots;
    std::size_t best_count = 0;
    for (std::size_t s = 0; s < slots; ++s) {
      const std::size_t c = ident_scratch_.cluster_sizes[s];
      if (c == 0) continue;
      if (best == slots || c > best_count || (c == best_count && s == obs_slot)) {
        best = s;
        best_count = c;
      }
    }
    ws.observable = states_.ids()[obs_slot];
    ws.correct = states_.ids()[best];
    ws.majority_size = best_count;
  }

  // (3) Alarms and tracks for escalated sensors only; each one's hysteresis
  // resolves with the full tier's verdict for this window.
  WindowSummary summary;
  if (cfg_.record_history) {
    summary.window_index = window.window_index;
    summary.window_start = window.window_start;
    summary.observable = ws.observable;
    summary.correct = ws.correct;
    summary.majority_size = ws.majority_size;
    hist_scratch_.clear();
  }
  run_alarm_track_stage(window);

  {
    util::ScopedTimerNs t(t_hmm_);
    // (4) Network HMM M_CO -- unchanged: the network-level (c_i, o_i)
    // evidence is what exposes mean-steering attacks even with every
    // individual sensor screened.
    m_co_.observe(ws.correct, ws.observable);
    ++hmm_updates_;

    // (5) Markov models M_C and M_O.
    if (prev_correct_) {
      m_c_.add_transition(*prev_correct_, ws.correct);
    } else {
      m_c_.add_visit(ws.correct);
    }
    if (prev_observable_) {
      m_o_.add_transition(*prev_observable_, ws.observable);
    } else {
      m_o_.add_visit(ws.observable);
    }
    prev_correct_ = ws.correct;
    prev_observable_ = ws.observable;
  }

  // (6) Centroid EMA: escalated representatives plus one step for the
  // screened bloc's mean, so the environment keeps tracking drift without a
  // per-sensor pass. Slots were recorded in (2) and nothing moved since.
  {
    util::ScopedTimerNs t(t_centroid_);
    if (screened_n > 0) {
      if (esc_points_.size() <= esc_n) esc_points_.emplace_back();
      esc_points_[esc_n].assign(screened_mean_.begin(), screened_mean_.end());
      ident_scratch_.point_slots.push_back(screened_slot);
      states_.update_labeled(std::span<const AttrVec>(esc_points_.data(), esc_n + 1),
                             ident_scratch_.point_slots);
    } else {
      states_.update_labeled(esc, ident_scratch_.point_slots);
    }
  }

  ++windows_processed_;
  if (cfg_.record_history) commit_history(summary);

  {
    std::lock_guard<std::mutex> lock(diag_mu_.get());
    diag_cache_.reset();
  }
}

screen::ScreenStats DetectionPipeline::screen_stats() const {
  return screens_ != nullptr ? screens_->stats() : screen::ScreenStats{};
}

PipelineCounters DetectionPipeline::counters() const {
  PipelineCounters c;
  c.windows_processed = windows_processed_;
  c.windows_skipped = windows_skipped_;
  c.state_spawns = states_.spawn_count();
  c.state_merges = states_.merge_count();
  c.raw_alarms = raw_alarms_;
  c.filtered_alarms = filtered_alarms_;
  c.track_opens = track_opens_;
  c.track_closes = track_closes_;
  c.hmm_updates = hmm_updates_;
  c.late_records = windower_.late_records();
  c.clamped_records = windower_.clamped_records();
  return c;
}

DetectionPipeline::CoalitionInfo DetectionPipeline::compute_coalition() const {
  // A coalition steers the network mean by injecting the *same* value, so
  // its members' error tracks share a dominant error state; two independent
  // faulty sensors (the GDI data's sensors 6 and 7) do not. The coalition is
  // the largest group of implicated sensors whose cumulative track evidence
  // peaks on the same (merge-resolved) error state.
  std::map<StateId, std::set<SensorId>> by_dominant;
  for (const SensorId sensor : tracks_.tracked_sensors()) {
    if (tracks_.total_anomalies(sensor) < cfg_.classifier.min_track_anomalies) continue;
    const hmm::OnlineHmm* m_ce = tracks_.combined_m_ce(sensor);
    if (m_ce == nullptr) continue;
    std::map<StateId, double> symbol_mass;
    const auto& ids = m_ce->symbols();
    const auto& totals = m_ce->symbol_totals();
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (ids[i] == hmm::kBottomSymbol) continue;
      symbol_mass[states_.resolve(ids[i])] += totals[i];
    }
    if (symbol_mass.empty()) continue;
    const auto dominant = std::max_element(
        symbol_mass.begin(), symbol_mass.end(),
        [](const auto& a, const auto& b) { return a.second < b.second; });
    by_dominant[dominant->first].insert(sensor);
  }

  CoalitionInfo info;
  for (auto& [state, sensors] : by_dominant) {
    if (sensors.size() > info.size) {
      info.size = sensors.size();
      info.dominant_error_state = state;
      info.members = std::move(sensors);
    }
  }
  return info;
}

std::vector<StateId> DetectionPipeline::correct_sequence() const {
  std::vector<StateId> out;
  out.reserve(history_.size());
  for (const auto& w : history_) out.push_back(w.correct);
  return out;
}

hmm::MarkovChain DetectionPipeline::correct_model() const {
  return m_c_.pruned(cfg_.classifier.min_occupancy);
}

const hmm::OnlineHmm* DetectionPipeline::m_ce(SensorId sensor) const {
  return tracks_.combined_m_ce(sensor);
}

std::vector<StateId> DetectionPipeline::compute_significant_states() const {
  // Occupancy prunes spurious states (the paper's low-probability
  // fluctuation states); merged-away ids are dropped too -- their role was
  // taken over by the surviving state, and keeping both would double-count
  // the same physical regime during the structural analysis.
  std::vector<StateId> out;
  const auto ids = m_c_.states();
  const auto occ = m_c_.occupancy();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (occ[i] >= cfg_.classifier.min_occupancy && states_.is_active(ids[i])) {
      out.push_back(ids[i]);
    }
  }
  return out;
}

const DetectionPipeline::DiagCache& DetectionPipeline::diag_cache_locked() const {
  if (!diag_cache_) {
    DiagCache cache;
    cache.significant = compute_significant_states();
    cache.coalition = compute_coalition();
    cache.network = classify_network(m_co_, cache.significant, centroid_lookup(),
                                     cfg_.classifier, cache.coalition.size);
    diag_cache_ = std::move(cache);
  }
  return *diag_cache_;
}

std::vector<StateId> DetectionPipeline::significant_states() const {
  std::lock_guard<std::mutex> lock(diag_mu_.get());
  return diag_cache_locked().significant;
}

DetectionPipeline::CoalitionInfo DetectionPipeline::coalition() const {
  std::lock_guard<std::mutex> lock(diag_mu_.get());
  return diag_cache_locked().coalition;
}

CentroidLookup DetectionPipeline::centroid_lookup() const {
  return [this](StateId id) { return states_.centroid(id); };
}

Diagnosis DetectionPipeline::diagnose_network() const {
  std::lock_guard<std::mutex> lock(diag_mu_.get());
  return diag_cache_locked().network;
}

std::map<SensorId, Diagnosis> DetectionPipeline::diagnose_sensors_locked(
    const DiagCache& cache) const {
  std::map<SensorId, Diagnosis> out;
  const CentroidLookup lookup = centroid_lookup();
  for (const SensorId sensor : tracks_.tracked_sensors()) {
    if (tracks_.total_anomalies(sensor) < cfg_.classifier.min_track_anomalies) {
      continue;  // transient glitch, not diagnosable
    }
    const hmm::OnlineHmm* m = tracks_.combined_m_ce(sensor);
    if (m == nullptr) continue;
    const bool member = cache.coalition.members.find(sensor) != cache.coalition.members.end();
    out.emplace(sensor, classify_sensor(*m, cache.network, member, cache.significant, lookup,
                                        cfg_.classifier));
  }
  return out;
}

std::map<SensorId, Diagnosis> DetectionPipeline::diagnose_sensors() const {
  std::lock_guard<std::mutex> lock(diag_mu_.get());
  return diagnose_sensors_locked(diag_cache_locked());
}

DiagnosisReport DetectionPipeline::diagnose() const {
  std::lock_guard<std::mutex> lock(diag_mu_.get());
  const DiagCache& cache = diag_cache_locked();
  DiagnosisReport report;
  report.network = cache.network;
  report.sensors = diagnose_sensors_locked(cache);
  return report;
}

}  // namespace sentinel::core
