#include "core/tracks.h"

#include <algorithm>
#include <mutex>
#include <stdexcept>

#include "util/serialize.h"

namespace sentinel::core {

void TrackManager::set_active_flag(SensorId sensor, bool active) {
  if (sensor >= kDenseLimit) return;
  if (sensor >= active_dense_.size()) {
    active_dense_.resize(std::max<std::size_t>(sensor + 1, active_dense_.size() * 2), 0);
  }
  active_dense_[sensor] = active ? 1 : 0;
}

void TrackManager::set_active_track(SensorId sensor, Track* track) {
  if (sensor >= kDenseLimit) return;
  if (sensor >= active_track_dense_.size()) {
    active_track_dense_.resize(
        std::max<std::size_t>(sensor + 1, active_track_dense_.size() * 2), nullptr);
  }
  active_track_dense_[sensor] = track;
}

Track* TrackManager::active_track(SensorId sensor) {
  if (sensor < kDenseLimit) {
    return sensor < active_track_dense_.size() ? active_track_dense_[sensor] : nullptr;
  }
  const auto it = tracks_.find(sensor);
  if (it == tracks_.end() || it->second.empty() || !it->second.back().active()) return nullptr;
  return &it->second.back();
}

TrackManager::Aggregate& TrackManager::aggregate_for(SensorId sensor) {
  if (sensor < kDenseLimit) {
    if (sensor >= aggregate_dense_.size()) {
      aggregate_dense_.resize(
          std::max<std::size_t>(sensor + 1, aggregate_dense_.size() * 2), nullptr);
    }
    if (aggregate_dense_[sensor] == nullptr) {
      const auto it =
          aggregates_.emplace(sensor, Aggregate(hmm_cfg_, slab_.open_lane())).first;
      aggregate_dense_[sensor] = &it->second;
    }
    return *aggregate_dense_[sensor];
  }
  auto it = aggregates_.find(sensor);
  if (it == aggregates_.end()) {
    it = aggregates_.emplace(sensor, Aggregate(hmm_cfg_, slab_.open_lane())).first;
  }
  return it->second;
}

void TrackManager::open(SensorId sensor, std::size_t window) {
  auto& list = tracks_[sensor];
  if (!list.empty() && list.back().active()) return;
  list.emplace_back(hmm_cfg_);
  list.back().opened_window = window;
  list.back().lane = slab_.open_lane();
  set_active_flag(sensor, true);
  set_active_track(sensor, &list.back());
}

void TrackManager::close(SensorId sensor, std::size_t window) {
  const auto it = tracks_.find(sensor);
  if (it == tracks_.end() || it->second.empty()) return;
  auto& last = it->second.back();
  if (last.active()) {
    last.closed_window = window;
    if (last.lane != hmm::OnlineHmmSlab::kNoLane) {
      // A closing lane normally has nothing pending (the cleared edge
      // precedes this window's observes), but flush defensively so the
      // materialized M_CE is never behind.
      if (slab_.lane_has_pending(last.lane)) slab_.flush();
      last.m_ce = slab_.materialize(last.lane);
      slab_.free_lane(last.lane);
      last.lane = hmm::OnlineHmmSlab::kNoLane;
    }
  }
  set_active_flag(sensor, false);
  set_active_track(sensor, nullptr);
}

bool TrackManager::has_active_track(SensorId sensor) const {
  if (sensor < kDenseLimit) {
    return sensor < active_dense_.size() && active_dense_[sensor] != 0;
  }
  const auto it = tracks_.find(sensor);
  return it != tracks_.end() && !it->second.empty() && it->second.back().active();
}

void TrackManager::begin_window() { in_window_ = true; }

void TrackManager::flush_window() {
  slab_.flush();
  in_window_ = false;
}

void TrackManager::observe(SensorId sensor, hmm::StateId correct, hmm::StateId error_state) {
  Track* track = active_track(sensor);
  if (track == nullptr) return;
  slab_.observe(track->lane, correct, error_state);
  ++track->observations;
  Aggregate& agg = aggregate_for(sensor);
  slab_.observe(agg.lane, correct, error_state);
  agg.view_dirty = true;
  if (error_state != hmm::kBottomSymbol) {
    ++track->anomalous_observations;
    ++agg.anomalous;
  }
  if (!in_window_) slab_.flush();
}

const std::vector<Track>* TrackManager::tracks(SensorId sensor) const {
  const auto it = tracks_.find(sensor);
  return it == tracks_.end() ? nullptr : &it->second;
}

const Track* TrackManager::best_track(SensorId sensor) const {
  const auto* list = tracks(sensor);
  if (list == nullptr || list->empty()) return nullptr;
  const Track* best = &list->front();
  for (const auto& t : *list) {
    if (t.anomalous_observations > best->anomalous_observations) best = &t;
  }
  return best;
}

const hmm::OnlineHmm& TrackManager::refreshed_view(const Aggregate& agg) const {
  std::lock_guard<std::mutex> lock(agg.view_mu.get());
  if (agg.view_dirty) {
    if (slab_.lane_has_pending(agg.lane)) {
      throw std::logic_error("TrackManager: combined M_CE read inside an open window batch");
    }
    agg.view = slab_.materialize(agg.lane);
    agg.view_dirty = false;
  }
  return agg.view;
}

const hmm::OnlineHmm* TrackManager::combined_m_ce(SensorId sensor) const {
  const auto it = aggregates_.find(sensor);
  return it == aggregates_.end() ? nullptr : &refreshed_view(it->second);
}

std::size_t TrackManager::total_anomalies(SensorId sensor) const {
  const auto it = aggregates_.find(sensor);
  return it == aggregates_.end() ? 0 : it->second.anomalous;
}

std::vector<SensorId> TrackManager::tracked_sensors() const {
  std::vector<SensorId> out;
  out.reserve(tracks_.size());
  for (const auto& [id, list] : tracks_) {
    if (!list.empty()) out.push_back(id);
  }
  return out;
}

std::size_t TrackManager::total_tracks() const {
  std::size_t n = 0;
  for (const auto& [id, list] : tracks_) n += list.size();
  return n;
}

void TrackManager::save(serialize::Writer& w) const {
  if (slab_.has_pending()) {
    throw std::logic_error("TrackManager::save inside an open window batch");
  }
  serialize::tag(w, "tracks");
  serialize::put(w, tracks_.size());
  for (const auto& [sensor, list] : tracks_) {
    serialize::put(w, sensor);
    serialize::put(w, list.size());
    for (const auto& t : list) {
      serialize::put(w, t.opened_window);
      serialize::put(w, t.closed_window.has_value());
      serialize::put(w, t.closed_window.value_or(0));
      serialize::put(w, t.observations);
      serialize::put(w, t.anomalous_observations);
      if (t.lane != hmm::OnlineHmmSlab::kNoLane) {
        slab_.materialize(t.lane).save(w);
      } else {
        t.m_ce.save(w);
      }
    }
  }
  serialize::put(w, aggregates_.size());
  for (const auto& [sensor, agg] : aggregates_) {
    serialize::put(w, sensor);
    serialize::put(w, agg.anomalous);
    refreshed_view(agg).save(w);
  }
  w.newline();
}

void TrackManager::save(std::ostream& os) const {
  serialize::TextWriter w(os);
  save(w);
}

TrackManager TrackManager::load(hmm::OnlineHmmConfig hmm_cfg, serialize::Reader& r) {
  serialize::expect(r, "tracks");
  TrackManager tm(hmm_cfg);
  const auto n_sensors = serialize::get<std::size_t>(r);
  for (std::size_t i = 0; i < n_sensors; ++i) {
    const auto sensor = serialize::get<SensorId>(r);
    const auto n_tracks = serialize::get<std::size_t>(r);
    auto& list = tm.tracks_[sensor];
    for (std::size_t t = 0; t < n_tracks; ++t) {
      Track track(hmm_cfg);
      track.opened_window = serialize::get<std::size_t>(r);
      const bool closed = serialize::get_bool(r);
      const auto closed_at = serialize::get<std::size_t>(r);
      if (closed) track.closed_window = closed_at;
      track.observations = serialize::get<std::size_t>(r);
      track.anomalous_observations = serialize::get<std::size_t>(r);
      track.m_ce = hmm::OnlineHmm::load(hmm_cfg, r);
      if (track.active()) {
        // An active track's live state moves into a slab lane; the record's
        // m_ce empties until close() materializes it back out.
        track.lane = tm.slab_.open_lane();
        tm.slab_.adopt(track.lane, track.m_ce);
        track.m_ce = hmm::OnlineHmm(hmm_cfg);
      }
      list.push_back(std::move(track));
    }
    if (!list.empty() && list.back().active()) {
      tm.set_active_flag(sensor, true);
      tm.set_active_track(sensor, &list.back());
    }
  }
  const auto n_aggs = serialize::get<std::size_t>(r);
  for (std::size_t i = 0; i < n_aggs; ++i) {
    const auto sensor = serialize::get<SensorId>(r);
    Aggregate agg(hmm_cfg, tm.slab_.open_lane());
    agg.anomalous = serialize::get<std::size_t>(r);
    agg.view = hmm::OnlineHmm::load(hmm_cfg, r);
    tm.slab_.adopt(agg.lane, agg.view);
    agg.view_dirty = false;  // the loaded object IS the lane's current state
    const auto it = tm.aggregates_.emplace(sensor, std::move(agg)).first;
    if (sensor < kDenseLimit) {
      if (sensor >= tm.aggregate_dense_.size()) {
        tm.aggregate_dense_.resize(
            std::max<std::size_t>(sensor + 1, tm.aggregate_dense_.size() * 2), nullptr);
      }
      tm.aggregate_dense_[sensor] = &it->second;
    }
  }
  return tm;
}

TrackManager TrackManager::load(hmm::OnlineHmmConfig hmm_cfg, std::istream& is) {
  const auto r = serialize::make_reader(is);
  return load(hmm_cfg, *r);
}

}  // namespace sentinel::core
