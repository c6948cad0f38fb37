#include "core/tracks.h"

#include <mutex>
#include <stdexcept>
#include <string>

#include "util/serialize.h"

namespace sentinel::core {

void TrackManager::open(SensorId sensor, std::size_t window) {
  Sensor& s = sensors_.emplace(sensor).first;
  if (s.tracking()) return;
  Track& track = s.tracks.emplace_back(hmm_cfg_);
  track.opened_window = window;
  track.lane = slab_.open_lane();
}

void TrackManager::close(SensorId sensor, std::size_t window) {
  Sensor* s = sensors_.find(sensor);
  if (s == nullptr || !s->tracking()) return;
  Track& last = s->tracks.back();
  last.closed_window = window;
  if (last.lane != hmm::OnlineHmmSlab::kNoLane) {
    last.m_ce = slab_.materialize(last.lane);
    slab_.free_lane(last.lane);
    last.lane = hmm::OnlineHmmSlab::kNoLane;
  }
}

bool TrackManager::has_active_track(SensorId sensor) const {
  const Sensor* s = sensors_.find(sensor);
  return s != nullptr && s->tracking();
}

void TrackManager::observe(SensorId sensor, hmm::StateId correct, hmm::StateId error_state) {
  Sensor* s = sensors_.find(sensor);
  if (s == nullptr || !s->tracking()) return;
  Track& track = s->tracks.back();
  slab_.observe(track.lane, correct, error_state);
  ++track.observations;
  if (s->pooled == nullptr) s->pooled = std::make_unique<Aggregate>(hmm_cfg_, slab_.open_lane());
  Aggregate& agg = *s->pooled;
  slab_.observe(agg.lane, correct, error_state);
  agg.view_dirty = true;
  if (error_state != hmm::kBottomSymbol) {
    ++track.anomalous_observations;
    ++agg.anomalous;
  }
}

const std::vector<Track>* TrackManager::tracks(SensorId sensor) const {
  const Sensor* s = sensors_.find(sensor);
  return s == nullptr ? nullptr : &s->tracks;
}

const hmm::OnlineHmm& TrackManager::refreshed_view(const Aggregate& agg) const {
  std::lock_guard<std::mutex> lock(agg.view_mu);
  if (agg.view_dirty) {
    agg.view = slab_.materialize(agg.lane);
    agg.view_dirty = false;
  }
  return agg.view;
}

const hmm::OnlineHmm* TrackManager::combined_m_ce(SensorId sensor) const {
  const Sensor* s = sensors_.find(sensor);
  return s == nullptr || s->pooled == nullptr ? nullptr : &refreshed_view(*s->pooled);
}

std::size_t TrackManager::total_anomalies(SensorId sensor) const {
  const Sensor* s = sensors_.find(sensor);
  return s == nullptr || s->pooled == nullptr ? 0 : s->pooled->anomalous;
}

std::vector<SensorId> TrackManager::tracked_sensors() const {
  std::vector<SensorId> out;
  sensors_.for_each([&](SensorId id, const Sensor& s) {
    if (!s.tracks.empty()) out.push_back(id);
  });
  return out;
}

std::size_t TrackManager::total_tracks() const {
  std::size_t n = 0;
  sensors_.for_each([&](SensorId, const Sensor& s) { n += s.tracks.size(); });
  return n;
}

void TrackManager::save(serialize::Writer& w) const {
  serialize::tag(w, "tracks");
  std::size_t tracked = 0;
  std::size_t pooled = 0;
  sensors_.for_each([&](SensorId, const Sensor& s) {
    tracked += s.tracks.empty() ? 0 : 1;
    pooled += s.pooled == nullptr ? 0 : 1;
  });
  serialize::put(w, tracked);
  sensors_.for_each([&](SensorId sensor, const Sensor& s) {
    if (s.tracks.empty()) return;
    serialize::put(w, sensor);
    serialize::put(w, s.tracks.size());
    for (const auto& t : s.tracks) {
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
  });
  serialize::put(w, pooled);
  sensors_.for_each([&](SensorId sensor, const Sensor& s) {
    if (s.pooled == nullptr) return;
    serialize::put(w, sensor);
    serialize::put(w, s.pooled->anomalous);
    refreshed_view(*s.pooled).save(w);
  });
  w.newline();
}

TrackManager TrackManager::load(hmm::OnlineHmmConfig hmm_cfg, serialize::Reader& r) {
  serialize::expect(r, "tracks");
  TrackManager tm(hmm_cfg);
  const auto n_sensors = serialize::get<std::size_t>(r);
  AscendingIds tracked;
  for (std::size_t i = 0; i < n_sensors; ++i) {
    const SensorId sensor = tracked.check(serialize::get<SensorId>(r));
    auto& list = tm.sensors_.emplace(sensor).first.tracks;
    const auto n_tracks = serialize::get<std::size_t>(r);
    for (std::size_t t = 0; t < n_tracks; ++t) {
      Track track(hmm_cfg);
      track.opened_window = serialize::get<std::size_t>(r);
      const bool closed = serialize::get_bool(r);
      const auto closed_at = serialize::get<std::size_t>(r);
      if (closed) track.closed_window = closed_at;
      track.observations = serialize::get<std::size_t>(r);
      track.anomalous_observations = serialize::get<std::size_t>(r);
      track.m_ce = hmm::OnlineHmm::load(hmm_cfg, r);
      // tracking() reads only the last track, so an active one before it
      // would hold its slab lane for the manager's lifetime.
      if (!list.empty() && list.back().active()) {
        throw std::runtime_error("checkpoint: sensor " + std::to_string(sensor) +
                                 " has an active track before its last one");
      }
      if (track.active()) {
        // An active track's live state moves into a slab lane; the record's
        // m_ce empties until close() materializes it back out.
        track.lane = tm.slab_.open_lane();
        tm.slab_.adopt(track.lane, track.m_ce);
        track.m_ce = hmm::OnlineHmm(hmm_cfg);
      }
      list.push_back(std::move(track));
    }
  }
  const auto n_aggs = serialize::get<std::size_t>(r);
  AscendingIds pooled;
  for (std::size_t i = 0; i < n_aggs; ++i) {
    Sensor& s = tm.sensors_.emplace(pooled.check(serialize::get<SensorId>(r))).first;
    s.pooled = std::make_unique<Aggregate>(hmm_cfg, tm.slab_.open_lane());
    Aggregate& agg = *s.pooled;
    agg.anomalous = serialize::get<std::size_t>(r);
    agg.view = hmm::OnlineHmm::load(hmm_cfg, r);
    tm.slab_.adopt(agg.lane, agg.view);
    agg.view_dirty = false;  // the loaded object IS the lane's current state
  }
  return tm;
}

}  // namespace sentinel::core
