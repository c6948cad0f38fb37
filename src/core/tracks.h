// Error/Attack Track Management (paper section 3.1).
//
// One error/attack track per misbehaving sensor: a track opens when the
// sensor's filtered alarm b^j is raised and closes when it clears. While a
// track is active, each window contributes an error/attack state
//   e_i = l_j           when the sensor disagrees with the correct state,
//   e_i = bottom        when it (momentarily) agrees,
// and the pair (c_i, e_i) feeds the track's online HMM M_CE, whose emission
// matrix B^CE the classifier inspects for the error-type signatures.
//
// Storage: while a track is active its M_CE (and the sensor's pooled
// aggregate M_CE) live in an OnlineHmmSlab lane -- contiguous
// struct-of-arrays storage shared by every tracked sensor; observe() steps
// both lanes in place. Closing a track materializes the lane into the
// Track's `m_ce`, which from then on is the authoritative copy; an ACTIVE
// track's `m_ce` member is empty -- readers of live per-sensor evidence go
// through combined_m_ce(), which materializes the aggregate lane on demand
// behind a dirty flag.

#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "hmm/hmm_slab.h"
#include "hmm/online_hmm.h"
#include "trace/record.h"
#include "trace/sensor_table.h"
#include "util/serialize_fwd.h"

namespace sentinel::core {

struct Track {
  std::size_t opened_window = 0;
  std::optional<std::size_t> closed_window;  // nullopt = still active
  // Authoritative once the track closes; empty while the track is active
  // (live state is in the TrackManager's slab lane).
  hmm::OnlineHmm m_ce;
  std::size_t observations = 0;        // windows fed (incl. bottom)
  std::size_t anomalous_observations = 0;  // windows with e != bottom
  std::uint32_t lane = hmm::OnlineHmmSlab::kNoLane;  // slab lane while active

  explicit Track(hmm::OnlineHmmConfig cfg) : m_ce(cfg) {}

  bool active() const { return !closed_window.has_value(); }
};

class TrackManager {
 public:
  explicit TrackManager(hmm::OnlineHmmConfig hmm_cfg)
      : hmm_cfg_(hmm_cfg), slab_(hmm_cfg) {}

  TrackManager(const TrackManager&) = delete;
  TrackManager& operator=(const TrackManager&) = delete;
  TrackManager(TrackManager&&) = default;
  TrackManager& operator=(TrackManager&&) = default;

  /// Open a track for `sensor` at `window` (no-op if one is already active).
  void open(SensorId sensor, std::size_t window);

  /// Close the active track, if any: its M_CE materializes out of the slab
  /// into the Track record and the lane is recycled.
  void close(SensorId sensor, std::size_t window);

  bool has_active_track(SensorId sensor) const;

  /// Feed one window's (c_i, e_i) to the sensor's active track.
  /// e = hmm::kBottomSymbol when the sensor agrees with the correct state.
  void observe(SensorId sensor, hmm::StateId correct, hmm::StateId error_state);

  /// All tracks (closed and active) of a sensor, in open order. An active
  /// track's `m_ce` member is empty -- see combined_m_ce() for live state.
  const std::vector<Track>* tracks(SensorId sensor) const;

  /// Per-sensor evidence aggregated across ALL of the sensor's tracks: an
  /// intermittent fault (or a duty-cycled / state-gated attack) opens many
  /// short tracks, and the B^CE signature only becomes readable once their
  /// observations are pooled. The view is materialized from the slab lane
  /// on first call after an observe (mutex-guarded, safe under the
  /// pipeline's concurrent const-read contract).
  const hmm::OnlineHmm* combined_m_ce(SensorId sensor) const;
  std::size_t total_anomalies(SensorId sensor) const;

  /// Sensors that ever had a track.
  std::vector<SensorId> tracked_sensors() const;

  std::size_t total_tracks() const;

  /// The lane storage of every active track and pooled aggregate, for its
  /// repack count (see OnlineHmmSlab).
  const hmm::OnlineHmmSlab& slab() const { return slab_; }

  /// Checkpointing: every track (with its M_CE) and per-sensor aggregates.
  /// Active-lane state materializes on the way out, so the bytes are
  /// identical to what per-object storage would have written. load()
  /// requires the same OnlineHmmConfig the saved instance had.
  void save(serialize::Writer& w) const;
  static TrackManager load(hmm::OnlineHmmConfig hmm_cfg, serialize::Reader& r);

 private:
  struct Aggregate {
    std::uint32_t lane;
    std::size_t anomalous = 0;
    // Lazily materialized snapshot of the slab lane, refreshed behind the
    // dirty flag on const reads (combined_m_ce, save).
    mutable hmm::OnlineHmm view;
    mutable bool view_dirty = true;
    mutable std::mutex view_mu;

    Aggregate(hmm::OnlineHmmConfig cfg, std::uint32_t l) : lane(l), view(cfg) {}
  };

  /// A sensor's record: its tracks, of which only the last can be active,
  /// and its pooled M_CE from the first observe on. The aggregate lives out
  /// of line so the table's dense vector stays small.
  struct Sensor {
    std::vector<Track> tracks;
    std::unique_ptr<Aggregate> pooled;

    bool tracking() const { return !tracks.empty() && tracks.back().active(); }
  };

  const hmm::OnlineHmm& refreshed_view(const Aggregate& agg) const;

  hmm::OnlineHmmConfig hmm_cfg_;
  hmm::OnlineHmmSlab slab_;
  SensorTable<Sensor> sensors_;
};

}  // namespace sentinel::core
