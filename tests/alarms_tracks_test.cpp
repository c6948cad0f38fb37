// Unit tests: AlarmBank (raw -> filtered alarms, per-sensor filters) and
// TrackManager (error/attack tracks with M_CE, paper section 3.1).

#include <gtest/gtest.h>

#include "core/alarms.h"
#include "core/tracks.h"

namespace sentinel::core {
namespace {

AlarmFilterConfig kofn_cfg(std::size_t k = 3, std::size_t n = 5) {
  AlarmFilterConfig cfg;
  cfg.kind = FilterKind::kKofN;
  cfg.k = k;
  cfg.n = n;
  return cfg;
}

TEST(AlarmBank, EdgesReported) {
  AlarmBank bank(kofn_cfg(2, 3));
  auto u = bank.update(1, true);
  EXPECT_TRUE(u.raw);
  EXPECT_FALSE(u.filtered);
  u = bank.update(1, true);
  EXPECT_TRUE(u.filtered);
  EXPECT_TRUE(u.raised_edge);
  u = bank.update(1, true);
  EXPECT_TRUE(u.filtered);
  EXPECT_FALSE(u.raised_edge);  // already active
  u = bank.update(1, false);
  u = bank.update(1, false);
  EXPECT_FALSE(u.filtered);
  EXPECT_TRUE(u.cleared_edge);
}

TEST(AlarmBank, SensorsIndependent) {
  AlarmBank bank(kofn_cfg(1, 1));
  bank.update(1, true);
  EXPECT_TRUE(bank.filtered_active(1));
  EXPECT_FALSE(bank.filtered_active(2));
  bank.update(2, false);
  EXPECT_FALSE(bank.filtered_active(2));
}

TEST(AlarmBank, CountsRawAlarmsAndWindows) {
  AlarmBank bank(kofn_cfg());
  for (int i = 0; i < 10; ++i) bank.update(4, i % 2 == 0);
  EXPECT_EQ(bank.raw_count(4), 5u);
  EXPECT_EQ(bank.window_count(4), 10u);
  EXPECT_EQ(bank.raw_count(99), 0u);
  EXPECT_EQ(bank.window_count(99), 0u);
}

TEST(AlarmBank, SprtAndCusumKindsWork) {
  for (const FilterKind kind : {FilterKind::kSprt, FilterKind::kCusum}) {
    AlarmFilterConfig cfg;
    cfg.kind = kind;
    AlarmBank bank(cfg);
    bool active = false;
    for (int i = 0; i < 50 && !active; ++i) active = bank.update(0, true).filtered;
    EXPECT_TRUE(active) << "kind " << static_cast<int>(kind);
  }
}

// --- TrackManager ------------------------------------------------------------

hmm::OnlineHmmConfig hmm_cfg() { return {}; }

TEST(TrackManagerTest, OpenObserveClose) {
  TrackManager tm(hmm_cfg());
  EXPECT_FALSE(tm.has_active_track(5));
  tm.open(5, 10);
  EXPECT_TRUE(tm.has_active_track(5));
  tm.observe(5, /*correct=*/1, /*error=*/7);
  tm.observe(5, 1, hmm::kBottomSymbol);
  tm.close(5, 12);
  EXPECT_FALSE(tm.has_active_track(5));

  const auto* tracks = tm.tracks(5);
  ASSERT_NE(tracks, nullptr);
  ASSERT_EQ(tracks->size(), 1u);
  EXPECT_EQ((*tracks)[0].opened_window, 10u);
  EXPECT_EQ((*tracks)[0].closed_window, 12u);
  EXPECT_EQ((*tracks)[0].observations, 2u);
  EXPECT_EQ((*tracks)[0].anomalous_observations, 1u);
  EXPECT_GT((*tracks)[0].m_ce.emission(1, 7), 0.0);
}

TEST(TrackManagerTest, ReopenCreatesNewTrack) {
  TrackManager tm(hmm_cfg());
  tm.open(5, 1);
  tm.close(5, 2);
  tm.open(5, 8);
  const auto* tracks = tm.tracks(5);
  ASSERT_EQ(tracks->size(), 2u);
  EXPECT_TRUE((*tracks)[1].active());
  EXPECT_EQ(tm.total_tracks(), 2u);
}

TEST(TrackManagerTest, DoubleOpenIsNoop) {
  TrackManager tm(hmm_cfg());
  tm.open(5, 1);
  tm.open(5, 3);
  EXPECT_EQ(tm.tracks(5)->size(), 1u);
}

TEST(TrackManagerTest, ObserveWithoutTrackIgnored) {
  TrackManager tm(hmm_cfg());
  tm.observe(5, 1, 2);  // no track: ignored, no crash
  EXPECT_EQ(tm.tracks(5), nullptr);
  tm.close(5, 1);  // close without open: ignored
  EXPECT_TRUE(tm.tracked_sensors().empty());
}

TEST(TrackManagerTest, TracksCountAnomaliesPerTrack) {
  TrackManager tm(hmm_cfg());
  tm.open(5, 1);
  tm.observe(5, 1, 7);
  tm.close(5, 2);
  tm.open(5, 10);
  tm.observe(5, 1, 7);
  tm.observe(5, 1, 8);
  tm.observe(5, 2, 8);
  tm.close(5, 14);
  const auto* tracks = tm.tracks(5);
  ASSERT_NE(tracks, nullptr);
  ASSERT_EQ(tracks->size(), 2u);
  EXPECT_EQ((*tracks)[0].anomalous_observations, 1u);
  EXPECT_EQ((*tracks)[1].opened_window, 10u);
  EXPECT_EQ((*tracks)[1].anomalous_observations, 3u);
  EXPECT_EQ(tm.total_anomalies(5), 4u);
  EXPECT_EQ(tm.tracks(99), nullptr);
}

TEST(TrackManagerTest, TrackedSensors) {
  TrackManager tm(hmm_cfg());
  tm.open(2, 1);
  tm.open(9, 1);
  const auto sensors = tm.tracked_sensors();
  EXPECT_EQ(sensors, (std::vector<SensorId>{2, 9}));
}

}  // namespace
}  // namespace sentinel::core
