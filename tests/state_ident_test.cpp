// Unit tests: observable / correct state identification (paper eqs. (2)-(4))
// including the worked example of the paper's Figs. 3 and 4.

#include <gtest/gtest.h>

#include "core/state_ident.h"

#include <map>

#include "common/scenario.h"

namespace sentinel::core {
namespace {

ModelStateConfig cfg() {
  ModelStateConfig c;
  c.merge_threshold = 1.0;
  c.spawn_threshold = 100.0;
  return c;
}

ObservationSet window_of(const std::map<SensorId, AttrVec>& reps) {
  std::vector<SensorId> ids;
  std::vector<AttrVec> points;
  for (const auto& [id, p] : reps) {
    ids.push_back(id);
    points.push_back(p);
  }
  return bench::make_window(1, 3600.0, std::move(ids), std::move(points));
}

TEST(StateIdent, PaperFigureFourExample) {
  // Five states; observations p1..p4 cluster at s0, p5 near s3, p6 near s4.
  // Expected: correct state = s0 (largest cluster), sensors 5 and 6 map
  // elsewhere (they get raw alarms in the pipeline).
  ModelStateSet states(cfg(), {{0.0, 0.0}, {10.0, 0.0}, {20.0, 0.0}, {30.0, 0.0}, {40.0, 0.0}});
  const auto w = window_of({
      {1, {0.2, 0.1}},
      {2, {-0.3, 0.2}},
      {3, {0.1, -0.2}},
      {4, {0.4, 0.0}},
      {5, {29.7, 0.1}},
      {6, {40.2, -0.1}},
  });
  const WindowStates ws = identify_states(w, states);
  EXPECT_EQ(ws.correct, 0u);
  EXPECT_EQ(ws.majority_size, 4u);
  EXPECT_EQ(ws.mapped(1), 0u);
  EXPECT_EQ(ws.mapped(5), 3u);
  EXPECT_EQ(ws.mapped(6), 4u);
  EXPECT_EQ(ws.sensors, 6u);
}

TEST(StateIdent, ObservableIsNearestToOverallMean) {
  // Mean of {(0,0) x4, (30,0), (40,0)} = (11.7, 0) -> nearest state s1 (10,0):
  // the paper's eq. (2) uses ALL observations, corrupted ones included.
  ModelStateSet states(cfg(), {{0.0, 0.0}, {10.0, 0.0}, {20.0, 0.0}, {30.0, 0.0}, {40.0, 0.0}});
  const auto w = window_of({
      {1, {0.0, 0.0}},
      {2, {0.0, 0.0}},
      {3, {0.0, 0.0}},
      {4, {0.0, 0.0}},
      {5, {30.0, 0.0}},
      {6, {40.0, 0.0}},
  });
  const WindowStates ws = identify_states(w, states);
  EXPECT_EQ(ws.observable, 1u);
  EXPECT_EQ(ws.correct, 0u);  // majority still wins eq. (4)
}

TEST(StateIdent, AllAgreeing) {
  ModelStateSet states(cfg(), {{0.0, 0.0}, {10.0, 0.0}});
  const auto w = window_of({{1, {0.1, 0.0}}, {2, {-0.1, 0.0}}});
  const WindowStates ws = identify_states(w, states);
  EXPECT_EQ(ws.correct, 0u);
  EXPECT_EQ(ws.observable, 0u);
  EXPECT_EQ(ws.majority_size, 2u);
}

TEST(StateIdent, TieBreaksTowardObservableState) {
  // Two clusters of equal size; the one agreeing with the network-level
  // observable state wins (deterministic rule documented in state_ident.h).
  ModelStateSet states(cfg(), {{0.0, 0.0}, {10.0, 0.0}});
  const auto w = window_of({
      {1, {0.0, 0.0}},
      {2, {0.5, 0.0}},
      {3, {10.0, 0.0}},
      {4, {9.5, 0.0}},
  });
  // Overall mean = (5, 0): equidistant -> map picks the first (state 0).
  const WindowStates ws = identify_states(w, states);
  EXPECT_EQ(ws.correct, ws.observable);
  EXPECT_EQ(ws.majority_size, 2u);
}

TEST(StateIdent, EmptyWindowThrows) {
  ModelStateSet states(cfg(), {{0.0, 0.0}});
  ObservationSet w;
  EXPECT_THROW(identify_states(w, states), std::invalid_argument);
}

TEST(StateIdent, SingleSensorWindow) {
  ModelStateSet states(cfg(), {{0.0, 0.0}, {10.0, 0.0}});
  const auto w = window_of({{3, {9.0, 0.0}}});
  const WindowStates ws = identify_states(w, states);
  EXPECT_EQ(ws.correct, 1u);
  EXPECT_EQ(ws.observable, 1u);
  EXPECT_EQ(ws.mapped(3), 1u);
}

}  // namespace
}  // namespace sentinel::core
