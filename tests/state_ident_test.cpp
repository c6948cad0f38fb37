// Unit tests: observable / correct state identification (paper eqs. (2)-(4))
// including the worked example of the paper's Figs. 3 and 4, and the vote of
// a screened bloc.

#include <gtest/gtest.h>

#include "core/state_ident.h"

#include <map>
#include <vector>

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

TEST(StateIdent, BlocVotesWithItsWeight) {
  // A screened bloc is known only by its mean: it is mapped once, its
  // cluster gains the bloc's weight in eq. (4), it adds no l_j, and its slot
  // follows the representatives' for the eq. (5) update. Two escalated
  // sensors at s1 lose to a bloc of three at s0 and beat a bloc of one.
  ModelStateSet states(cfg(), {{0.0, 0.0}, {10.0, 0.0}});
  const std::vector<SensorId> sensors{4, 7};
  const std::vector<AttrVec> points{{10.2, 0.0}, {9.9, 0.0}};
  const AttrVec bloc{0.1, 0.0};
  WindowStates ws;
  StateIdentScratch scratch;

  identify_states_into(sensors, points, states, AttrVec{4.08, 0.0}, ws, scratch, {}, bloc, 3);
  EXPECT_EQ(ws.correct, 0u);
  EXPECT_EQ(ws.observable, 0u);
  EXPECT_EQ(ws.majority_size, 3u);
  EXPECT_EQ(ws.sensors, 5u);
  ASSERT_EQ(ws.mapping.size(), 2u);
  EXPECT_EQ(ws.mapped(4), 1u);
  EXPECT_EQ(ws.mapped(7), 1u);
  EXPECT_EQ(scratch.point_slots, (std::vector<std::size_t>{1, 1, 0}));

  identify_states_into(sensors, points, states, AttrVec{6.73, 0.0}, ws, scratch, {}, bloc, 1);
  EXPECT_EQ(ws.correct, 1u);
  EXPECT_EQ(ws.majority_size, 2u);
  EXPECT_EQ(ws.sensors, 3u);
}

TEST(StateIdent, EveryoneScreenedVotesThroughTheBloc) {
  // With every sensor screened there is no representative and no l_j; the
  // bloc alone decides c_i.
  ModelStateSet states(cfg(), {{0.0, 0.0}, {10.0, 0.0}});
  const AttrVec mean{9.5, 0.0};
  WindowStates ws;
  StateIdentScratch scratch;
  identify_states_into({}, {}, states, mean, ws, scratch, {}, mean, 6);
  EXPECT_TRUE(ws.mapping.empty());
  EXPECT_EQ(ws.correct, 1u);
  EXPECT_EQ(ws.observable, 1u);
  EXPECT_EQ(ws.majority_size, 6u);
  EXPECT_EQ(ws.sensors, 6u);
  EXPECT_EQ(scratch.point_slots, (std::vector<std::size_t>{1}));
}

}  // namespace
}  // namespace sentinel::core
