// Unit tests: Model State Identification (paper eqs. (3), (5), (6)) --
// mapping, EMA centroid update, merge, spawn, id stability -- plus offline
// k-means for the initial estimate.

#include <gtest/gtest.h>


#include "core/model_states.h"
#include "core/offline_kmeans.h"
#include "text_codec.h"

namespace sentinel::core {
namespace {

ModelStateConfig config(double alpha = 0.1, double merge = 2.0, double spawn = 10.0) {
  ModelStateConfig cfg;
  cfg.alpha = alpha;
  cfg.merge_threshold = merge;
  cfg.spawn_threshold = spawn;
  return cfg;
}

TEST(ModelStateSet, Validation) {
  EXPECT_THROW(ModelStateSet(config(), {}), std::invalid_argument);
  EXPECT_THROW(ModelStateSet(config(1.5), {{0.0, 0.0}}), std::invalid_argument);
  ModelStateConfig bad = config();
  bad.spawn_threshold = bad.merge_threshold;  // spawn must exceed merge
  EXPECT_THROW(ModelStateSet(bad, {{0.0, 0.0}}), std::invalid_argument);
  EXPECT_THROW(ModelStateSet(config(), {{0.0, 0.0}, {1.0}}), std::invalid_argument);
}

TEST(ModelStateSet, MapsToNearestState) {
  ModelStateSet s(config(), {{0.0, 0.0}, {10.0, 0.0}, {0.0, 10.0}});
  EXPECT_EQ(s.map({1.0, 1.0}), 0u);
  EXPECT_EQ(s.map({9.0, 1.0}), 1u);
  EXPECT_EQ(s.map({1.0, 9.0}), 2u);
}

TEST(ModelStateSet, EmaUpdateFollowsEquationSix) {
  ModelStateSet s(config(0.1), {{0.0, 0.0}, {100.0, 100.0}});
  // Two points map to state 0 with mean (2, 4).
  s.update({{1.0, 3.0}, {3.0, 5.0}});
  const auto c = s.centroid(0);
  ASSERT_TRUE(c.has_value());
  EXPECT_NEAR((*c)[0], 0.9 * 0.0 + 0.1 * 2.0, 1e-12);
  EXPECT_NEAR((*c)[1], 0.1 * 4.0, 1e-12);
  // State 1 had no points: untouched.
  EXPECT_EQ(*s.centroid(1), (AttrVec{100.0, 100.0}));
}

TEST(ModelStateSet, SpawnsForFarObservations) {
  ModelStateSet s(config(), {{0.0, 0.0}});
  const auto created = s.maybe_spawn({{50.0, 50.0}, {0.5, 0.5}});
  ASSERT_EQ(created.size(), 1u);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(*s.centroid(created[0]), (AttrVec{50.0, 50.0}));
  EXPECT_EQ(s.spawn_count(), 1u);
  // The new state is immediately mappable.
  EXPECT_EQ(s.map({49.0, 51.0}), created[0]);
}

TEST(ModelStateSet, SpawnRespectsMaxStates) {
  ModelStateConfig cfg = config();
  cfg.max_states = 2;
  ModelStateSet s(cfg, {{0.0, 0.0}});
  s.maybe_spawn({{50.0, 50.0}, {-50.0, -50.0}});
  EXPECT_EQ(s.size(), 2u);  // second spawn suppressed by the cap
}

TEST(ModelStateSet, MergesCloseStatesKeepingOlderId) {
  ModelStateSet s(config(0.5, /*merge=*/3.0, /*spawn=*/50.0), {{0.0, 0.0}, {4.0, 0.0}});
  // Pull state 1 toward state 0: points near (1,0) map to... (1,0) is closer
  // to state 0 (dist 1) than state 1 (dist 3). Use points at (3,0) instead:
  // closer to state 1 (dist 1). EMA moves state 1 to (3.5, 0), within merge
  // distance of state 0 after another update toward (1.5, 0).
  s.update({{3.0, 0.0}});  // state 1 -> (3.5, 0)
  ASSERT_EQ(s.size(), 2u);
  s.update({{2.0, 0.0}});  // maps to state 1 (dist 1.5 vs 2) -> (2.75, 0): merge
  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(s.merge_count(), 1u);
  EXPECT_TRUE(s.is_active(0));
  EXPECT_FALSE(s.is_active(1));
  // Merged id resolves to the survivor and keeps a historical centroid.
  EXPECT_EQ(s.resolve(1), 0u);
  EXPECT_TRUE(s.centroid(1).has_value());
}

TEST(ModelStateSet, ChainedMergesResolveToFinalSurvivor) {
  // C (id 2) merges into B (id 1), then B merges into A (id 0): resolve()
  // must path-compress the chain so both 1 and 2 resolve straight to 0.
  ModelStateSet s(config(0.9, /*merge=*/3.0, /*spawn=*/50.0),
                  {{0.0, 0.0}, {10.0, 0.0}, {12.0, 0.0}});
  s.update({{11.0, 0.0}});  // drags state 1 to ~10.9 -> within 3 of state 2: merge 2->1
  ASSERT_EQ(s.merge_count(), 1u);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s.resolve(2), 1u);
  // Walk state 1 toward state 0 until they merge too.
  s.update({{6.0, 0.0}});
  s.update({{4.0, 0.0}});
  s.update({{2.7, 0.0}});  // state 1 lands within 3 of state 0: merge 1->0
  ASSERT_EQ(s.merge_count(), 2u);
  ASSERT_EQ(s.size(), 1u);
  EXPECT_TRUE(s.is_active(0));
  EXPECT_FALSE(s.is_active(1));
  EXPECT_FALSE(s.is_active(2));
  // The whole chain resolves to the final survivor, not one hop.
  EXPECT_EQ(s.resolve(1), 0u);
  EXPECT_EQ(s.resolve(2), 0u);
  EXPECT_EQ(s.resolve(0), 0u);
  // And the resolution survives a checkpoint round trip (the memo is derived
  // state, rebuilt from the raw lineage on load).
  const ModelStateSet loaded =
      ModelStateSet::load(config(0.9, 3.0, 50.0), test::ReaderOver(test::text_bytes(s)));
  EXPECT_EQ(loaded.resolve(2), 0u);
  EXPECT_EQ(loaded.resolve(1), 0u);
  EXPECT_EQ(loaded.merge_count(), 2u);
}

TEST(ModelStateSet, CentroidUnknownIdIsNullopt) {
  ModelStateSet s(config(), {{0.0, 0.0}});
  EXPECT_FALSE(s.centroid(42).has_value());
  EXPECT_EQ(s.resolve(42), 42u);  // never merged: identity
}

TEST(ModelStateSet, StuckSensorRegimeGetsOwnState) {
  // The paper's story: a humidity channel stuck near (15, 1) must become a
  // model state of its own, far from the environment states.
  ModelStateSet s(config(0.1, 4.0, 8.0),
                  {{12.0, 94.0}, {17.0, 84.0}, {24.0, 70.0}, {31.0, 56.0}});
  const auto created = s.maybe_spawn({{15.0, 1.0}});
  ASSERT_EQ(created.size(), 1u);
  EXPECT_EQ(s.map({15.5, 2.0}), created[0]);
  EXPECT_EQ(s.size(), 5u);
}

TEST(OfflineKmeans, RecoversWellSeparatedClusters) {
  std::vector<AttrVec> pts;
  Rng rng(4, "kmeans-test");
  const std::vector<AttrVec> centers{{0.0, 0.0}, {20.0, 0.0}, {0.0, 20.0}};
  for (int i = 0; i < 300; ++i) {
    const auto& c = centers[i % 3];
    pts.push_back({c[0] + rng.gaussian(0, 0.5), c[1] + rng.gaussian(0, 0.5)});
  }
  const auto result = kmeans(pts, 3, rng);
  ASSERT_EQ(result.centroids.size(), 3u);
  // Each true center must be within 1.0 of some learned centroid.
  for (const auto& c : centers) {
    double best = 1e9;
    for (const auto& k : result.centroids) best = std::min(best, vecn::dist(c, k));
    EXPECT_LT(best, 1.0);
  }
  EXPECT_LT(result.inertia / 300.0, 1.0);
}

TEST(OfflineKmeans, Validation) {
  Rng rng(1);
  EXPECT_THROW(kmeans({}, 2, rng), std::invalid_argument);
  EXPECT_THROW(kmeans({{1.0}}, 0, rng), std::invalid_argument);
  EXPECT_THROW(kmeans({{1.0}}, 2, rng), std::invalid_argument);
}

TEST(OfflineKmeans, RandomInitialStatesInBoundingBox) {
  Rng rng(2);
  const std::vector<AttrVec> pts{{0.0, 10.0}, {5.0, 20.0}};
  const auto init = random_initial_states(pts, 4, rng);
  ASSERT_EQ(init.size(), 4u);
  for (const auto& c : init) {
    EXPECT_GE(c[0], 0.0);
    EXPECT_LE(c[0], 5.0);
    EXPECT_GE(c[1], 10.0);
    EXPECT_LE(c[1], 20.0);
  }
}

}  // namespace
}  // namespace sentinel::core
