// Unit tests: Warrender-style HMM baseline and median-deviation baseline.

#include <gtest/gtest.h>

#include "baseline/median_detector.h"
#include "baseline/warrender.h"
#include "common/scenario.h"
#include "util/rng.h"

namespace sentinel::baseline {
namespace {

// Clean behavior: a deterministic cycle 1 -> 2 -> 3 -> 1 ... with occasional
// stutter, the kind of structure the GDI observable-state sequence has.
std::vector<hmm::StateId> clean_sequence(std::size_t length, std::uint64_t seed) {
  Rng rng(seed, "baseline-clean");
  std::vector<hmm::StateId> seq;
  hmm::StateId cur = 1;
  for (std::size_t i = 0; i < length; ++i) {
    seq.push_back(cur);
    if (!rng.bernoulli(0.3)) cur = cur % 3 + 1;  // advance the cycle
  }
  return seq;
}

TEST(Warrender, TrainsAndScoresCleanDataAboveThreshold) {
  WarrenderDetector det(WarrenderConfig{});
  const auto stats = det.train(clean_sequence(600, 1));
  EXPECT_TRUE(det.trained());
  EXPECT_GT(stats.iterations, 0u);
  EXPECT_EQ(stats.threshold, det.threshold());

  // Fresh clean data mostly scores above eta.
  const auto test = clean_sequence(300, 2);
  const auto flags = det.detect(test);
  std::size_t flagged = 0;
  for (const bool f : flags) flagged += f;
  EXPECT_LT(static_cast<double>(flagged) / static_cast<double>(flags.size()), 0.10);
}

TEST(Warrender, FlagsStructurallyAnomalousSequence) {
  WarrenderDetector det(WarrenderConfig{});
  det.train(clean_sequence(600, 1));

  // Anomaly: the cycle is replaced by an unseen symbol plateau.
  std::vector<hmm::StateId> anomalous(200, 77);
  const auto flags = det.detect(anomalous);
  std::size_t flagged = 0;
  for (const bool f : flags) flagged += f;
  EXPECT_GT(static_cast<double>(flagged) / static_cast<double>(flags.size()), 0.8);
}

TEST(Warrender, AnomalousScoresBelowCleanScores) {
  WarrenderDetector det(WarrenderConfig{});
  det.train(clean_sequence(600, 1));
  const auto clean = clean_sequence(12, 3);
  const std::vector<hmm::StateId> weird{3, 3, 1, 1, 2, 1, 3, 2, 2, 1, 1, 3};
  EXPECT_GT(det.score(clean), det.score(weird) - 5.0);  // sanity: both finite
  const std::vector<hmm::StateId> unseen(12, 99);
  EXPECT_LT(det.score(unseen), det.score(clean));
}

TEST(Warrender, ErrorsBeforeTraining) {
  WarrenderDetector det(WarrenderConfig{});
  EXPECT_THROW(det.score({1, 2, 3}), std::logic_error);
  EXPECT_THROW(det.detect({1, 2, 3}), std::logic_error);
  EXPECT_THROW(det.train({1, 2}), std::invalid_argument);  // shorter than window
}

TEST(MedianDetectorTest, FlagsOutlierSensor) {
  MedianDetector det(MedianDetectorConfig{});
  std::vector<SensorId> ids;
  std::vector<AttrVec> points;
  for (SensorId s = 0; s < 6; ++s) {
    ids.push_back(s);
    points.push_back({20.0 + 0.1 * s, 70.0});
  }
  ids.push_back(6);
  points.push_back({20.0, 5.0});  // humidity outlier

  const auto flags = det.process(bench::make_window(1, 3600.0, ids, points));
  EXPECT_TRUE(flags.at(6));
  for (SensorId s = 0; s < 6; ++s) EXPECT_FALSE(flags.at(s)) << s;
  EXPECT_EQ(det.flags(6), 1u);
  EXPECT_EQ(det.windows(6), 1u);
}

TEST(MedianDetectorTest, SmallWindowsFlagNobody) {
  MedianDetector det(MedianDetectorConfig{});
  const auto flags =
      det.process(bench::make_window(1, 3600.0, {0, 1}, {{1.0, 1.0}, {100.0, 100.0}}));
  EXPECT_FALSE(flags.at(0));
  EXPECT_FALSE(flags.at(1));
}

TEST(MedianDetectorTest, QuietEnvironmentNoFalseFlags) {
  MedianDetector det(MedianDetectorConfig{});
  Rng rng(4, "median-quiet");
  std::size_t false_flags = 0;
  for (int t = 0; t < 200; ++t) {
    std::vector<SensorId> ids;
    std::vector<AttrVec> points;
    for (SensorId s = 0; s < 8; ++s) {
      ids.push_back(s);
      points.push_back({20.0 + rng.gaussian(0, 0.3), 70.0 + rng.gaussian(0, 0.3)});
    }
    const auto w = bench::make_window(1, 3600.0, std::move(ids), std::move(points));
    for (const auto& [id, flagged] : det.process(w)) false_flags += flagged;
  }
  EXPECT_LT(false_flags, 10u);
}

TEST(MedianDetectorTest, Validation) {
  MedianDetectorConfig bad;
  bad.k = 0.0;
  EXPECT_THROW(MedianDetector{bad}, std::invalid_argument);
}

}  // namespace
}  // namespace sentinel::baseline
