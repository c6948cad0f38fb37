// Tests: the two-tier FleetMonitor (cluster heads + base station) and the
// cross-region structural check.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "core/fleet.h"
#include "faults/attack_models.h"
#include "faults/fault_models.h"
#include "faults/injection_plan.h"
#include "sim/simulator.h"

namespace sentinel::core {
namespace {

class CycleEnvironment final : public sim::Environment {
 public:
  std::size_t dims() const override { return 2; }
  AttrVec truth(double t) const override {
    const auto phase = static_cast<long>(t / (3.0 * kSecondsPerHour));
    return (phase % 2 == 0) ? AttrVec{10.0, 60.0} : AttrVec{30.0, 40.0};
  }
};

PipelineConfig region_config() {
  PipelineConfig cfg;
  cfg.window_seconds = kSecondsPerHour;
  cfg.initial_states = {{10.0, 60.0}, {30.0, 40.0}};
  return cfg;
}

std::vector<SensorRecord> simulate_region(const sim::Environment& env, double duration,
                                          std::uint64_t seed,
                                          std::shared_ptr<faults::InjectionPlan> plan = nullptr) {
  sim::Simulator s(env);
  for (std::size_t i = 0; i < 6; ++i) {
    sim::MoteConfig mc;
    mc.id = static_cast<SensorId>(i);
    mc.noise_sigma = 0.3;
    mc.seed = seed;
    s.add_mote(mc);
  }
  if (plan) s.set_transform(faults::make_transform(plan));
  return s.run(duration).trace;
}

TEST(Fleet, RoutesRecordsAndAggregatesVerdicts) {
  const CycleEnvironment env;
  FleetMonitor fleet;
  fleet.add_region("north", region_config());
  fleet.add_region("south", region_config());

  for (const auto& r : simulate_region(env, 2.0 * kSecondsPerDay, 1)) {
    fleet.add_record("north", r);
  }
  auto plan = std::make_shared<faults::InjectionPlan>();
  plan->add(2, std::make_unique<faults::StuckAtFault>(AttrVec{20.0, 5.0}),
            0.5 * kSecondsPerDay);
  for (const auto& r : simulate_region(env, 2.0 * kSecondsPerDay, 2, plan)) {
    fleet.add_record("south", r);
  }
  fleet.finish();

  EXPECT_EQ(fleet.region_names(), (std::vector<std::string>{"north", "south"}));
  EXPECT_GT(fleet.region("north").windows_processed(), 40u);

  const auto report = fleet.diagnose();
  EXPECT_EQ(report.overall, Verdict::kError);  // south's stuck sensor
  EXPECT_EQ(report.regions.at("north").network.verdict, Verdict::kNormal);
  ASSERT_TRUE(report.regions.at("south").sensors.count(2));
  EXPECT_EQ(report.regions.at("south").sensors.at(2).kind, AnomalyKind::kStuckAt);
  const auto s = to_string(report);
  EXPECT_NE(s.find("[region south] sensor 2"), std::string::npos);
}

TEST(Fleet, ValidatesRegionNames) {
  FleetMonitor fleet;
  fleet.add_region("a", region_config());
  EXPECT_THROW(fleet.add_region("a", region_config()), std::invalid_argument);
  EXPECT_THROW(fleet.add_record("missing", {0, 0.0, {1.0, 2.0}}), std::invalid_argument);
  EXPECT_THROW(fleet.region("missing"), std::invalid_argument);
  EXPECT_THROW(FleetMonitor{0.0}, std::invalid_argument);
}

TEST(Fleet, StructuralOutlierWhenRegionModelDiverges) {
  // Three regions observe the same environment; in one of them a MAJORITY
  // of sensors is compromised with a change attack, so its own internal
  // majority check is defeated and its learned M_C diverges -- the fleet
  // tier catches it by cross-region comparison.
  const CycleEnvironment env;
  FleetMonitor fleet(/*state_match_tol=*/6.0);
  for (const char* name : {"a", "b", "c"}) fleet.add_region(name, region_config());

  for (const auto& r : simulate_region(env, 3.0 * kSecondsPerDay, 1)) fleet.add_record("a", r);
  for (const auto& r : simulate_region(env, 3.0 * kSecondsPerDay, 2)) fleet.add_record("b", r);

  auto plan = std::make_shared<faults::InjectionPlan>();
  for (SensorId s = 0; s < 5; ++s) {  // 5 of 6 sensors compromised
    faults::ChangeAttackConfig ac;
    ac.victim = faults::StateRegion{{30.0, 40.0}, 8.0};
    ac.observed_as = {55.0, 20.0};
    ac.fraction = 5.0 / 6.0;
    plan->add(s, std::make_unique<faults::DynamicChangeAttack>(ac), 0.0);
  }
  for (const auto& r : simulate_region(env, 3.0 * kSecondsPerDay, 3, plan)) {
    fleet.add_record("c", r);
  }
  fleet.finish();

  const auto report = fleet.diagnose();
  ASSERT_EQ(report.structural_outliers.size(), 1u);
  EXPECT_EQ(report.structural_outliers[0], "c");
}

TEST(Fleet, NoOutliersWhenAllAgree) {
  const CycleEnvironment env;
  FleetMonitor fleet;
  for (const char* name : {"a", "b", "c"}) fleet.add_region(name, region_config());
  std::uint64_t seed = 10;
  for (const char* name : {"a", "b", "c"}) {
    for (const auto& r : simulate_region(env, 2.0 * kSecondsPerDay, seed++)) {
      fleet.add_record(name, r);
    }
  }
  fleet.finish();
  const auto report = fleet.diagnose();
  EXPECT_TRUE(report.structural_outliers.empty());
  EXPECT_EQ(report.overall, Verdict::kNormal);
}

TEST(Fleet, RegionRestoredFromCheckpointContinues) {
  const CycleEnvironment env;
  const auto trace = simulate_region(env, 2.0 * kSecondsPerDay, 4);

  // Reference region, uninterrupted.
  FleetMonitor reference;
  reference.add_region("r", region_config());
  for (const auto& rec : trace) reference.add_record("r", rec);
  reference.finish();

  // Interrupted region: first day, checkpoint, restore into a new fleet.
  FleetMonitor before;
  before.add_region("r", region_config());
  for (const auto& rec : trace) {
    if (rec.time < kSecondsPerDay) before.add_record("r", rec);
  }
  before.drain();  // the producer batch reaches the pipeline
  std::stringstream ckpt;
  before.region("r").save_checkpoint(ckpt);

  FleetMonitor after;
  after.add_region("r", region_config(), ckpt);
  for (const auto& rec : trace) {
    if (rec.time >= kSecondsPerDay) after.add_record("r", rec);
  }
  after.finish();

  // The partial window in flight at the checkpoint seam is dropped (the
  // documented contract: checkpoint at window boundaries), so the restored
  // chain may be short by exactly that one transition.
  EXPECT_NEAR(static_cast<double>(after.region("r").m_c().total_transitions()),
              static_cast<double>(reference.region("r").m_c().total_transitions()), 1.0);
  EXPECT_EQ(after.diagnose().overall, Verdict::kNormal);
}

TEST(ModelsStructurallySimilar, MatchesByCentroidNotId) {
  hmm::MarkovChain a, b;
  a.add_sequence({0, 1, 0, 1});
  b.add_sequence({7, 9, 7, 9});  // different ids, same physical states
  const CentroidLookup la = [](hmm::StateId id) -> std::optional<AttrVec> {
    if (id == 0) return AttrVec{10.0, 60.0};
    if (id == 1) return AttrVec{30.0, 40.0};
    return std::nullopt;
  };
  const CentroidLookup lb = [](hmm::StateId id) -> std::optional<AttrVec> {
    if (id == 7) return AttrVec{11.0, 59.0};
    if (id == 9) return AttrVec{29.0, 41.0};
    return std::nullopt;
  };
  EXPECT_TRUE(models_structurally_similar(a, la, b, lb, 4.0));
  EXPECT_FALSE(models_structurally_similar(a, la, b, lb, 1.0));

  // Extra unmatched state in b breaks similarity.
  hmm::MarkovChain b2 = b;
  b2.add_visit(12);
  const CentroidLookup lb2 = [&lb](hmm::StateId id) -> std::optional<AttrVec> {
    if (id == 12) return AttrVec{80.0, 10.0};
    return lb(id);
  };
  EXPECT_FALSE(models_structurally_similar(a, la, b2, lb2, 4.0));
}

}  // namespace
}  // namespace sentinel::core
