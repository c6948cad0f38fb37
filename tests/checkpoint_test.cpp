// Checkpoint/restore tests: every component round-trips exactly, and a
// pipeline restored mid-deployment continues to the same diagnosis as one
// that ran uninterrupted.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "faults/fault_models.h"
#include "faults/injection_plan.h"
#include "hmm/markov_chain.h"
#include "hmm/online_hmm.h"
#include "sim/simulator.h"
#include "util/serialize.h"

namespace sentinel {
namespace {

TEST(Checkpoint, OnlineHmmRoundTripExact) {
  hmm::OnlineHmmConfig cfg;
  cfg.beta = 0.7;
  cfg.gamma = 0.85;
  hmm::OnlineHmm m(cfg);
  std::uint64_t x = 99;
  for (int i = 0; i < 300; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    m.observe(static_cast<hmm::StateId>((x >> 33) % 5),
              (x >> 17) % 7 == 0 ? hmm::kBottomSymbol
                                 : static_cast<hmm::StateId>((x >> 17) % 7));
  }
  std::stringstream ss;
  m.save(ss);
  const auto loaded = hmm::OnlineHmm::load(cfg, ss);

  EXPECT_EQ(loaded.steps(), m.steps());
  EXPECT_EQ(loaded.hidden_states(), m.hidden_states());
  EXPECT_EQ(loaded.symbols(), m.symbols());
  EXPECT_EQ(loaded.last_hidden(), m.last_hidden());
  EXPECT_DOUBLE_EQ(loaded.transition_matrix().max_abs_diff(m.transition_matrix()), 0.0);
  EXPECT_DOUBLE_EQ(loaded.emission_matrix().max_abs_diff(m.emission_matrix()), 0.0);
  EXPECT_DOUBLE_EQ(loaded.emission_matrix_avg().max_abs_diff(m.emission_matrix_avg()), 0.0);
  EXPECT_EQ(loaded.symbol_totals(), m.symbol_totals());

  // A loaded model keeps learning identically to the original.
  hmm::OnlineHmm original_copy = m;
  hmm::OnlineHmm restored = loaded;
  original_copy.observe(2, 3);
  restored.observe(2, 3);
  EXPECT_DOUBLE_EQ(
      restored.emission_matrix().max_abs_diff(original_copy.emission_matrix()), 0.0);
}

TEST(Checkpoint, OnlineHmmRejectsGarbage) {
  std::stringstream ss("not-a-checkpoint 1 2 3");
  EXPECT_THROW(hmm::OnlineHmm::load({}, ss), std::runtime_error);
  std::stringstream truncated("online-hmm\n3 1 2 3");
  EXPECT_THROW(hmm::OnlineHmm::load({}, truncated), std::runtime_error);
}

/// An online-hmm record written field by field in save()'s order: six hidden
/// states 0..5, two symbols, the previous state 5. The defaults are a valid
/// checkpoint; tests swap in shapes save() never writes.
struct OnlineHmmRecord {
  static constexpr std::size_t kHidden = 6;
  static constexpr std::size_t kSymbols = 2;
  Matrix a_avg{kHidden, kHidden};
  Matrix b_avg{kHidden, kSymbols};
  hmm::StateId last = 5;

  std::string bytes() const {
    std::ostringstream os;
    serialize::TextWriter w(os);
    serialize::tag(w, "online-hmm");
    std::vector<hmm::StateId> hidden(kHidden);
    for (std::size_t i = 0; i < kHidden; ++i) hidden[i] = static_cast<hmm::StateId>(i);
    serialize::put_vector(w, hidden);
    serialize::put_vector(w, std::vector<hmm::StateId>{10, 11});
    Matrix a(kHidden, kHidden);
    Matrix b(kHidden, kSymbols);
    for (std::size_t i = 0; i < kHidden; ++i) {
      a(i, i) = 1.0;
      b(i, 0) = 1.0;
    }
    serialize::put_matrix(w, a);
    serialize::put_matrix(w, b);
    serialize::put_matrix(w, a_avg);
    serialize::put_matrix(w, b_avg);
    serialize::put_vector(w, std::vector<double>(kHidden, 0.0));
    serialize::put_vector(w, std::vector<double>(kHidden, 0.0));
    serialize::put_vector(w, std::vector<double>(kSymbols, 0.0));
    serialize::put(w, true);
    serialize::put(w, last);
    serialize::put(w, std::size_t{0});
    w.newline();
    return os.str();
  }
};

hmm::OnlineHmm load_record(const OnlineHmmRecord& rec) {
  std::istringstream is(rec.bytes());
  return hmm::OnlineHmm::load({}, is);
}

TEST(Checkpoint, OnlineHmmRejectsWrongShapedCountsAndUnknownLastState) {
  // The well-formed record loads and keeps learning from state 5.
  hmm::OnlineHmm ok = load_record(OnlineHmmRecord{});
  ok.observe(4, 10);
  EXPECT_EQ(ok.transition_matrix_avg()(5, 4), 1.0);

  // Count matrices that are not h x h / h x |symbols|: observe() indexes
  // them by hidden and symbol position, past the row of a narrow matrix (or
  // through a null buffer when it has no columns).
  for (const std::size_t cols : {std::size_t{0}, std::size_t{1}}) {
    OnlineHmmRecord narrow_a;
    narrow_a.a_avg = Matrix(OnlineHmmRecord::kHidden, cols);
    EXPECT_THROW(load_record(narrow_a), std::runtime_error) << "a_avg cols " << cols;
    OnlineHmmRecord narrow_b;
    narrow_b.b_avg = Matrix(OnlineHmmRecord::kHidden, cols);
    EXPECT_THROW(load_record(narrow_b), std::runtime_error) << "b_avg cols " << cols;
  }
  OnlineHmmRecord wide_a;
  wide_a.a_avg = Matrix(OnlineHmmRecord::kHidden, OnlineHmmRecord::kHidden + 1);
  EXPECT_THROW(load_record(wide_a), std::runtime_error);

  // A previous state that is not one of the hidden ids has no row to update.
  OnlineHmmRecord stray_last;
  stray_last.last = 7;
  EXPECT_THROW(load_record(stray_last), std::runtime_error);
}

TEST(Checkpoint, MarkovChainRoundTrip) {
  hmm::MarkovChain mc;
  mc.add_sequence({5, 9, 5, 5, 9, 2, 5});
  std::stringstream ss;
  mc.save(ss);
  const auto loaded = hmm::MarkovChain::load(ss);
  EXPECT_EQ(loaded.states(), mc.states());
  EXPECT_EQ(loaded.total_transitions(), mc.total_transitions());
  EXPECT_EQ(loaded.visit_count(5), mc.visit_count(5));
  EXPECT_EQ(loaded.transition_count(5, 9), mc.transition_count(5, 9));
  EXPECT_DOUBLE_EQ(loaded.transition_matrix().max_abs_diff(mc.transition_matrix()), 0.0);
}

TEST(Checkpoint, ModelStateSetRoundTrip) {
  core::ModelStateConfig cfg;
  cfg.merge_threshold = 3.0;
  cfg.spawn_threshold = 10.0;
  core::ModelStateSet s(cfg, {{0.0, 0.0}, {20.0, 0.0}});
  s.maybe_spawn({{50.0, 50.0}});
  s.update({{1.0, 1.0}, {49.0, 50.0}});

  std::stringstream ss;
  s.save(ss);
  auto loaded = core::ModelStateSet::load(cfg, ss);
  ASSERT_EQ(loaded.size(), s.size());
  for (std::size_t i = 0; i < s.states().size(); ++i) {
    EXPECT_EQ(loaded.states()[i].id, s.states()[i].id);
    EXPECT_EQ(loaded.states()[i].centroid, s.states()[i].centroid);
  }
  EXPECT_EQ(loaded.spawn_count(), s.spawn_count());
  EXPECT_EQ(loaded.map({48.0, 50.0}), s.map({48.0, 50.0}));
  // Spawning after restore continues the id sequence without collisions.
  const auto created = loaded.maybe_spawn({{-50.0, -50.0}});
  ASSERT_EQ(created.size(), 1u);
  EXPECT_FALSE(s.centroid(created[0]).has_value());
}

TEST(Checkpoint, TrackManagerRoundTrip) {
  core::TrackManager tm(hmm::OnlineHmmConfig{});
  tm.open(4, 10);
  tm.observe(4, 1, 7);
  tm.observe(4, 2, 7);
  tm.close(4, 12);
  tm.open(4, 20);
  tm.observe(4, 1, hmm::kBottomSymbol);
  tm.open(9, 21);
  tm.observe(9, 1, 8);

  std::stringstream ss;
  tm.save(ss);
  const auto loaded = core::TrackManager::load(hmm::OnlineHmmConfig{}, ss);

  EXPECT_EQ(loaded.tracked_sensors(), tm.tracked_sensors());
  EXPECT_EQ(loaded.total_tracks(), tm.total_tracks());
  EXPECT_EQ(loaded.total_anomalies(4), tm.total_anomalies(4));
  ASSERT_NE(loaded.tracks(4), nullptr);
  EXPECT_EQ((*loaded.tracks(4))[0].closed_window, 12u);
  EXPECT_TRUE((*loaded.tracks(4))[1].active());
  EXPECT_TRUE(loaded.has_active_track(9));
  ASSERT_NE(loaded.combined_m_ce(4), nullptr);
  EXPECT_EQ(loaded.combined_m_ce(4)->steps(), tm.combined_m_ce(4)->steps());
}

TEST(Checkpoint, PipelineSurvivesRestartMidDeployment) {
  // Run 10 days with a stuck-at fault; checkpoint at day 5; restore and run
  // the remaining days; the restored pipeline must reach the same diagnosis
  // and (nearly) the same models as the uninterrupted one.
  sim::GdiEnvironmentConfig ec;
  ec.duration_seconds = 10.0 * kSecondsPerDay;
  const sim::GdiEnvironment env(ec);
  auto simulator = sim::make_gdi_deployment(env, {});
  auto plan = std::make_shared<faults::InjectionPlan>();
  plan->add(6, std::make_unique<faults::StuckAtFault>(AttrVec{15.0, 1.0}),
            2.0 * kSecondsPerDay);
  simulator.set_transform(faults::make_transform(plan));
  const auto trace = simulator.run(ec.duration_seconds).trace;

  core::PipelineConfig cfg;
  for (double t = 0.0; t < 2.0 * kSecondsPerDay; t += 2.0 * kSecondsPerHour) {
    cfg.initial_states.push_back(env.truth(t));
  }
  cfg.initial_states.resize(6);

  // Uninterrupted reference.
  core::DetectionPipeline full(cfg);
  full.process_trace(trace);

  // Interrupted: first half, checkpoint, restore, second half.
  const double cut = 5.0 * kSecondsPerDay;
  core::DetectionPipeline first_half(cfg);
  std::vector<SensorRecord> part1, part2;
  for (const auto& r : trace) (r.time < cut ? part1 : part2).push_back(r);
  first_half.process_trace(part1);
  std::stringstream checkpoint;
  first_half.save_checkpoint(checkpoint);

  core::DetectionPipeline restored(cfg, checkpoint);
  EXPECT_EQ(restored.model_states().size(), first_half.model_states().size());
  EXPECT_DOUBLE_EQ(restored.m_co().emission_matrix_avg().max_abs_diff(
                       first_half.m_co().emission_matrix_avg()),
                   0.0);
  restored.process_trace(part2);

  // Same verdict as the uninterrupted run.
  const auto ref = full.diagnose();
  const auto got = restored.diagnose();
  ASSERT_TRUE(ref.sensors.count(6));
  ASSERT_TRUE(got.sensors.count(6));
  EXPECT_EQ(got.sensors.at(6).verdict, ref.sensors.at(6).verdict);
  EXPECT_EQ(got.sensors.at(6).kind, ref.sensors.at(6).kind);
  EXPECT_EQ(got.network.verdict, ref.network.verdict);
  // M_C transition counts only differ by the windows at the seam (the alarm
  // filters restart cold, which can shift one track edge).
  EXPECT_NEAR(static_cast<double>(restored.m_c().total_transitions()),
              static_cast<double>(full.m_c().total_transitions()), 3.0);
}

TEST(Checkpoint, PipelineRejectsWrongHeader) {
  core::PipelineConfig cfg;
  cfg.initial_states = {{0.0, 0.0}};
  std::stringstream bad("something-else\n");
  EXPECT_THROW(core::DetectionPipeline(cfg, bad), std::runtime_error);
}

// A pipeline with some real state, for the codec tests below.
core::DetectionPipeline trained_pipeline(const core::PipelineConfig& cfg) {
  sim::GdiEnvironmentConfig ec;
  ec.duration_seconds = 2.0 * kSecondsPerDay;
  const sim::GdiEnvironment env(ec);
  auto simulator = sim::make_gdi_deployment(env, {});
  core::DetectionPipeline p(cfg);
  p.process_trace(simulator.run(ec.duration_seconds).trace);
  return p;
}

core::PipelineConfig codec_config() {
  core::PipelineConfig cfg;
  const sim::GdiEnvironment env({});
  for (double t = 0.0; t < kSecondsPerDay; t += 4.0 * kSecondsPerHour) {
    cfg.initial_states.push_back(env.truth(t));
  }
  return cfg;
}

TEST(Checkpoint, BinaryCodecRoundTripsIdenticallyToText) {
  // Both codecs must restore the *same* pipeline: save one checkpoint per
  // format, load each (format auto-negotiated by magic byte), and compare
  // the re-saved text bytes -- byte equality of text checkpoints is the
  // strictest observable state equality the pipeline offers.
  const auto cfg = codec_config();
  const auto p = trained_pipeline(cfg);

  std::stringstream text_ck;
  p.save_checkpoint(text_ck);
  std::stringstream binary_ck;
  p.save_checkpoint(binary_ck, serialize::Format::kBinary);

  // The binary checkpoint is a different encoding, not a copy.
  ASSERT_NE(text_ck.str(), binary_ck.str());
  ASSERT_EQ(static_cast<unsigned char>(binary_ck.str()[0]), serialize::kBinaryMagic[0]);

  const core::DetectionPipeline from_text(cfg, text_ck);
  const core::DetectionPipeline from_binary(cfg, binary_ck);

  std::stringstream text_again, binary_again;
  from_text.save_checkpoint(text_again);
  from_binary.save_checkpoint(binary_again);
  EXPECT_EQ(text_again.str(), binary_again.str());
  EXPECT_EQ(text_again.str(), [&] {
    std::stringstream ss;
    p.save_checkpoint(ss);
    return ss.str();
  }());
}

TEST(Checkpoint, BinaryCodecRejectsCorruption) {
  const auto cfg = codec_config();
  const auto p = trained_pipeline(cfg);
  std::stringstream ck;
  p.save_checkpoint(ck, serialize::Format::kBinary);
  std::string bytes = ck.str();

  // Truncated: cut the stream mid-payload.
  std::stringstream truncated(bytes.substr(0, bytes.size() / 2));
  EXPECT_THROW(core::DetectionPipeline(cfg, truncated), std::runtime_error);

  // Wrong leading tag: corrupt the first tag's bytes (after magic + length).
  std::string mangled = bytes;
  mangled[10] = 'X';
  std::stringstream bad(mangled);
  EXPECT_THROW(core::DetectionPipeline(cfg, bad), std::runtime_error);
}

}  // namespace
}  // namespace sentinel
