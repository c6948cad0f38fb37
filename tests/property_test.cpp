// Property-based tests (parameterized sweeps): invariants that must hold
// across whole parameter grids, not just hand-picked examples.

#include <gtest/gtest.h>

#include <tuple>

#include "core/model_states.h"
#include "hmm/hmm.h"
#include "hmm/online_hmm.h"
#include "text_codec.h"
#include "trace/windower.h"
#include "util/rng.h"
#include "util/vecn.h"

namespace sentinel {
namespace {

// --- Online HMM: stochasticity preserved for any (beta, gamma, seed). --------

class OnlineHmmStochasticity
    : public ::testing::TestWithParam<std::tuple<double, double, std::uint64_t>> {};

TEST_P(OnlineHmmStochasticity, RowsAlwaysSumToOne) {
  const auto [beta, gamma, seed] = GetParam();
  hmm::OnlineHmmConfig cfg;
  cfg.beta = beta;
  cfg.gamma = gamma;
  hmm::OnlineHmm m(cfg);

  Rng rng(seed, "prop-online");
  for (int i = 0; i < 500; ++i) {
    m.observe(static_cast<hmm::StateId>(rng.uniform_int(0, 9)),
              static_cast<hmm::StateId>(rng.uniform_int(0, 11)));
    if (i % 50 == 0) {
      ASSERT_TRUE(m.transition_matrix().is_row_stochastic(1e-9)) << "step " << i;
      ASSERT_TRUE(m.emission_matrix().is_row_stochastic(1e-9)) << "step " << i;
      ASSERT_TRUE(m.transition_matrix_avg().is_row_stochastic(1e-9)) << "step " << i;
      ASSERT_TRUE(m.emission_matrix_avg().is_row_stochastic(1e-9)) << "step " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    LearningFactorGrid, OnlineHmmStochasticity,
    ::testing::Combine(::testing::Values(0.1, 0.5, 0.9, 0.99),
                       ::testing::Values(0.1, 0.5, 0.9, 0.99),
                       ::testing::Values(1ull, 17ull, 99ull)));

// --- Baum-Welch: likelihood never decreases, for any model size / seed. -------

class BaumWelchMonotone
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t, std::uint64_t>> {};

TEST_P(BaumWelchMonotone, LikelihoodNonDecreasing) {
  const auto [states, symbols, seed] = GetParam();
  Rng rng(seed, "prop-bw");
  const auto truth = hmm::Hmm::random(states, symbols, rng);
  const auto sample = truth.sample(200, rng);

  auto learner = hmm::Hmm::random(states, symbols, rng);
  hmm::BaumWelchOptions opts;
  opts.max_iterations = 15;
  const auto result = learner.baum_welch({sample.symbols}, opts);
  for (std::size_t i = 1; i < result.log_likelihood_per_iter.size(); ++i) {
    ASSERT_GE(result.log_likelihood_per_iter[i],
              result.log_likelihood_per_iter[i - 1] - 1e-6)
        << "iter " << i;
  }
  EXPECT_TRUE(learner.transition().is_row_stochastic(1e-6));
  EXPECT_TRUE(learner.emission().is_row_stochastic(1e-6));
}

INSTANTIATE_TEST_SUITE_P(ModelGrid, BaumWelchMonotone,
                         ::testing::Combine(::testing::Values(2u, 3u, 5u),
                                            ::testing::Values(2u, 4u, 8u),
                                            ::testing::Values(5ull, 23ull)));

// --- Forward/backward consistency across random models. -----------------------

class ForwardBackward : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ForwardBackward, GammaNormalization) {
  Rng rng(GetParam(), "prop-fb");
  const auto model = hmm::Hmm::random(4, 5, rng);
  const auto sample = model.sample(64, rng);
  const auto fwd = model.forward(sample.symbols);
  const auto beta = model.backward(sample.symbols, fwd.scales);
  for (std::size_t t = 0; t < sample.symbols.size(); ++t) {
    double s = 0.0;
    for (std::size_t i = 0; i < 4; ++i) {
      s += fwd.scaled_alpha(t, i) * beta(t, i) / fwd.scales[t];
    }
    ASSERT_NEAR(s, 1.0, 1e-8) << "t=" << t;
  }
  // Viterbi path probability can never exceed the total likelihood.
  const auto v = model.viterbi(sample.symbols);
  EXPECT_LE(v.log_probability, fwd.log_likelihood + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ForwardBackward,
                         ::testing::Values(1ull, 2ull, 3ull, 4ull, 5ull, 6ull, 7ull, 8ull));

// --- Clustering: state count bounded, pairwise distance >= merge threshold. ---

class ClusteringInvariants
    : public ::testing::TestWithParam<std::tuple<double, double, std::uint64_t>> {};

TEST_P(ClusteringInvariants, BoundedAndSeparated) {
  const auto [alpha, merge_threshold, seed] = GetParam();
  core::ModelStateConfig cfg;
  cfg.alpha = alpha;
  cfg.merge_threshold = merge_threshold;
  cfg.spawn_threshold = merge_threshold * 3.0;
  cfg.max_states = 12;
  core::ModelStateSet states(cfg, {{0.0, 0.0}});

  Rng rng(seed, "prop-cluster");
  for (int round = 0; round < 100; ++round) {
    std::vector<AttrVec> points;
    for (int i = 0; i < 8; ++i) {
      points.push_back({rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0)});
    }
    states.maybe_spawn(points);
    states.update(points);

    ASSERT_LE(states.size(), cfg.max_states) << "round " << round;
    // After update+merge, no two active centroids may sit within the merge
    // threshold.
    const auto& ss = states.states();
    for (std::size_t i = 0; i < ss.size(); ++i) {
      for (std::size_t j = i + 1; j < ss.size(); ++j) {
        ASSERT_GT(vecn::dist(ss[i].centroid, ss[j].centroid), merge_threshold)
            << "round " << round;
      }
    }
    // Every merged-away id still resolves to an active state.
    for (core::StateId id = 0; id < 200; ++id) {
      if (states.centroid(id) && !states.is_active(id)) {
        ASSERT_TRUE(states.is_active(states.resolve(id))) << "id " << id;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ClusterGrid, ClusteringInvariants,
                         ::testing::Combine(::testing::Values(0.05, 0.1, 0.5),
                                            ::testing::Values(2.0, 5.0, 10.0),
                                            ::testing::Values(3ull, 31ull)));

// --- Checkpoint round trip under random streams. ------------------------------

class CheckpointRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CheckpointRoundTrip, OnlineHmmExactUnderRandomStreams) {
  Rng rng(GetParam(), "prop-ckpt");
  hmm::OnlineHmmConfig cfg;
  cfg.beta = rng.uniform(0.05, 0.95);
  cfg.gamma = rng.uniform(0.05, 0.95);
  hmm::OnlineHmm m(cfg);
  const auto steps = static_cast<int>(rng.uniform_int(1, 400));
  for (int i = 0; i < steps; ++i) {
    const auto h = static_cast<hmm::StateId>(rng.uniform_int(0, 8));
    const auto s = rng.bernoulli(0.1) ? hmm::kBottomSymbol
                                      : static_cast<hmm::StateId>(rng.uniform_int(0, 10));
    m.observe(h, s);
  }
  const auto loaded = hmm::OnlineHmm::load(cfg, test::ReaderOver(test::text_bytes(m)));
  ASSERT_EQ(loaded.steps(), m.steps());
  ASSERT_EQ(loaded.hidden_states(), m.hidden_states());
  ASSERT_EQ(loaded.symbols(), m.symbols());
  EXPECT_DOUBLE_EQ(loaded.transition_matrix().max_abs_diff(m.transition_matrix()), 0.0);
  EXPECT_DOUBLE_EQ(loaded.emission_matrix().max_abs_diff(m.emission_matrix()), 0.0);
  EXPECT_DOUBLE_EQ(
      loaded.transition_matrix_avg().max_abs_diff(m.transition_matrix_avg()), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CheckpointRoundTrip,
                         ::testing::Values(41ull, 42ull, 43ull, 44ull, 45ull, 46ull));

// --- Windower: conservation across window sizes. -------------------------------

class WindowerConservation : public ::testing::TestWithParam<double> {};

TEST_P(WindowerConservation, EveryRecordLandsInExactlyOneWindow) {
  const double w = GetParam();
  Rng rng(9, "prop-window");
  std::vector<SensorRecord> records;
  for (int i = 0; i < 500; ++i) {
    records.push_back({static_cast<SensorId>(rng.uniform_int(0, 4)),
                       rng.uniform(0.0, 5000.0), {rng.uniform(0.0, 1.0)}});
  }
  const auto windows = window_trace(records, w);
  std::size_t total = 0;
  for (const auto& win : windows) {
    EXPECT_GT(win.records, 0u);  // window_trace returns only occupied windows
    total += win.records;
    // Window boundaries honor eq. (1)'s half-open convention.
    EXPECT_NEAR(win.window_end - win.window_start, w, 1e-9);
    for (const auto& rep : win.rep_points) EXPECT_EQ(rep.size(), 1u);
  }
  EXPECT_EQ(total, records.size());
  // Window indices strictly increase (gaps between them are skipped).
  for (std::size_t i = 1; i < windows.size(); ++i) {
    EXPECT_GT(windows[i].window_index, windows[i - 1].window_index);
  }
}

INSTANTIATE_TEST_SUITE_P(WindowSizes, WindowerConservation,
                         ::testing::Values(10.0, 60.0, 300.0, 3600.0));

// --- Markov chain: MLE matrix always stochastic, occupancy sums to one. -------

class MarkovChainInvariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MarkovChainInvariants, StochasticUnderRandomSequences) {
  Rng rng(GetParam(), "prop-chain");
  hmm::MarkovChain mc;
  std::vector<hmm::StateId> seq;
  for (int i = 0; i < 300; ++i) {
    seq.push_back(static_cast<hmm::StateId>(rng.uniform_int(0, 6)));
  }
  mc.add_sequence(seq);
  EXPECT_TRUE(mc.transition_matrix().is_row_stochastic(1e-9));
  double occ = 0.0;
  for (const double o : mc.occupancy()) occ += o;
  EXPECT_NEAR(occ, 1.0, 1e-9);
  double st = 0.0;
  for (const double s : mc.stationary()) st += s;
  EXPECT_NEAR(st, 1.0, 1e-6);
  // Pruning never increases the state count and keeps stochasticity.
  const auto pruned = mc.pruned(0.05);
  EXPECT_LE(pruned.num_states(), mc.num_states());
  EXPECT_TRUE(pruned.transition_matrix().is_row_stochastic(1e-9));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MarkovChainInvariants,
                         ::testing::Values(11ull, 12ull, 13ull, 14ull));

}  // namespace
}  // namespace sentinel
