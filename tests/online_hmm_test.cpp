// Unit tests: the paper's online HMM estimator (section 3.2) -- EMA update
// semantics, stochasticity preservation, dynamic state growth, the bottom
// symbol, and convergence to the generating structure.

#include <gtest/gtest.h>

#include "hmm/online_hmm.h"

namespace sentinel::hmm {
namespace {

TEST(OnlineHmmTest, ValidatesLearningFactors) {
  OnlineHmmConfig bad;
  bad.beta = 0.0;
  EXPECT_THROW(OnlineHmm{bad}, std::invalid_argument);
  bad.beta = 0.5;
  bad.gamma = 1.0;
  EXPECT_THROW(OnlineHmm{bad}, std::invalid_argument);
}

TEST(OnlineHmmTest, FirstObservationInitializesIdentityRow) {
  OnlineHmm m;
  m.observe(3, 7);
  EXPECT_EQ(m.num_hidden(), 1u);
  EXPECT_EQ(m.num_symbols(), 1u);
  EXPECT_DOUBLE_EQ(m.transition(3, 3), 1.0);
  EXPECT_DOUBLE_EQ(m.emission(3, 7), 1.0);
}

TEST(OnlineHmmTest, TransitionUpdateOnlyOnStateChange) {
  OnlineHmmConfig cfg;
  cfg.beta = 0.5;
  OnlineHmm m(cfg);
  m.observe(1, 1);
  m.observe(1, 1);  // same state: A untouched
  EXPECT_DOUBLE_EQ(m.transition(1, 1), 1.0);
  m.observe(2, 2);  // 1 -> 2: row 1 moves toward 2 by beta
  EXPECT_DOUBLE_EQ(m.transition(1, 1), 0.5);
  EXPECT_DOUBLE_EQ(m.transition(1, 2), 0.5);
}

TEST(OnlineHmmTest, EmissionEmaFollowsPaperFormula) {
  OnlineHmmConfig cfg;
  cfg.gamma = 0.9;
  OnlineHmm m(cfg);
  m.observe(1, 5);  // init: row = delta(5), then EMA keeps it at delta(5)
  EXPECT_DOUBLE_EQ(m.emission(1, 5), 1.0);
  m.observe(1, 6);  // b(1,6) = 0.1*0 + 0.9 = 0.9; b(1,5) = 0.1
  EXPECT_NEAR(m.emission(1, 6), 0.9, 1e-12);
  EXPECT_NEAR(m.emission(1, 5), 0.1, 1e-12);
}

TEST(OnlineHmmTest, MatricesStayRowStochastic) {
  OnlineHmm m;
  // Pseudo-random but deterministic walk over 6 hidden states, 7 symbols.
  std::uint64_t x = 12345;
  for (int i = 0; i < 2000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const auto h = static_cast<StateId>((x >> 33) % 6);
    const auto s = static_cast<StateId>((x >> 17) % 7);
    m.observe(h, s);
  }
  EXPECT_TRUE(m.transition_matrix().is_row_stochastic(1e-9));
  EXPECT_TRUE(m.emission_matrix().is_row_stochastic(1e-9));
  EXPECT_EQ(m.num_hidden(), 6u);
  EXPECT_EQ(m.num_symbols(), 7u);
  EXPECT_EQ(m.steps(), 2000u);
}

TEST(OnlineHmmTest, GrowingStateSetKeepsStochasticity) {
  OnlineHmm m;
  for (StateId h = 0; h < 20; ++h) {
    m.observe(h, h);
    m.observe(h, h + 100);
  }
  EXPECT_EQ(m.num_hidden(), 20u);
  EXPECT_EQ(m.num_symbols(), 40u);
  EXPECT_TRUE(m.transition_matrix().is_row_stochastic(1e-9));
  EXPECT_TRUE(m.emission_matrix().is_row_stochastic(1e-9));
}

TEST(OnlineHmmTest, LearnsDeterministicEmissionStructure) {
  // Hidden alternates 1,2; symbol = hidden + 10, deterministically. After
  // enough steps B must be near-identity over the pairing.
  OnlineHmm m;
  for (int i = 0; i < 200; ++i) {
    const StateId h = (i % 2) ? 2 : 1;
    m.observe(h, h + 10);
  }
  EXPECT_GT(m.emission(1, 11), 0.99);
  EXPECT_GT(m.emission(2, 12), 0.99);
  EXPECT_LT(m.emission(1, 12), 0.01);
  // Transitions learned the alternation.
  EXPECT_GT(m.transition(1, 2), 0.99);
  EXPECT_GT(m.transition(2, 1), 0.99);
}

TEST(OnlineHmmTest, BottomSymbolTracked) {
  OnlineHmm m;
  m.observe(1, kBottomSymbol);
  m.observe(1, 4);
  EXPECT_TRUE(m.symbol_index(kBottomSymbol).has_value());
  EXPECT_GT(m.emission(1, 4), 0.0);
  EXPECT_GT(m.emission(1, kBottomSymbol), 0.0);
}

TEST(OnlineHmmTest, UnknownLookupsReturnZeroOrNullopt) {
  OnlineHmm m;
  m.observe(1, 1);
  EXPECT_DOUBLE_EQ(m.transition(1, 99), 0.0);
  EXPECT_DOUBLE_EQ(m.emission(99, 1), 0.0);
  EXPECT_FALSE(m.hidden_index(99).has_value());
  EXPECT_FALSE(m.symbol_index(99).has_value());
  EXPECT_EQ(m.last_hidden(), 1u);
}

}  // namespace
}  // namespace sentinel::hmm
