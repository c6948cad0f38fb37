// Classical discrete Hidden Markov Model (paper section 2; Rabiner 1989).
//
// Characterized by hidden states S_1..S_M, observation symbols V_1..V_N, the
// state transition distribution A, the observation symbol distribution B, and
// the initial distribution pi. Implements the three classical problems with
// numerically scaled forward/backward recursions:
//   - evaluation:  log Pr{O | lambda}           (forward)
//   - decoding:    argmax_S Pr{S | O, lambda}   (Viterbi, log space)
//   - learning:    Baum-Welch EM
// This substrate backs the Warrender-style single-host baseline detector that
// the paper contrasts its approach against, and is used in tests as an
// independent check on the online estimator.

#pragma once

#include <cstddef>
#include <vector>

#include "util/matrix.h"
#include "util/rng.h"
#include "util/serialize_fwd.h"

namespace sentinel::hmm {

using Sequence = std::vector<std::size_t>;  // observation symbol indices

struct ForwardResult {
  double log_likelihood = 0.0;
  /// alpha_hat(t, i): scaled forward variables, rows = time, cols = state.
  Matrix scaled_alpha;
  /// c_t scaling factors; log_likelihood = -sum log c_t.
  std::vector<double> scales;
};

struct ViterbiResult {
  std::vector<std::size_t> path;  // most likely hidden-state sequence
  double log_probability = 0.0;
};

struct BaumWelchOptions {
  std::size_t max_iterations = 100;
  double tolerance = 1e-6;  // stop when loglik improves by less than this
  /// Probability floor applied after each M-step to keep the model ergodic
  /// (avoids zero rows that make later sequences impossible).
  double floor = 1e-10;
};

struct BaumWelchResult {
  std::vector<double> log_likelihood_per_iter;
  std::size_t iterations = 0;
  bool converged = false;
};

class Hmm {
 public:
  Hmm() = default;

  /// A: M x M row-stochastic, B: M x N row-stochastic, pi: length M summing
  /// to 1. Throws std::invalid_argument on malformed input.
  Hmm(Matrix a, Matrix b, std::vector<double> pi);

  /// Uniform model with M states and N symbols.
  static Hmm uniform(std::size_t num_states, std::size_t num_symbols);

  /// Random row-stochastic model (for Baum-Welch restarts).
  static Hmm random(std::size_t num_states, std::size_t num_symbols, Rng& rng);

  std::size_t num_states() const { return a_.rows(); }
  std::size_t num_symbols() const { return b_.cols(); }

  const Matrix& transition() const { return a_; }
  const Matrix& emission() const { return b_; }
  const std::vector<double>& initial() const { return pi_; }

  /// Scaled forward pass. Throws on empty sequence or out-of-range symbol.
  ForwardResult forward(const Sequence& obs) const;

  /// Scaled backward pass using the forward pass's scaling factors.
  /// Returns beta_hat(t, i).
  Matrix backward(const Sequence& obs, const std::vector<double>& scales) const;

  /// log Pr{O | lambda}.
  double log_likelihood(const Sequence& obs) const;

  /// Per-symbol normalized log-likelihood, the quantity thresholded by the
  /// baseline detector (lengths cancel out).
  double normalized_log_likelihood(const Sequence& obs) const;

  ViterbiResult viterbi(const Sequence& obs) const;

  /// Posterior decoding: gamma(t, i) = Pr{ s_t = S_i | O, lambda }. Rows sum
  /// to 1. Unlike Viterbi (the single best path), this gives the per-step
  /// marginal -- useful for confidence-weighted smoothing.
  Matrix posterior(const Sequence& obs) const;

  /// Baum-Welch EM over one or more observation sequences (multi-sequence
  /// update with per-sequence gammas/xis).
  BaumWelchResult baum_welch(const std::vector<Sequence>& sequences,
                             const BaumWelchOptions& opts = {});

  /// Checkpointing: full model (A, B, pi).
  void save(serialize::Writer& w) const;
  static Hmm load(serialize::Reader& r);

  /// Sample a (states, symbols) trajectory of given length.
  struct Sample {
    std::vector<std::size_t> states;
    Sequence symbols;
  };
  Sample sample(std::size_t length, Rng& rng) const;

 private:
  void validate() const;

  Matrix a_;                 // transitions
  Matrix b_;                 // emissions
  std::vector<double> pi_;   // initial distribution
};

}  // namespace sentinel::hmm
