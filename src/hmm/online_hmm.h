// On-line HMM estimation (paper section 3.2).
//
// At the end of each observation window the pipeline knows the current hidden
// state (the correct environment state c_i) and the current observation
// symbol (the observable state o_i for M_CO, or the error/attack state e_i^k
// for M_CE). With j the current state, i the previous state, and l the
// current symbol, the update is:
//
//   if j != i:  for all k:  a_ik = (1 - beta)  * a_ik + beta  * delta(k, j)
//   always:     for all k:  b_jk = (1 - gamma) * b_jk + gamma * delta(k, l)
//
// beta, gamma in (0,1) are learning factors; A and B remain row-stochastic by
// construction. (The paper's text writes the B update against row i, the
// *previous* state; since B is updated every step and the environment dwells
// in a state for many windows, i == j at almost every update and the two
// readings coincide -- we update the current state's row, which is the one
// that makes the emission semantics of the tables in section 4 come out.)
//
// Hidden states and symbols are dynamic: the clusterer can spawn model states
// at any time, and M_CE has the fictitious bottom symbol for windows where a
// tracked sensor agrees with the correct sensors. New rows start as identity
// (delta on the first symbol seen from that state), matching the paper's
// "A and B can be set equal to identity matrices" initialization.

#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <vector>

#include "hmm/markov_chain.h"
#include "util/matrix.h"
#include "util/serialize_fwd.h"
#include "util/sync.h"

namespace sentinel::hmm {

/// The paper's fictitious bottom state: a tracked sensor currently producing
/// data in agreement with the correct sensors.
inline constexpr StateId kBottomSymbol = std::numeric_limits<StateId>::max();

struct OnlineHmmConfig {
  double beta = 0.9;   // transition learning factor (paper Table 1)
  double gamma = 0.9;  // emission learning factor (paper Table 1)
};

class OnlineHmm {
 public:
  explicit OnlineHmm(OnlineHmmConfig cfg = {});

  /// One estimation step: hidden state and the symbol it emitted this window.
  void observe(StateId hidden, StateId symbol);

  std::size_t steps() const { return steps_; }
  std::size_t num_hidden() const { return hidden_ids_.size(); }
  std::size_t num_symbols() const { return symbol_ids_.size(); }

  /// Hidden state ids in row order of the matrices.
  const std::vector<StateId>& hidden_states() const { return hidden_ids_; }
  /// Symbol ids in column order of the emission matrix.
  const std::vector<StateId>& symbols() const { return symbol_ids_; }
  /// How many times each symbol (in symbols() order) was observed.
  const std::vector<double>& symbol_totals() const { return symbol_totals_; }

  std::optional<std::size_t> hidden_index(StateId id) const;
  std::optional<std::size_t> symbol_index(StateId id) const;

  /// Row-stochastic snapshots (copies) of the fixed-gain (beta/gamma) EMA
  /// estimates -- the paper's literal update rule. These weight recent
  /// windows heavily (gamma = 0.9 forgets in a couple of steps).
  Matrix transition_matrix() const { return a_; }
  Matrix emission_matrix() const { return b_; }

  /// Row-stochastic snapshots of the decreasing-gain (1/n per row) estimates
  /// -- the same online update with gain 1/n instead of a constant, which
  /// converges to the long-run transition/emission frequencies (cf. the
  /// paper's reference to Stiller & Radons for advanced online estimation).
  /// The structural classifier runs on these: a duty-cycled Creation attack
  /// splits a row ~0.5/0.5 here, where the fixed-gain row oscillates with
  /// whatever the last few windows showed. Rows never updated materialize as
  /// identity, matching the fixed-gain initialization.
  ///
  /// The normalized matrices are cached behind a dirty flag (invalidated by
  /// observe()), so a diagnosis pass that consults them repeatedly pays the
  /// normalization once. The cache is mutex-guarded: concurrent const calls
  /// from multiple threads stay safe, per the pipeline's const-read contract.
  Matrix transition_matrix_avg() const;
  Matrix emission_matrix_avg() const;

  double transition(StateId from, StateId to) const;
  double emission(StateId hidden, StateId symbol) const;

  std::optional<StateId> last_hidden() const { return last_hidden_; }

  const OnlineHmmConfig& config() const { return cfg_; }

  /// Checkpointing: full estimator state (both gain variants). load()
  /// requires the same OnlineHmmConfig the saved instance had.
  void save(serialize::Writer& w) const;
  static OnlineHmm load(OnlineHmmConfig cfg, serialize::Reader& r);

 private:
  // The slab (hmm/hmm_slab.h) stores the same estimator state in contiguous
  // per-lane arenas and materializes/adopts OnlineHmm objects field-wise.
  friend class OnlineHmmSlab;

  std::size_t intern_hidden(StateId id, StateId first_symbol);
  std::size_t intern_symbol(StateId id);

  OnlineHmmConfig cfg_;
  std::vector<StateId> hidden_ids_;
  std::vector<StateId> symbol_ids_;
  std::map<StateId, std::size_t> hidden_index_;
  std::map<StateId, std::size_t> symbol_index_;
  Matrix a_;  // num_hidden x num_hidden, fixed gain beta
  Matrix b_;  // num_hidden x num_symbols, fixed gain gamma
  Matrix a_avg_;  // decreasing-gain counterparts (unnormalized: raw counts)
  Matrix b_avg_;
  std::vector<double> a_row_counts_;
  std::vector<double> b_row_counts_;
  std::vector<double> symbol_totals_;
  std::optional<StateId> last_hidden_;
  std::size_t steps_ = 0;

  // Lazily normalized copies of a_avg_/b_avg_, guarded by avg_mu_.
  void refresh_avg_caches_locked() const;
  mutable util::CopyableMutex avg_mu_;
  mutable bool avg_dirty_ = true;
  mutable Matrix a_avg_cache_;
  mutable Matrix b_avg_cache_;
};

}  // namespace sentinel::hmm
