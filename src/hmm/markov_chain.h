// First-order Markov chain over a dynamic set of state ids.
//
// Used for the paper's M_C (the error/attack-free description of the
// environment handed to the user, Fig. 7) and M_O, and by the related-work
// style Markov-chain anomaly metrics. Estimation is by transition counts
// (MLE) over an id sequence; ids need not be contiguous -- the chain keeps an
// id <-> index mapping, matching the dynamic state set produced by the online
// clusterer.

#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "util/matrix.h"
#include "util/serialize_fwd.h"

namespace sentinel::hmm {

using StateId = std::uint32_t;

class MarkovChain {
 public:
  /// Record a transition from -> to (also counts both as visited).
  void add_transition(StateId from, StateId to);

  /// Record occupancy without a transition (first observation).
  void add_visit(StateId state);

  /// Feed a whole sequence.
  void add_sequence(const std::vector<StateId>& seq);

  std::size_t num_states() const { return index_.size(); }
  std::vector<StateId> states() const;  // in index order
  std::optional<std::size_t> index_of(StateId id) const;

  std::size_t visit_count(StateId id) const;
  std::size_t transition_count(StateId from, StateId to) const;
  std::size_t total_transitions() const { return total_transitions_; }

  /// Row-stochastic MLE transition matrix, rows/cols in states() order.
  /// States never left get a self-loop row.
  Matrix transition_matrix() const;

  /// Empirical occupancy distribution.
  std::vector<double> occupancy() const;

  /// Stationary distribution of transition_matrix() by power iteration.
  std::vector<double> stationary(std::size_t iterations = 2000, double tol = 1e-12) const;

  /// Copy with states whose occupancy is below `min_occupancy` (a fraction of
  /// total visits) removed; transitions through removed states are dropped.
  /// The paper prunes a fluctuation state from M_C the same way ("the
  /// transition to this state has a very low probability").
  MarkovChain pruned(double min_occupancy) const;

  /// Structural comparison: same state set and same transition *support*
  /// (which transitions exist), ignoring probabilities. The paper's
  /// error-vs-attack intuition: errors preserve M_C / M_O structure, attacks
  /// change it.
  bool same_structure(const MarkovChain& other) const;

  /// Log-likelihood of a sequence under the MLE matrix (unseen transitions
  /// get `epsilon`). Used by the Markov-chain baseline metrics.
  double log_likelihood(const std::vector<StateId>& seq, double epsilon = 1e-9) const;

  /// Entropy rate (nats/step) of the MLE chain under its occupancy
  /// distribution: sum_i pi_i * H(row_i). One of the anomaly metrics the
  /// paper's related work [11] computes ("local entropy"); low entropy =
  /// predictable dynamics.
  double entropy_rate() const;

  std::string to_string() const;

  /// Checkpointing: counts, visits and id ordering.
  void save(serialize::Writer& w) const;
  static MarkovChain load(serialize::Reader& r);

 private:
  std::size_t intern(StateId id);

  std::map<StateId, std::size_t> index_;
  std::vector<StateId> ids_;                       // index -> id
  std::vector<std::map<StateId, std::size_t>> counts_;  // per from-index: to-id -> count
  std::map<StateId, std::size_t> visits_;
  std::size_t total_transitions_ = 0;
};

}  // namespace sentinel::hmm
