#include "hmm/markov_chain.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/kernels.h"
#include "util/serialize.h"

namespace sentinel::hmm {

std::size_t MarkovChain::intern(StateId id) {
  const auto [it, inserted] = index_.try_emplace(id, ids_.size());
  if (inserted) {
    ids_.push_back(id);
    counts_.emplace_back();
  }
  return it->second;
}

void MarkovChain::add_visit(StateId state) {
  intern(state);
  ++visits_[state];
}

void MarkovChain::add_transition(StateId from, StateId to) {
  const std::size_t fi = intern(from);
  intern(to);
  ++counts_[fi][to];
  ++visits_[to];
  ++total_transitions_;
}

void MarkovChain::add_sequence(const std::vector<StateId>& seq) {
  if (seq.empty()) return;
  add_visit(seq.front());
  for (std::size_t i = 1; i < seq.size(); ++i) add_transition(seq[i - 1], seq[i]);
}

std::vector<StateId> MarkovChain::states() const { return ids_; }

std::optional<std::size_t> MarkovChain::index_of(StateId id) const {
  const auto it = index_.find(id);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

std::size_t MarkovChain::visit_count(StateId id) const {
  const auto it = visits_.find(id);
  return it == visits_.end() ? 0 : it->second;
}

std::size_t MarkovChain::transition_count(StateId from, StateId to) const {
  const auto fi = index_of(from);
  if (!fi) return 0;
  const auto it = counts_[*fi].find(to);
  return it == counts_[*fi].end() ? 0 : it->second;
}

Matrix MarkovChain::transition_matrix() const {
  const std::size_t m = ids_.size();
  Matrix t(m, m, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    std::size_t row_total = 0;
    for (const auto& [to, c] : counts_[i]) row_total += c;
    if (row_total == 0) {
      t(i, i) = 1.0;  // absorbing self-loop for states never left
      continue;
    }
    for (const auto& [to, c] : counts_[i]) {
      t(i, index_.at(to)) = static_cast<double>(c) / static_cast<double>(row_total);
    }
  }
  return t;
}

std::vector<double> MarkovChain::occupancy() const {
  std::vector<double> occ(ids_.size(), 0.0);
  double total = 0.0;
  for (const auto& [id, c] : visits_) total += static_cast<double>(c);
  if (total <= 0.0) return occ;
  for (std::size_t i = 0; i < ids_.size(); ++i) {
    occ[i] = static_cast<double>(visit_count(ids_[i]));
  }
  kern::k().div_scale(occ.data(), occ.size(), total);
  return occ;
}

std::vector<double> MarkovChain::stationary(std::size_t iterations, double tol) const {
  const std::size_t m = ids_.size();
  if (m == 0) return {};
  const Matrix t = transition_matrix();
  const auto& kk = kern::k();
  std::vector<double> p(m, 1.0 / static_cast<double>(m));
  std::vector<double> next(m);
  for (std::size_t it = 0; it < iterations; ++it) {
    // next = p * T, accumulated row-by-row in ascending i: the same
    // per-output addition order as the classic j-outer loop.
    std::fill(next.begin(), next.end(), 0.0);
    kk.vec_mat(p.data(), t.data(), m, m, t.stride(), next.data());
    double delta = 0.0;
    for (std::size_t j = 0; j < m; ++j) delta = std::max(delta, std::abs(next[j] - p[j]));
    p.swap(next);
    if (delta < tol) break;
  }
  return p;
}

MarkovChain MarkovChain::pruned(double min_occupancy) const {
  MarkovChain out;
  const auto occ = occupancy();
  auto keep = [&](StateId id) {
    const auto idx = index_of(id);
    return idx && occ[*idx] >= min_occupancy;
  };
  for (std::size_t i = 0; i < ids_.size(); ++i) {
    const StateId from = ids_[i];
    if (!keep(from)) continue;
    out.intern(from);
    out.visits_[from] = visits_.at(from);
    for (const auto& [to, c] : counts_[i]) {
      if (!keep(to)) continue;
      out.intern(to);
      out.counts_[out.index_.at(from)][to] = c;
      out.total_transitions_ += c;
    }
  }
  return out;
}

bool MarkovChain::same_structure(const MarkovChain& other) const {
  if (index_.size() != other.index_.size()) return false;
  for (const auto& [id, idx] : index_) {
    const auto oidx = other.index_of(id);
    if (!oidx) return false;
    // Compare transition support sets.
    const auto& mine = counts_[idx];
    const auto& theirs = other.counts_[*oidx];
    if (mine.size() != theirs.size()) return false;
    for (const auto& [to, c] : mine) {
      (void)c;
      if (theirs.find(to) == theirs.end()) return false;
    }
  }
  return true;
}

double MarkovChain::log_likelihood(const std::vector<StateId>& seq, double epsilon) const {
  if (seq.size() < 2) return 0.0;
  const Matrix t = transition_matrix();
  double ll = 0.0;
  for (std::size_t i = 1; i < seq.size(); ++i) {
    const auto fi = index_of(seq[i - 1]);
    const auto ti = index_of(seq[i]);
    double p = epsilon;
    if (fi && ti) p = std::max(t(*fi, *ti), epsilon);
    ll += std::log(p);
  }
  return ll;
}

double MarkovChain::entropy_rate() const {
  const Matrix t = transition_matrix();
  const auto occ = occupancy();
  double h = 0.0;
  for (std::size_t i = 0; i < t.rows(); ++i) {
    double row_h = 0.0;
    for (std::size_t j = 0; j < t.cols(); ++j) {
      const double p = t(i, j);
      if (p > 0.0) row_h -= p * std::log(p);
    }
    h += occ[i] * row_h;
  }
  return h;
}

void MarkovChain::save(serialize::Writer& w) const {
  serialize::tag(w, "markov-chain");
  serialize::put_vector(w, ids_);
  for (const auto& row : counts_) {
    serialize::put(w, row.size());
    for (const auto& [to, count] : row) {
      serialize::put(w, to);
      serialize::put(w, count);
    }
  }
  serialize::put(w, visits_.size());
  for (const auto& [id, count] : visits_) {
    serialize::put(w, id);
    serialize::put(w, count);
  }
  serialize::put(w, total_transitions_);
  w.newline();
}

MarkovChain MarkovChain::load(serialize::Reader& r) {
  serialize::expect(r, "markov-chain");
  MarkovChain mc;
  mc.ids_ = serialize::get_vector<StateId>(r);
  for (std::size_t i = 0; i < mc.ids_.size(); ++i) mc.index_[mc.ids_[i]] = i;
  mc.counts_.resize(mc.ids_.size());
  for (auto& row : mc.counts_) {
    const auto n = serialize::get<std::size_t>(r);
    for (std::size_t i = 0; i < n; ++i) {
      const auto to = serialize::get<StateId>(r);
      row[to] = serialize::get<std::size_t>(r);
    }
  }
  const auto nv = serialize::get<std::size_t>(r);
  for (std::size_t i = 0; i < nv; ++i) {
    const auto id = serialize::get<StateId>(r);
    mc.visits_[id] = serialize::get<std::size_t>(r);
  }
  mc.total_transitions_ = serialize::get<std::size_t>(r);
  if (mc.index_.size() != mc.ids_.size()) {
    throw std::runtime_error("checkpoint: duplicate markov-chain state ids");
  }
  return mc;
}

std::string MarkovChain::to_string() const {
  std::ostringstream os;
  const Matrix t = transition_matrix();
  os << "states:";
  for (const StateId id : ids_) os << ' ' << id;
  os << '\n' << t.to_string(3);
  return os.str();
}

}  // namespace sentinel::hmm
