#include "hmm/online_hmm.h"

#include <stdexcept>

#include "util/kernels.h"
#include "util/serialize.h"

namespace sentinel::hmm {

OnlineHmm::OnlineHmm(OnlineHmmConfig cfg) : cfg_(cfg) {
  if (!(cfg_.beta > 0.0 && cfg_.beta < 1.0)) {
    throw std::invalid_argument("OnlineHmm: beta must be in (0,1)");
  }
  if (!(cfg_.gamma > 0.0 && cfg_.gamma < 1.0)) {
    throw std::invalid_argument("OnlineHmm: gamma must be in (0,1)");
  }
}

std::size_t OnlineHmm::intern_symbol(StateId id) {
  const auto [it, inserted] = symbol_index_.try_emplace(id, symbol_ids_.size());
  if (inserted) {
    symbol_ids_.push_back(id);
    b_.grow(b_.rows(), symbol_ids_.size(), 0.0);
    b_avg_.grow(b_avg_.rows(), symbol_ids_.size(), 0.0);
    symbol_totals_.push_back(0.0);
  }
  return it->second;
}

std::size_t OnlineHmm::intern_hidden(StateId id, StateId first_symbol) {
  const auto [it, inserted] = hidden_index_.try_emplace(id, hidden_ids_.size());
  if (inserted) {
    hidden_ids_.push_back(id);
    // Grow A with a fresh identity row (self-loop) and zero column entries
    // for the existing rows.
    a_.grow(hidden_ids_.size(), hidden_ids_.size(), 0.0);
    a_(hidden_ids_.size() - 1, hidden_ids_.size() - 1) = 1.0;
    a_avg_.grow(hidden_ids_.size(), hidden_ids_.size(), 0.0);
    a_row_counts_.push_back(0.0);
    // Grow B with a delta row on the state's first observed symbol -- the
    // dynamic-state analogue of identity initialization.
    const std::size_t sym = intern_symbol(first_symbol);
    b_.grow(hidden_ids_.size(), symbol_ids_.size(), 0.0);
    b_(hidden_ids_.size() - 1, sym) = 1.0;
    b_avg_.grow(hidden_ids_.size(), symbol_ids_.size(), 0.0);
    b_row_counts_.push_back(0.0);
  }
  return it->second;
}

void OnlineHmm::observe(StateId hidden, StateId symbol) {
  const std::size_t j = intern_hidden(hidden, symbol);
  const std::size_t l = intern_symbol(symbol);

  // The EMA row updates decay the whole row then add the learning rate to
  // the observed column: (1-rate)*row[k] + (k==target ? rate : 0). Entries
  // are probabilities (never -0.0), so decay-then-bump is bit-identical to
  // the literal per-element formula -- checkpoint bytes are unchanged.
  const auto& kk = kern::k();
  if (last_hidden_ && *last_hidden_ != hidden) {
    // Transition update on the previous state's row.
    const std::size_t i = hidden_index_.at(*last_hidden_);
    auto row = a_.row(i);
    kk.scale(row.data(), row.size(), 1.0 - cfg_.beta);
    row[j] += cfg_.beta;
    a_avg_(i, j) += 1.0;
    a_row_counts_[i] += 1.0;
  }

  // Emission update. Row j (current) by default; row i (previous) under the
  // literal reading -- identical whenever the state did not change.
  std::size_t emit_row = j;
  if (cfg_.update_previous_row && last_hidden_) emit_row = hidden_index_.at(*last_hidden_);
  auto brow = b_.row(emit_row);
  kk.scale(brow.data(), brow.size(), 1.0 - cfg_.gamma);
  brow[l] += cfg_.gamma;
  b_avg_(emit_row, l) += 1.0;
  b_row_counts_[emit_row] += 1.0;
  symbol_totals_[l] += 1.0;

  last_hidden_ = hidden;
  avg_dirty_ = true;
  ++steps_;
}

void OnlineHmm::refresh_avg_caches_locked() const {
  const auto& kk = kern::k();
  Matrix a = a_avg_;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    if (a_row_counts_[r] <= 0.0) {
      a(r, r) = 1.0;  // never left: identity row, like the EMA init
      continue;
    }
    auto row = a.row(r);
    kk.div_scale(row.data(), row.size(), a_row_counts_[r]);
  }
  a_avg_cache_ = std::move(a);

  Matrix b = b_avg_;
  for (std::size_t r = 0; r < b.rows(); ++r) {
    if (b_row_counts_[r] <= 0.0) {
      // Never updated: mirror the EMA initialization (delta on the first
      // symbol), which is exactly what b_ still holds for this row.
      for (std::size_t c = 0; c < b.cols(); ++c) b(r, c) = b_(r, c);
      continue;
    }
    auto row = b.row(r);
    kk.div_scale(row.data(), row.size(), b_row_counts_[r]);
  }
  b_avg_cache_ = std::move(b);
  avg_dirty_ = false;
}

Matrix OnlineHmm::transition_matrix_avg() const {
  std::lock_guard<std::mutex> lock(avg_mu_.get());
  if (avg_dirty_) refresh_avg_caches_locked();
  return a_avg_cache_;
}

Matrix OnlineHmm::emission_matrix_avg() const {
  std::lock_guard<std::mutex> lock(avg_mu_.get());
  if (avg_dirty_) refresh_avg_caches_locked();
  return b_avg_cache_;
}

std::optional<std::size_t> OnlineHmm::hidden_index(StateId id) const {
  const auto it = hidden_index_.find(id);
  if (it == hidden_index_.end()) return std::nullopt;
  return it->second;
}

std::optional<std::size_t> OnlineHmm::symbol_index(StateId id) const {
  const auto it = symbol_index_.find(id);
  if (it == symbol_index_.end()) return std::nullopt;
  return it->second;
}

double OnlineHmm::transition(StateId from, StateId to) const {
  const auto fi = hidden_index(from);
  const auto ti = hidden_index(to);
  if (!fi || !ti) return 0.0;
  return a_(*fi, *ti);
}

double OnlineHmm::emission(StateId hidden, StateId symbol) const {
  const auto hi = hidden_index(hidden);
  const auto si = symbol_index(symbol);
  if (!hi || !si) return 0.0;
  return b_(*hi, *si);
}


void OnlineHmm::save(serialize::Writer& w) const {
  serialize::tag(w, "online-hmm");
  serialize::put_vector(w, hidden_ids_);
  serialize::put_vector(w, symbol_ids_);
  serialize::put_matrix(w, a_);
  serialize::put_matrix(w, b_);
  serialize::put_matrix(w, a_avg_);
  serialize::put_matrix(w, b_avg_);
  serialize::put_vector(w, a_row_counts_);
  serialize::put_vector(w, b_row_counts_);
  serialize::put_vector(w, symbol_totals_);
  serialize::put(w, last_hidden_.has_value());
  serialize::put(w, last_hidden_.value_or(0));
  serialize::put(w, steps_);
  w.newline();
}

void OnlineHmm::save(std::ostream& os) const {
  serialize::TextWriter w(os);
  save(w);
}

OnlineHmm OnlineHmm::load(OnlineHmmConfig cfg, serialize::Reader& r) {
  serialize::expect(r, "online-hmm");
  OnlineHmm m(cfg);
  m.hidden_ids_ = serialize::get_vector<StateId>(r);
  m.symbol_ids_ = serialize::get_vector<StateId>(r);
  for (std::size_t i = 0; i < m.hidden_ids_.size(); ++i) m.hidden_index_[m.hidden_ids_[i]] = i;
  for (std::size_t i = 0; i < m.symbol_ids_.size(); ++i) m.symbol_index_[m.symbol_ids_[i]] = i;
  m.a_ = serialize::get_matrix(r);
  m.b_ = serialize::get_matrix(r);
  m.a_avg_ = serialize::get_matrix(r);
  m.b_avg_ = serialize::get_matrix(r);
  m.a_row_counts_ = serialize::get_vector<double>(r);
  m.b_row_counts_ = serialize::get_vector<double>(r);
  m.symbol_totals_ = serialize::get_vector<double>(r);
  const bool has_last = serialize::get_bool(r);
  const auto last = serialize::get<StateId>(r);
  if (has_last) m.last_hidden_ = last;
  m.steps_ = serialize::get<std::size_t>(r);

  const std::size_t h = m.hidden_ids_.size();
  const std::size_t sy = m.symbol_ids_.size();
  const bool shapes_ok = m.a_.rows() == h && m.a_.cols() == h && m.b_.rows() == h &&
                         m.b_.cols() == sy && m.a_avg_.rows() == h && m.a_avg_.cols() == h &&
                         m.b_avg_.rows() == h && m.b_avg_.cols() == sy &&
                         m.a_row_counts_.size() == h && m.b_row_counts_.size() == h &&
                         m.symbol_totals_.size() == sy &&
                         m.hidden_index_.size() == h && m.symbol_index_.size() == sy;
  if (!shapes_ok) throw std::runtime_error("checkpoint: inconsistent online-hmm shapes");
  // observe() indexes the previous state's rows through hidden_index_.
  if (has_last && !m.hidden_index_.contains(last)) {
    throw std::runtime_error("checkpoint: online-hmm last hidden state is not a hidden state");
  }
  return m;
}

OnlineHmm OnlineHmm::load(OnlineHmmConfig cfg, std::istream& is) {
  const auto r = serialize::make_reader(is);
  return load(cfg, *r);
}

}  // namespace sentinel::hmm
