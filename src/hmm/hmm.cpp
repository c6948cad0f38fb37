#include "hmm/hmm.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/kernels.h"
#include "util/serialize.h"

namespace sentinel::hmm {

namespace {

void check_distribution(const std::vector<double>& p, const char* what) {
  double s = 0.0;
  for (const double x : p) {
    if (x < -1e-12 || x > 1.0 + 1e-12) throw std::invalid_argument(std::string(what) + ": entry out of [0,1]");
    s += x;
  }
  if (std::abs(s - 1.0) > 1e-6) throw std::invalid_argument(std::string(what) + ": does not sum to 1");
}

}  // namespace

Hmm::Hmm(Matrix a, Matrix b, std::vector<double> pi)
    : a_(std::move(a)), b_(std::move(b)), pi_(std::move(pi)) {
  validate();
}

void Hmm::validate() const {
  if (a_.rows() == 0 || a_.rows() != a_.cols()) throw std::invalid_argument("Hmm: A must be square, nonempty");
  if (b_.rows() != a_.rows() || b_.cols() == 0) throw std::invalid_argument("Hmm: B shape mismatch");
  if (pi_.size() != a_.rows()) throw std::invalid_argument("Hmm: pi length mismatch");
  if (!a_.is_row_stochastic(1e-6)) throw std::invalid_argument("Hmm: A not row-stochastic");
  if (!b_.is_row_stochastic(1e-6)) throw std::invalid_argument("Hmm: B not row-stochastic");
  check_distribution(pi_, "Hmm: pi");
}

Hmm Hmm::uniform(std::size_t num_states, std::size_t num_symbols) {
  if (num_states == 0 || num_symbols == 0) throw std::invalid_argument("Hmm::uniform: zero size");
  Matrix a(num_states, num_states, 1.0 / static_cast<double>(num_states));
  Matrix b(num_states, num_symbols, 1.0 / static_cast<double>(num_symbols));
  std::vector<double> pi(num_states, 1.0 / static_cast<double>(num_states));
  return Hmm(std::move(a), std::move(b), std::move(pi));
}

Hmm Hmm::random(std::size_t num_states, std::size_t num_symbols, Rng& rng) {
  if (num_states == 0 || num_symbols == 0) throw std::invalid_argument("Hmm::random: zero size");
  Matrix a(num_states, num_states);
  Matrix b(num_states, num_symbols);
  for (std::size_t i = 0; i < num_states; ++i) {
    for (std::size_t j = 0; j < num_states; ++j) a(i, j) = rng.uniform(0.1, 1.0);
    for (std::size_t k = 0; k < num_symbols; ++k) b(i, k) = rng.uniform(0.1, 1.0);
  }
  a.normalize_rows();
  b.normalize_rows();
  std::vector<double> pi(num_states);
  double s = 0.0;
  for (double& x : pi) {
    x = rng.uniform(0.1, 1.0);
    s += x;
  }
  for (double& x : pi) x /= s;
  return Hmm(std::move(a), std::move(b), std::move(pi));
}

ForwardResult Hmm::forward(const Sequence& obs) const {
  if (obs.empty()) throw std::invalid_argument("Hmm::forward: empty sequence");
  const std::size_t t_len = obs.size();
  const std::size_t m = num_states();

  ForwardResult r;
  r.scaled_alpha = Matrix(t_len, m);
  r.scales.resize(t_len);

  for (const std::size_t o : obs) {
    if (o >= num_symbols()) throw std::out_of_range("Hmm::forward: symbol out of range");
  }

  // B transposed once per pass: row o of bt is the emission column b(:, o),
  // so each time step streams one contiguous row instead of a strided column.
  const auto& kk = kern::k();
  const Matrix bt = b_.transposed();
  const std::size_t astride = a_.stride();
  const std::size_t bstride = bt.stride();

  // t = 0: alpha_hat(0, i) = pi_i * b_i(o_0), rescaled to sum to 1.
  double* a0 = r.scaled_alpha.data();
  kk.mul(a0, pi_.data(), bt.data() + obs[0] * bstride, m);
  r.scales[0] = kk.normalize(a0, m);

  for (std::size_t t = 1; t < t_len; ++t) {
    const double* prev = r.scaled_alpha.data() + (t - 1) * r.scaled_alpha.stride();
    double* cur = r.scaled_alpha.data() + t * r.scaled_alpha.stride();
    // cur[j] = sum_i alpha_hat(t-1, i) a(i, j), accumulated row-by-row in
    // ascending i -- the same per-output addition order as the classic
    // nested loop.
    kk.vec_mat(prev, a_.data(), m, m, astride, cur);
    kk.mul(cur, cur, bt.data() + obs[t] * bstride, m);
    r.scales[t] = kk.normalize(cur, m);
  }

  double ll = 0.0;
  for (const double c : r.scales) ll -= std::log(c);
  r.log_likelihood = ll;
  return r;
}

Matrix Hmm::backward(const Sequence& obs, const std::vector<double>& scales) const {
  if (obs.empty()) throw std::invalid_argument("Hmm::backward: empty sequence");
  if (scales.size() != obs.size()) throw std::invalid_argument("Hmm::backward: scales mismatch");
  const std::size_t t_len = obs.size();
  const std::size_t m = num_states();

  const auto& kk = kern::k();
  const Matrix bt = b_.transposed();
  Matrix beta(t_len, m);
  double* last = beta.data() + (t_len - 1) * beta.stride();
  std::fill(last, last + m, scales[t_len - 1]);

  std::vector<double> tmp(m);
  for (std::size_t t = t_len - 1; t-- > 0;) {
    const double* next = beta.data() + (t + 1) * beta.stride();
    double* cur = beta.data() + t * beta.stride();
    // tmp[j] = b_j(o_{t+1}) * beta_hat(t+1, j) is shared by every i, so the
    // inner recursion collapses to one row-dot per state.
    kk.mul(tmp.data(), bt.data() + obs[t + 1] * bt.stride(), next, m);
    kk.mat_vec(a_.data(), tmp.data(), m, m, a_.stride(), cur);
    kk.scale(cur, m, scales[t]);
  }
  return beta;
}

double Hmm::log_likelihood(const Sequence& obs) const { return forward(obs).log_likelihood; }

double Hmm::normalized_log_likelihood(const Sequence& obs) const {
  return log_likelihood(obs) / static_cast<double>(obs.size());
}

ViterbiResult Hmm::viterbi(const Sequence& obs) const {
  if (obs.empty()) throw std::invalid_argument("Hmm::viterbi: empty sequence");
  const std::size_t t_len = obs.size();
  const std::size_t m = num_states();
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  const auto safe_log = [](double x) { return x > 0.0 ? std::log(x) : kNegInf; };

  // log() is the dominant cost of the recursion; taking it once per matrix
  // entry instead of inside the O(T*m^2) loop drops T redundant evaluations
  // per entry without changing a single arithmetic result (same doubles, in
  // the same order). The tables are built *transposed* -- log_at row j holds
  // log a(:, j), log_bt row k holds log b(:, k) -- so the recursion streams
  // contiguous rows through the max_plus kernel, whose strict-> striped
  // argmax reproduces the sequential first-max index exactly (kernels.h).
  const auto& kk = kern::k();
  const std::size_t n = num_symbols();
  Matrix log_at(m, m, kNegInf);
  Matrix log_bt(n, m, kNegInf);
  std::vector<double> log_pi(m, kNegInf);
  for (std::size_t i = 0; i < m; ++i) {
    log_pi[i] = safe_log(pi_[i]);
    for (std::size_t j = 0; j < m; ++j) log_at(j, i) = safe_log(a_(i, j));
    for (std::size_t k = 0; k < n; ++k) log_bt(k, i) = safe_log(b_(i, k));
  }

  Matrix delta(t_len, m, kNegInf);
  std::vector<std::size_t> psi(t_len * m, 0);

  if (obs[0] >= n) throw std::out_of_range("Hmm::viterbi: symbol out of range");
  {
    const double* lb = log_bt.data() + obs[0] * log_bt.stride();
    double* d0 = delta.data();
    for (std::size_t i = 0; i < m; ++i) d0[i] = log_pi[i] + lb[i];
  }
  for (std::size_t t = 1; t < t_len; ++t) {
    if (obs[t] >= n) throw std::out_of_range("Hmm::viterbi: symbol out of range");
    const double* prev = delta.data() + (t - 1) * delta.stride();
    double* cur = delta.data() + t * delta.stride();
    const double* lb = log_bt.data() + obs[t] * log_bt.stride();
    for (std::size_t j = 0; j < m; ++j) {
      const auto mp = kk.max_plus(prev, log_at.data() + j * log_at.stride(), m);
      cur[j] = mp.value + lb[j];
      psi[t * m + j] = mp.index;
    }
  }

  ViterbiResult r;
  r.path.resize(t_len);
  double best = kNegInf;
  for (std::size_t i = 0; i < m; ++i) {
    if (delta(t_len - 1, i) > best) {
      best = delta(t_len - 1, i);
      r.path[t_len - 1] = i;
    }
  }
  r.log_probability = best;
  for (std::size_t t = t_len - 1; t-- > 0;) {
    r.path[t] = psi[(t + 1) * m + r.path[t + 1]];
  }
  return r;
}

Matrix Hmm::posterior(const Sequence& obs) const {
  const auto fwd = forward(obs);
  const Matrix beta = backward(obs, fwd.scales);
  const auto& kk = kern::k();
  const std::size_t m = num_states();
  Matrix gamma(obs.size(), m);
  for (std::size_t t = 0; t < obs.size(); ++t) {
    double* g = gamma.data() + t * gamma.stride();
    kk.mul(g, fwd.scaled_alpha.data() + t * fwd.scaled_alpha.stride(),
           beta.data() + t * beta.stride(), m);
    kk.div_scale(g, m, fwd.scales[t]);
    const double norm = kk.sum(g, m);
    if (norm > 0.0) kk.div_scale(g, m, norm);
  }
  return gamma;
}

BaumWelchResult Hmm::baum_welch(const std::vector<Sequence>& sequences,
                                const BaumWelchOptions& opts) {
  if (sequences.empty()) throw std::invalid_argument("Hmm::baum_welch: no sequences");
  for (const auto& s : sequences) {
    if (s.empty()) throw std::invalid_argument("Hmm::baum_welch: empty sequence");
  }
  const std::size_t m = num_states();
  const std::size_t n = num_symbols();

  BaumWelchResult result;
  double prev_ll = -std::numeric_limits<double>::infinity();

  // Scratch reused across every (iteration, sequence, t): the E-step inner
  // loops run allocation-free.
  const auto& kk = kern::k();
  std::vector<double> g(m);
  std::vector<double> tmp(m);
  std::vector<double> row_dots(m);

  for (std::size_t iter = 0; iter < opts.max_iterations; ++iter) {
    Matrix a_num(m, m, 0.0);
    std::vector<double> a_den(m, 0.0);
    // b accumulator is kept transposed (row k = symbol k) so each time step
    // updates one contiguous row with axpy.
    Matrix bt_num(n, m, 0.0);
    std::vector<double> b_den(m, 0.0);
    std::vector<double> pi_acc(m, 0.0);
    double total_ll = 0.0;
    const Matrix bt = b_.transposed();

    for (const auto& obs : sequences) {
      const auto fwd = forward(obs);
      const auto beta = backward(obs, fwd.scales);
      total_ll += fwd.log_likelihood;
      const std::size_t t_len = obs.size();

      // gamma(t,i) proportional to alpha_hat(t,i) * beta_hat(t,i) / c_t;
      // with this scaling it is already normalized per t after dividing by
      // the row sum (numerically safer than relying on exact cancellation).
      for (std::size_t t = 0; t < t_len; ++t) {
        kk.mul(g.data(), fwd.scaled_alpha.data() + t * fwd.scaled_alpha.stride(),
               beta.data() + t * beta.stride(), m);
        kk.div_scale(g.data(), m, fwd.scales[t]);
        const double norm = kk.sum(g.data(), m);
        if (norm <= 0.0) continue;
        kk.div_scale(g.data(), m, norm);
        if (t == 0) kk.axpy(pi_acc.data(), g.data(), m, 1.0);
        kk.axpy(bt_num.data() + obs[t] * bt_num.stride(), g.data(), m, 1.0);
        kk.axpy(b_den.data(), g.data(), m, 1.0);
        if (t + 1 < t_len) kk.axpy(a_den.data(), g.data(), m, 1.0);
      }

      // xi(t,i,j) proportional to alpha_hat(t,i) a_ij b_j(o_{t+1}) beta_hat(t+1,j).
      // tmp[j] = b_j(o_{t+1}) beta_hat(t+1,j) is independent of i, so
      // sum_j xi(t,i,j) collapses to alpha_hat(t,i) * <a_row_i, tmp> and the
      // accumulation into a_num to one fused multiply-axpy per row -- xi is
      // never materialized.
      for (std::size_t t = 0; t + 1 < t_len; ++t) {
        const double* alpha_t = fwd.scaled_alpha.data() + t * fwd.scaled_alpha.stride();
        kk.mul(tmp.data(), bt.data() + obs[t + 1] * bt.stride(),
               beta.data() + (t + 1) * beta.stride(), m);
        double norm = 0.0;
        for (std::size_t i = 0; i < m; ++i) {
          row_dots[i] = kk.dot(a_.data() + i * a_.stride(), tmp.data(), m);
          norm += alpha_t[i] * row_dots[i];
        }
        if (norm <= 0.0) continue;
        const double inv = 1.0 / norm;
        for (std::size_t i = 0; i < m; ++i) {
          kk.mul_axpy(a_num.data() + i * a_num.stride(), a_.data() + i * a_.stride(),
                      tmp.data(), m, alpha_t[i] * inv);
        }
      }
    }

    result.log_likelihood_per_iter.push_back(total_ll);
    result.iterations = iter + 1;

    // M-step.
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < m; ++j) {
        a_(i, j) = a_den[i] > 0.0 ? a_num(i, j) / a_den[i] : a_(i, j);
        a_(i, j) = std::max(a_(i, j), opts.floor);
      }
      for (std::size_t k = 0; k < n; ++k) {
        b_(i, k) = b_den[i] > 0.0 ? bt_num(k, i) / b_den[i] : b_(i, k);
        b_(i, k) = std::max(b_(i, k), opts.floor);
      }
    }
    a_.normalize_rows();
    b_.normalize_rows();
    double pi_sum = 0.0;
    for (const double x : pi_acc) pi_sum += x;
    if (pi_sum > 0.0) {
      for (std::size_t i = 0; i < m; ++i) pi_[i] = std::max(pi_acc[i] / pi_sum, opts.floor);
      double s = 0.0;
      for (const double x : pi_) s += x;
      for (double& x : pi_) x /= s;
    }

    if (iter > 0 && total_ll - prev_ll < opts.tolerance) {
      result.converged = true;
      break;
    }
    prev_ll = total_ll;
  }
  return result;
}

void Hmm::save(serialize::Writer& w) const {
  serialize::tag(w, "hmm");
  serialize::put_matrix(w, a_);
  serialize::put_matrix(w, b_);
  serialize::put_vector(w, pi_);
  w.newline();
}

Hmm Hmm::load(serialize::Reader& r) {
  serialize::expect(r, "hmm");
  Matrix a = serialize::get_matrix(r);
  Matrix b = serialize::get_matrix(r);
  auto pi = serialize::get_vector<double>(r);
  return Hmm(std::move(a), std::move(b), std::move(pi));
}

Hmm::Sample Hmm::sample(std::size_t length, Rng& rng) const {
  if (length == 0) throw std::invalid_argument("Hmm::sample: zero length");
  Sample s;
  s.states.resize(length);
  s.symbols.resize(length);

  s.states[0] = rng.categorical(pi_);
  for (std::size_t t = 0; t < length; ++t) {
    if (t > 0) {
      const auto row = a_.row(s.states[t - 1]);
      s.states[t] = rng.categorical(std::vector<double>(row.begin(), row.end()));
    }
    const auto row = b_.row(s.states[t]);
    s.symbols[t] = rng.categorical(std::vector<double>(row.begin(), row.end()));
  }
  return s;
}

}  // namespace sentinel::hmm
