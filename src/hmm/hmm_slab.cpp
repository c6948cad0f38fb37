#include "hmm/hmm_slab.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "util/kernels.h"
#include "util/metrics.h"

namespace sentinel::hmm {

namespace {
constexpr std::size_t kInitialLanes = 8;
constexpr std::size_t kInitialStates = 4;
constexpr double kRowSumTol = 1e-6;
}  // namespace

OnlineHmmSlab::OnlineHmmSlab(OnlineHmmConfig cfg) : cfg_(cfg) {
  if (!(cfg_.beta > 0.0 && cfg_.beta < 1.0)) {
    throw std::invalid_argument("OnlineHmmSlab: beta must be in (0,1)");
  }
  if (!(cfg_.gamma > 0.0 && cfg_.gamma < 1.0)) {
    throw std::invalid_argument("OnlineHmmSlab: gamma must be in (0,1)");
  }
  h_cap_ = kInitialStates;
  s_cap_ = kInitialStates;
  hs_ = kern::padded(h_cap_);
  ss_ = kern::padded(s_cap_);
}

void OnlineHmmSlab::grow_lanes(std::size_t need) {
  const std::size_t old = lane_cap_;
  lane_cap_ = std::max(need, std::max(kInitialLanes, old * 2));
  a_.resize(lane_cap_ * a_tile(), 0.0);
  a_avg_.resize(lane_cap_ * a_tile(), 0.0);
  b_.resize(lane_cap_ * b_tile(), 0.0);
  b_avg_.resize(lane_cap_ * b_tile(), 0.0);
  hidden_ids_.resize(lane_cap_ * h_cap_, 0);
  symbol_ids_.resize(lane_cap_ * s_cap_, 0);
  a_row_counts_.resize(lane_cap_ * h_cap_, 0.0);
  b_row_counts_.resize(lane_cap_ * h_cap_, 0.0);
  symbol_totals_.resize(lane_cap_ * s_cap_, 0.0);
  n_hidden_.resize(lane_cap_, 0);
  n_symbols_.resize(lane_cap_, 0);
  last_hidden_.resize(lane_cap_, 0);
  has_last_.resize(lane_cap_, 0);
  in_use_.resize(lane_cap_, 0);
  steps_.resize(lane_cap_, 0);
  // Descending push so lanes are claimed in ascending order.
  for (std::size_t l = lane_cap_; l > old; --l) {
    free_lanes_.push_back(static_cast<std::uint32_t>(l - 1));
  }
}

std::uint32_t OnlineHmmSlab::open_lane() {
  if (free_lanes_.empty()) grow_lanes(lane_cap_ + 1);
  const std::uint32_t lane = free_lanes_.back();
  free_lanes_.pop_back();
  in_use_[lane] = 1;
  return lane;
}

void OnlineHmmSlab::clear_lane(std::uint32_t lane) {
  const std::size_t h = n_hidden_[lane];
  const std::size_t s = n_symbols_[lane];
  for (std::size_t r = 0; r < h; ++r) {
    std::memset(a_row(lane, r), 0, hs_ * sizeof(double));
    std::memset(a_avg_.data() + lane * a_tile() + r * hs_, 0, hs_ * sizeof(double));
    std::memset(b_row(lane, r), 0, ss_ * sizeof(double));
    std::memset(b_avg_.data() + lane * b_tile() + r * ss_, 0, ss_ * sizeof(double));
  }
  std::fill_n(hidden_ids_.begin() + static_cast<std::ptrdiff_t>(lane * h_cap_), h, 0);
  std::fill_n(symbol_ids_.begin() + static_cast<std::ptrdiff_t>(lane * s_cap_), s, 0);
  std::fill_n(a_row_counts_.begin() + static_cast<std::ptrdiff_t>(lane * h_cap_), h, 0.0);
  std::fill_n(b_row_counts_.begin() + static_cast<std::ptrdiff_t>(lane * h_cap_), h, 0.0);
  std::fill_n(symbol_totals_.begin() + static_cast<std::ptrdiff_t>(lane * s_cap_), s, 0.0);
  n_hidden_[lane] = 0;
  n_symbols_[lane] = 0;
  last_hidden_[lane] = 0;
  has_last_[lane] = 0;
  steps_[lane] = 0;
}

void OnlineHmmSlab::free_lane(std::uint32_t lane) {
  if (lane >= lane_cap_ || in_use_[lane] == 0) {
    throw std::logic_error("OnlineHmmSlab::free_lane: lane not in use");
  }
  clear_lane(lane);
  in_use_[lane] = 0;
  free_lanes_.push_back(lane);
}

std::size_t OnlineHmmSlab::index_of_hidden(std::uint32_t lane, StateId id) const {
  const StateId* seg = hidden_ids_.data() + lane * h_cap_;
  const std::size_t n = n_hidden_[lane];
  for (std::size_t i = 0; i < n; ++i) {
    if (seg[i] == id) return i;
  }
  throw std::logic_error("OnlineHmmSlab: last-hidden id not interned");
}

std::size_t OnlineHmmSlab::intern_symbol(std::uint32_t lane, StateId id) {
  const StateId* seg = symbol_ids_.data() + lane * s_cap_;
  const std::size_t n = n_symbols_[lane];
  // First-seen append order, exactly like OnlineHmm's map interning: a lane
  // holds a handful of symbols, so the linear scan beats the tree walk.
  for (std::size_t i = 0; i < n; ++i) {
    if (seg[i] == id) return i;
  }
  if (n == s_cap_) grow_caps(h_cap_, s_cap_ * 2);
  symbol_ids_[lane * s_cap_ + n] = id;
  n_symbols_[lane] = static_cast<std::uint32_t>(n + 1);
  // The new column and its total are already zero (cleared at free/growth).
  return n;
}

std::size_t OnlineHmmSlab::intern_hidden(std::uint32_t lane, StateId id, StateId first_symbol) {
  const StateId* seg = hidden_ids_.data() + lane * h_cap_;
  const std::size_t n = n_hidden_[lane];
  for (std::size_t i = 0; i < n; ++i) {
    if (seg[i] == id) return i;
  }
  if (n == h_cap_) grow_caps(h_cap_ * 2, s_cap_);
  // Pre-grow the symbol side if the nested intern below would repack: the
  // repack validator must never run while the new row's emission delta is
  // still unwritten (it would see a non-stochastic row).
  if (n_symbols_[lane] == s_cap_) {
    const StateId* sseg = symbol_ids_.data() + lane * s_cap_;
    bool known = false;
    for (std::size_t i = 0; i < n_symbols_[lane] && !known; ++i) {
      known = sseg[i] == first_symbol;
    }
    if (!known) grow_caps(h_cap_, s_cap_ * 2);
  }
  hidden_ids_[lane * h_cap_ + n] = id;
  n_hidden_[lane] = static_cast<std::uint32_t>(n + 1);
  // Fresh identity transition row, then a delta emission row on the state's
  // first observed symbol -- the same order OnlineHmm::intern_hidden uses.
  a_row(lane, n)[n] = 1.0;
  const std::size_t sym = intern_symbol(lane, first_symbol);
  b_row(lane, n)[sym] = 1.0;
  return n;
}

void OnlineHmmSlab::observe(std::uint32_t lane, StateId hidden, StateId symbol) {
  const std::size_t j = intern_hidden(lane, hidden, symbol);
  const std::size_t l = intern_symbol(lane, symbol);

  // Row pointers are taken after interning, which may have repacked.
  // Scaling the full padded stride is exact: slack cells hold +0.0.
  const auto& kk = kern::k();
  if (has_last_[lane] != 0 && last_hidden_[lane] != hidden) {
    const std::size_t i = index_of_hidden(lane, last_hidden_[lane]);
    double* row = a_row(lane, i);
    kk.scale(row, hs_, 1.0 - cfg_.beta);
    row[j] += cfg_.beta;
    a_avg_[lane * a_tile() + i * hs_ + j] += 1.0;
    a_row_counts_[lane * h_cap_ + i] += 1.0;
  }

  double* brow = b_row(lane, j);
  kk.scale(brow, ss_, 1.0 - cfg_.gamma);
  brow[l] += cfg_.gamma;
  b_avg_[lane * b_tile() + j * ss_ + l] += 1.0;
  b_row_counts_[lane * h_cap_ + j] += 1.0;
  symbol_totals_[lane * s_cap_ + l] += 1.0;

  last_hidden_[lane] = hidden;
  has_last_[lane] = 1;
  ++steps_[lane];
}

void OnlineHmmSlab::grow_caps(std::size_t h_need, std::size_t s_need) {
  const std::size_t nh = std::max(h_need, h_cap_);
  const std::size_t ns = std::max(s_need, s_cap_);
  if (nh == h_cap_ && ns == s_cap_) return;
  const std::size_t nhs = kern::padded(nh);
  const std::size_t nss = kern::padded(ns);

  std::vector<double> na(lane_cap_ * nh * nhs, 0.0);
  std::vector<double> na_avg(lane_cap_ * nh * nhs, 0.0);
  std::vector<double> nb(lane_cap_ * nh * nss, 0.0);
  std::vector<double> nb_avg(lane_cap_ * nh * nss, 0.0);
  std::vector<StateId> nhid(lane_cap_ * nh, 0);
  std::vector<StateId> nsym(lane_cap_ * ns, 0);
  std::vector<double> narc(lane_cap_ * nh, 0.0);
  std::vector<double> nbrc(lane_cap_ * nh, 0.0);
  std::vector<double> ntot(lane_cap_ * ns, 0.0);

  for (std::size_t lane = 0; lane < lane_cap_; ++lane) {
    if (in_use_[lane] == 0) continue;  // freed lanes are all-zero already
    const std::size_t h = n_hidden_[lane];
    const std::size_t s = n_symbols_[lane];
    for (std::size_t r = 0; r < h; ++r) {
      std::memcpy(na.data() + lane * nh * nhs + r * nhs,
                  a_.data() + lane * a_tile() + r * hs_, h * sizeof(double));
      std::memcpy(na_avg.data() + lane * nh * nhs + r * nhs,
                  a_avg_.data() + lane * a_tile() + r * hs_, h * sizeof(double));
      std::memcpy(nb.data() + lane * nh * nss + r * nss,
                  b_.data() + lane * b_tile() + r * ss_, s * sizeof(double));
      std::memcpy(nb_avg.data() + lane * nh * nss + r * nss,
                  b_avg_.data() + lane * b_tile() + r * ss_, s * sizeof(double));
    }
    std::copy_n(hidden_ids_.begin() + static_cast<std::ptrdiff_t>(lane * h_cap_), h,
                nhid.begin() + static_cast<std::ptrdiff_t>(lane * nh));
    std::copy_n(symbol_ids_.begin() + static_cast<std::ptrdiff_t>(lane * s_cap_), s,
                nsym.begin() + static_cast<std::ptrdiff_t>(lane * ns));
    std::copy_n(a_row_counts_.begin() + static_cast<std::ptrdiff_t>(lane * h_cap_), h,
                narc.begin() + static_cast<std::ptrdiff_t>(lane * nh));
    std::copy_n(b_row_counts_.begin() + static_cast<std::ptrdiff_t>(lane * h_cap_), h,
                nbrc.begin() + static_cast<std::ptrdiff_t>(lane * nh));
    std::copy_n(symbol_totals_.begin() + static_cast<std::ptrdiff_t>(lane * s_cap_), s,
                ntot.begin() + static_cast<std::ptrdiff_t>(lane * ns));
  }

  a_ = std::move(na);
  a_avg_ = std::move(na_avg);
  b_ = std::move(nb);
  b_avg_ = std::move(nb_avg);
  hidden_ids_ = std::move(nhid);
  symbol_ids_ = std::move(nsym);
  a_row_counts_ = std::move(narc);
  b_row_counts_ = std::move(nbrc);
  symbol_totals_ = std::move(ntot);
  h_cap_ = nh;
  s_cap_ = ns;
  hs_ = nhs;
  ss_ = nss;

  ++repacks_;
  util::metrics().counter("hmm.slab.repacks").inc();
  validate_after_repack();
}

void OnlineHmmSlab::validate_after_repack() const {
  if (lane_cap_ == 0) return;
  // Two moment sweeps per arena, one mat_vec each: the all-ones vector
  // (row sums) and the column-index ramp (index-weighted mass). A logical
  // row of a_/b_ is a probability distribution, so its sum must be ~1 and
  // its weighted mass at most (logical cols - 1); a row the repack
  // mis-copied -- shifted cells, or mass leaked into capacity slack --
  // breaks one of the two. Rows past the logical shape must sum to zero.
  const auto& kk = kern::k();
  const std::size_t max_stride = std::max(hs_, ss_);
  std::vector<double> xs(2 * max_stride, 0.0);
  for (std::size_t i = 0; i < max_stride; ++i) {
    xs[i] = 1.0;
    xs[max_stride + i] = static_cast<double>(i);
  }
  const std::size_t rows = lane_cap_ * h_cap_;
  std::vector<double> moments(2 * rows, 0.0);

  const auto check = [&](const std::vector<double>& arena, std::size_t stride,
                         const std::uint32_t* logical_cols, const char* what) {
    kk.mat_vec(arena.data(), xs.data(), rows, stride, stride, moments.data());
    kk.mat_vec(arena.data(), xs.data() + max_stride, rows, stride, stride, moments.data() + rows);
    for (std::size_t lane = 0; lane < lane_cap_; ++lane) {
      const std::size_t h = in_use_[lane] != 0 ? n_hidden_[lane] : 0;
      const std::size_t cols = in_use_[lane] != 0 ? logical_cols[lane] : 0;
      for (std::size_t r = 0; r < h_cap_; ++r) {
        const double sum = moments[lane * h_cap_ + r];
        const double mass = moments[rows + lane * h_cap_ + r];
        if (r < h) {
          const bool sum_ok = sum > 1.0 - kRowSumTol && sum < 1.0 + kRowSumTol;
          const bool mass_ok =
              mass <= static_cast<double>(cols == 0 ? 0 : cols - 1) + kRowSumTol;
          if (!sum_ok || !mass_ok) {
            throw std::runtime_error(std::string("OnlineHmmSlab repack corrupted ") + what);
          }
        } else if (sum != 0.0) {
          throw std::runtime_error(std::string("OnlineHmmSlab repack leaked into ") + what);
        }
      }
    }
  };

  check(a_, hs_, n_hidden_.data(), "transition rows");
  check(b_, ss_, n_symbols_.data(), "emission rows");
}

OnlineHmm OnlineHmmSlab::materialize(std::uint32_t lane) const {
  if (lane >= lane_cap_ || in_use_[lane] == 0) {
    throw std::logic_error("OnlineHmmSlab::materialize: lane not in use");
  }
  OnlineHmm m(cfg_);
  const std::size_t h = n_hidden_[lane];
  const std::size_t s = n_symbols_[lane];
  const StateId* hseg = hidden_ids_.data() + lane * h_cap_;
  const StateId* sseg = symbol_ids_.data() + lane * s_cap_;
  m.hidden_ids_.assign(hseg, hseg + h);
  m.symbol_ids_.assign(sseg, sseg + s);
  for (std::size_t i = 0; i < h; ++i) m.hidden_index_.emplace(hseg[i], i);
  for (std::size_t i = 0; i < s; ++i) m.symbol_index_.emplace(sseg[i], i);
  if (h > 0) {
    m.a_ = Matrix(h, h);
    m.a_avg_ = Matrix(h, h);
    m.b_ = Matrix(h, s);
    m.b_avg_ = Matrix(h, s);
    for (std::size_t r = 0; r < h; ++r) {
      const double* ar = a_.data() + lane * a_tile() + r * hs_;
      const double* aar = a_avg_.data() + lane * a_tile() + r * hs_;
      const double* br = b_.data() + lane * b_tile() + r * ss_;
      const double* bar = b_avg_.data() + lane * b_tile() + r * ss_;
      std::copy_n(ar, h, m.a_.row(r).data());
      std::copy_n(aar, h, m.a_avg_.row(r).data());
      std::copy_n(br, s, m.b_.row(r).data());
      std::copy_n(bar, s, m.b_avg_.row(r).data());
    }
  }
  m.a_row_counts_.assign(a_row_counts_.begin() + static_cast<std::ptrdiff_t>(lane * h_cap_),
                         a_row_counts_.begin() + static_cast<std::ptrdiff_t>(lane * h_cap_ + h));
  m.b_row_counts_.assign(b_row_counts_.begin() + static_cast<std::ptrdiff_t>(lane * h_cap_),
                         b_row_counts_.begin() + static_cast<std::ptrdiff_t>(lane * h_cap_ + h));
  m.symbol_totals_.assign(symbol_totals_.begin() + static_cast<std::ptrdiff_t>(lane * s_cap_),
                          symbol_totals_.begin() + static_cast<std::ptrdiff_t>(lane * s_cap_ + s));
  if (has_last_[lane] != 0) m.last_hidden_ = last_hidden_[lane];
  m.steps_ = steps_[lane];

  return m;
}

void OnlineHmmSlab::adopt(std::uint32_t lane, const OnlineHmm& src) {
  if (lane >= lane_cap_ || in_use_[lane] == 0) {
    throw std::logic_error("OnlineHmmSlab::adopt: lane not in use");
  }
  if (n_hidden_[lane] != 0 || steps_[lane] != 0) {
    throw std::logic_error("OnlineHmmSlab::adopt: lane not fresh");
  }
  const std::size_t h = src.num_hidden();
  const std::size_t s = src.num_symbols();
  if (h > h_cap_ || s > s_cap_) {
    grow_caps(std::max(h, h_cap_), std::max(s, s_cap_));
  }
  std::copy_n(src.hidden_ids_.begin(), h,
              hidden_ids_.begin() + static_cast<std::ptrdiff_t>(lane * h_cap_));
  std::copy_n(src.symbol_ids_.begin(), s,
              symbol_ids_.begin() + static_cast<std::ptrdiff_t>(lane * s_cap_));
  for (std::size_t r = 0; r < h; ++r) {
    std::copy_n(src.a_.row(r).data(), h, a_row(lane, r));
    std::copy_n(src.a_avg_.row(r).data(), h, a_avg_.data() + lane * a_tile() + r * hs_);
    std::copy_n(src.b_.row(r).data(), s, b_row(lane, r));
    std::copy_n(src.b_avg_.row(r).data(), s, b_avg_.data() + lane * b_tile() + r * ss_);
  }
  std::copy_n(src.a_row_counts_.begin(), h,
              a_row_counts_.begin() + static_cast<std::ptrdiff_t>(lane * h_cap_));
  std::copy_n(src.b_row_counts_.begin(), h,
              b_row_counts_.begin() + static_cast<std::ptrdiff_t>(lane * h_cap_));
  std::copy_n(src.symbol_totals_.begin(), s,
              symbol_totals_.begin() + static_cast<std::ptrdiff_t>(lane * s_cap_));
  n_hidden_[lane] = static_cast<std::uint32_t>(h);
  n_symbols_[lane] = static_cast<std::uint32_t>(s);
  if (src.last_hidden_.has_value()) {
    last_hidden_[lane] = *src.last_hidden_;
    has_last_[lane] = 1;
  }
  steps_[lane] = src.steps_;
}

}  // namespace sentinel::hmm
