#include "core/model_states.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "util/kernels.h"
#include "util/serialize.h"
#include "util/vecn.h"

namespace sentinel::core {

namespace {

/// Squared distance over one padded 4-wide row: (d0^2 + d1^2) + (d2^2 + d3^2),
/// exactly the 4-lane striped tree of util/kernels.h for n == 4, so it is
/// bit-identical to kern::k().dist2 on padded rows at every level. Inlined
/// here because one padded row is the hot shape (the paper's 2-3 attribute
/// dimensions) and an indirect kernel call costs more than the arithmetic.
/// This TU is compiled with -ffp-contract=off so the squares cannot fuse.
inline double dist2_stride4(const double* a, const double* b) {
#if defined(__SSE2__)
  const __m128d d01 = _mm_sub_pd(_mm_loadu_pd(a), _mm_loadu_pd(b));
  const __m128d d23 = _mm_sub_pd(_mm_loadu_pd(a + 2), _mm_loadu_pd(b + 2));
  const __m128d s01 = _mm_mul_pd(d01, d01);
  const __m128d s23 = _mm_mul_pd(d23, d23);
  const __m128d t01 = _mm_add_sd(s01, _mm_unpackhi_pd(s01, s01));
  const __m128d t23 = _mm_add_sd(s23, _mm_unpackhi_pd(s23, s23));
  return _mm_cvtsd_f64(_mm_add_sd(t01, t23));
#else
  const double d0 = a[0] - b[0];
  const double d1 = a[1] - b[1];
  const double d2 = a[2] - b[2];
  const double d3 = a[3] - b[3];
  return (d0 * d0 + d1 * d1) + (d2 * d2 + d3 * d3);
#endif
}

}  // namespace

ModelStateSet::ModelStateSet(ModelStateConfig cfg, std::vector<AttrVec> initial) : cfg_(cfg) {
  if (initial.empty()) throw std::invalid_argument("ModelStateSet: no initial states");
  if (!(cfg_.alpha > 0.0 && cfg_.alpha < 1.0)) {
    throw std::invalid_argument("ModelStateSet: alpha must be in (0,1)");
  }
  if (!(cfg_.merge_threshold >= 0.0) || !(cfg_.spawn_threshold > cfg_.merge_threshold)) {
    throw std::invalid_argument("ModelStateSet: need 0 <= merge_threshold < spawn_threshold");
  }
  dims_ = initial.front().size();
  stride_ = kern::padded(dims_);
  for (auto& c : initial) {
    if (c.size() != dims_) throw std::invalid_argument("ModelStateSet: ragged initial states");
    append_state(next_id_, c);
    ++next_id_;
  }
}

void ModelStateSet::append_state(StateId id, std::span<const double> centroid) {
  slot_of_[id] = ids_.size();
  ids_.push_back(id);
  centroids_.insert(centroids_.end(), centroid.begin(), centroid.end());
  centroids_.resize(centroids_.size() + (stride_ - dims_), 0.0);
  historical_[id] = AttrVec(centroid.begin(), centroid.end());
}

std::pair<std::size_t, double> ModelStateSet::scan_nearest(std::span<const double> p) const {
  if (p.size() != dims_) {
    throw std::invalid_argument("ModelStateSet: query dimension mismatch: " +
                                std::to_string(p.size()) + " vs " + std::to_string(dims_));
  }
  std::size_t best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  // One padded row (the paper's 2-3 attribute dimensions) is the hot shape:
  // every window scans it ~2x per sensor. dist2_stride4 above is the inlined,
  // bit-identical equivalent of a dist2_block kernel call (pads are +0.0 on
  // both sides of the subtraction).
  if (stride_ == 4) {
    double q[4] = {0.0, 0.0, 0.0, 0.0};
    std::copy(p.begin(), p.end(), q);
    const double* c = centroids_.data();
    const std::size_t n = ids_.size();
    for (std::size_t s = 0; s < n; ++s, c += 4) {
      const double d = dist2_stride4(c, q);
      if (d < best_d) {
        best_d = d;
        best = s;
      }
    }
    return {best, best_d};
  }
  const auto& k = kern::k();
  // Stack scratch keeps this const method reentrant. The common attribute
  // dimensions (2-3, padded to 4) fit the padded-query buffer; anything
  // larger falls back to a per-slot kernel call on the logical prefix, which
  // is bit-identical (zero pads contribute +0.0 to a reduction lane).
  constexpr std::size_t kMaxQuery = 64;
  constexpr std::size_t kChunk = 32;
  if (stride_ <= kMaxQuery) {
    alignas(32) double q[kMaxQuery];
    alignas(32) double d[kChunk];
    std::copy(p.begin(), p.end(), q);
    std::fill(q + dims_, q + stride_, 0.0);
    for (std::size_t s0 = 0; s0 < ids_.size(); s0 += kChunk) {
      const std::size_t cnt = std::min(kChunk, ids_.size() - s0);
      k.dist2_block(centroids_.data() + s0 * stride_, cnt, stride_, q, d);
      for (std::size_t i = 0; i < cnt; ++i) {
        if (d[i] < best_d) {
          best_d = d[i];
          best = s0 + i;
        }
      }
    }
  } else {
    for (std::size_t s = 0; s < ids_.size(); ++s) {
      const double d = k.dist2(centroids_.data() + s * stride_, p.data(), dims_);
      if (d < best_d) {
        best_d = d;
        best = s;
      }
    }
  }
  return {best, best_d};
}

std::size_t ModelStateSet::map_slot(std::span<const double> p) const {
  return scan_nearest(p).first;
}

std::vector<StateId> ModelStateSet::maybe_spawn(std::span<const AttrVec> points) {
  std::vector<StateId> created;
  const double thr2 = cfg_.spawn_threshold * cfg_.spawn_threshold;
  for (const auto& p : points) {
    if (ids_.size() >= cfg_.max_states) break;
    const double best_d = scan_nearest(p).second;
    if (best_d > thr2) {
      append_state(next_id_, p);
      created.push_back(next_id_);
      ++next_id_;
      ++spawns_;
    }
  }
  return created;
}

std::vector<StateId> ModelStateSet::maybe_spawn_mapped(std::span<const AttrVec> points,
                                                       std::vector<std::size_t>& slots) {
  std::vector<StateId> created;
  slots.clear();
  slots.reserve(points.size());
  const double thr2 = cfg_.spawn_threshold * cfg_.spawn_threshold;
  for (const auto& p : points) {
    auto [slot, best_d] = scan_nearest(p);
    if (best_d > thr2 && ids_.size() < cfg_.max_states) {
      slot = ids_.size();  // the spawned state is the point itself
      append_state(next_id_, p);
      created.push_back(next_id_);
      ++next_id_;
      ++spawns_;
    }
    slots.push_back(slot);
  }
  return created;
}

void ModelStateSet::update(const std::vector<AttrVec>& points) {
  self_slots_.clear();
  self_slots_.reserve(points.size());
  for (const auto& p : points) self_slots_.push_back(map_slot(p));
  update_labeled(points, self_slots_);
}

void ModelStateSet::update_labeled(std::span<const AttrVec> points,
                                   std::span<const std::size_t> slots) {
  if (points.size() != slots.size()) {
    throw std::invalid_argument("ModelStateSet::update_labeled: label/point size mismatch");
  }
  // eq. (5): P_k = { p_j | l_j = k }, accumulated as per-slot sums.
  acc_sum_.assign(ids_.size() * dims_, 0.0);
  acc_count_.assign(ids_.size(), 0);
  for (std::size_t j = 0; j < points.size(); ++j) {
    const std::size_t slot = slots[j];
    const AttrVec& p = points[j];
    if (p.size() != dims_) {
      throw std::invalid_argument("AttrVec dimension mismatch: " + std::to_string(dims_) +
                                  " vs " + std::to_string(p.size()));
    }
    for (std::size_t i = 0; i < dims_; ++i) acc_sum_[slot * dims_ + i] += p[i];
    ++acc_count_[slot];
  }
  // eq. (6): s_k = (1 - alpha) s_k + alpha * mean(P_k), for nonempty P_k.
  for (std::size_t slot = 0; slot < ids_.size(); ++slot) {
    const std::size_t count = acc_count_[slot];
    if (count == 0) continue;
    const std::size_t acc_off = slot * dims_;
    const std::size_t off = slot * stride_;
    for (std::size_t i = 0; i < dims_; ++i) {
      centroids_[off + i] = (1.0 - cfg_.alpha) * centroids_[off + i] +
                            cfg_.alpha * acc_sum_[acc_off + i] / static_cast<double>(count);
    }
    auto& hist = historical_[ids_[slot]];
    hist.assign(centroids_.begin() + static_cast<std::ptrdiff_t>(off),
                centroids_.begin() + static_cast<std::ptrdiff_t>(off + dims_));
  }
  merge_close_states();
}

void ModelStateSet::merge_close_states() {
  const auto& k = kern::k();
  const double thr2 = cfg_.merge_threshold * cfg_.merge_threshold;
  bool changed = true;
  while (changed && ids_.size() > 1) {
    changed = false;
    for (std::size_t i = 0; i < ids_.size() && !changed; ++i) {
      for (std::size_t j = i + 1; j < ids_.size() && !changed; ++j) {
        // Pad cells are +0.0 in every row, so the padded stride-4 distance
        // equals the logical-dims one bit-for-bit.
        const double d2 =
            stride_ == 4
                ? dist2_stride4(centroids_.data() + i * stride_, centroids_.data() + j * stride_)
                : k.dist2(centroids_.data() + i * stride_, centroids_.data() + j * stride_, dims_);
        if (d2 <= thr2) {
          // Keep the older id (smaller slot position == earlier creation,
          // since ids grow monotonically and spawns append).
          const StateId keep = ids_[i];
          const StateId drop = ids_[j];
          for (std::size_t d = 0; d < dims_; ++d) {
            centroids_[i * stride_ + d] =
                0.5 * (centroids_[i * stride_ + d] + centroids_[j * stride_ + d]);
          }
          auto& hist = historical_[keep];
          hist.assign(centroids_.begin() + static_cast<std::ptrdiff_t>(i * stride_),
                      centroids_.begin() + static_cast<std::ptrdiff_t>(i * stride_ + dims_));
          merged_into_[drop] = keep;
          // Eager path compression: every id that resolved to `drop` now
          // resolves to `keep`, so resolve() stays a single hash lookup.
          for (auto& [from, to] : resolved_) {
            if (to == drop) to = keep;
          }
          resolved_[drop] = keep;
          slot_of_.erase(drop);
          for (auto& [id, slot] : slot_of_) {
            if (slot > j) --slot;
          }
          ids_.erase(ids_.begin() + static_cast<std::ptrdiff_t>(j));
          centroids_.erase(centroids_.begin() + static_cast<std::ptrdiff_t>(j * stride_),
                           centroids_.begin() + static_cast<std::ptrdiff_t>((j + 1) * stride_));
          ++merges_;
          changed = true;
        }
      }
    }
  }
}

std::vector<ModelState> ModelStateSet::states() const {
  std::vector<ModelState> out;
  out.reserve(ids_.size());
  for (std::size_t s = 0; s < ids_.size(); ++s) {
    const auto c = centroid_at(s);
    out.push_back(ModelState{ids_[s], AttrVec(c.begin(), c.end())});
  }
  return out;
}

namespace {

/// Keys of an unordered map in ascending order -- checkpoint bytes must match
/// the std::map iteration order of the original implementation.
template <typename Map>
std::vector<StateId> sorted_keys(const Map& m) {
  std::vector<StateId> keys;
  keys.reserve(m.size());
  for (const auto& [k, v] : m) keys.push_back(k);
  std::sort(keys.begin(), keys.end());
  return keys;
}

}  // namespace

void ModelStateSet::save(serialize::Writer& w) const {
  serialize::tag(w, "model-states");
  serialize::put(w, ids_.size());
  for (std::size_t s = 0; s < ids_.size(); ++s) {
    serialize::put(w, ids_[s]);
    const auto c = centroid_at(s);
    serialize::put_vector(w, AttrVec(c.begin(), c.end()));
  }
  serialize::put(w, historical_.size());
  for (const StateId id : sorted_keys(historical_)) {
    serialize::put(w, id);
    serialize::put_vector(w, historical_.at(id));
  }
  serialize::put(w, merged_into_.size());
  for (const StateId from : sorted_keys(merged_into_)) {
    serialize::put(w, from);
    serialize::put(w, merged_into_.at(from));
  }
  serialize::put(w, next_id_);
  serialize::put(w, spawns_);
  serialize::put(w, merges_);
  w.newline();
}

ModelStateSet ModelStateSet::load(ModelStateConfig cfg, serialize::Reader& r) {
  serialize::expect(r, "model-states");
  const auto n = serialize::get<std::size_t>(r);
  if (n == 0) throw std::runtime_error("checkpoint: model-states empty");
  std::vector<StateId> ids;
  std::vector<AttrVec> centroids;
  for (std::size_t i = 0; i < n; ++i) {
    ids.push_back(serialize::get<StateId>(r));
    centroids.push_back(serialize::get_vector<double>(r));
  }
  // Construct through the public constructor (validates cfg), then overwrite
  // the state with the checkpointed one.
  ModelStateSet set(cfg, {centroids.front()});
  set.ids_.clear();
  set.centroids_.clear();
  set.slot_of_.clear();
  set.historical_.clear();
  set.next_id_ = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (centroids[i].size() != set.dims_) {
      throw std::runtime_error("checkpoint: ragged model-state centroids");
    }
    set.slot_of_[ids[i]] = i;
    set.ids_.push_back(ids[i]);
    set.centroids_.insert(set.centroids_.end(), centroids[i].begin(), centroids[i].end());
    set.centroids_.resize(set.centroids_.size() + (set.stride_ - set.dims_), 0.0);
  }
  const auto nh = serialize::get<std::size_t>(r);
  for (std::size_t i = 0; i < nh; ++i) {
    const auto id = serialize::get<StateId>(r);
    set.historical_[id] = serialize::get_vector<double>(r);
  }
  const auto nm = serialize::get<std::size_t>(r);
  for (std::size_t i = 0; i < nm; ++i) {
    const auto from = serialize::get<StateId>(r);
    set.merged_into_[from] = serialize::get<StateId>(r);
  }
  set.next_id_ = serialize::get<StateId>(r);
  set.spawns_ = serialize::get<std::size_t>(r);
  set.merges_ = serialize::get<std::size_t>(r);
  for (const StateId id : set.ids_) {
    if (set.historical_.find(id) == set.historical_.end()) {
      throw std::runtime_error("checkpoint: active state missing from history");
    }
  }
  // Rebuild the path-compressed resolution memo from the raw lineage.
  for (const auto& [from, to] : set.merged_into_) {
    StateId end = to;
    std::size_t hops = 0;
    auto it = set.merged_into_.find(end);
    while (it != set.merged_into_.end() && hops++ <= set.merged_into_.size()) {
      end = it->second;
      it = set.merged_into_.find(end);
    }
    set.resolved_[from] = end;
  }
  return set;
}

std::optional<AttrVec> ModelStateSet::centroid(StateId id) const {
  const auto it = historical_.find(id);
  if (it == historical_.end()) return std::nullopt;
  return it->second;
}

}  // namespace sentinel::core
