// Per-sensor records keyed by SensorId.
//
// Every module that keeps state for each sensor -- the alarm bank's filters,
// the screen bank's monitors, the track manager's tracks and pooled M_CE, the
// windower's slot numbers -- finds a sensor's record through one SensorTable.
// Ids below kDenseLimit (every real deployment) index a flat vector, so a
// lookup on the per-window path is array indexing; larger ids fall back to an
// ordered map. Iteration is in ascending id, the order in which every
// per-sensor checkpoint section is written, and AscendingIds is how a load
// holds a section to that order.

#pragma once

#include <algorithm>
#include <cstddef>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "trace/record.h"

namespace sentinel {

template <typename T>
class SensorTable {
 public:
  static constexpr SensorId kDenseLimit = 1u << 16;

  /// The record of `id`, or nullptr if it has none.
  const T* find(SensorId id) const {
    if (id < kDenseLimit) {
      return id < dense_.size() && dense_[id].has_value() ? &*dense_[id] : nullptr;
    }
    const auto it = sparse_.find(id);
    return it == sparse_.end() ? nullptr : &it->second;
  }
  T* find(SensorId id) { return const_cast<T*>(std::as_const(*this).find(id)); }

  /// The record of `id`, built from `args` if it had none; `second` says
  /// whether this call built it. A reference into the table stays valid
  /// until the next emplace of a new id.
  template <typename... Args>
  std::pair<T&, bool> emplace(SensorId id, Args&&... args) {
    if (id < dense_.size() && dense_[id].has_value()) return {*dense_[id], false};
    return insert(id, std::forward<Args>(args)...);
  }

  /// Sensors that have a record.
  std::size_t size() const { return size_; }

  void clear() {
    dense_.clear();
    sparse_.clear();
    size_ = 0;
  }

  /// fn(id, record) for every record, in ascending id.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t id = 0; id < dense_.size(); ++id) {
      if (dense_[id].has_value()) fn(static_cast<SensorId>(id), *dense_[id]);
    }
    for (const auto& [id, record] : sparse_) fn(id, record);
  }

 private:
  /// emplace() past the dense hit: out of line, so that the hit stays small
  /// enough to inline into a per-sensor loop.
  template <typename... Args>
  __attribute__((noinline)) std::pair<T&, bool> insert(SensorId id, Args&&... args) {
    if (id < kDenseLimit) {
      if (id >= dense_.size()) {
        // Geometric: ascending first-window ids would otherwise reallocate
        // once per sensor.
        const std::size_t grown = std::max<std::size_t>(id + 1, dense_.size() * 2);
        dense_.resize(std::min<std::size_t>(grown, kDenseLimit));
      }
      dense_[id].emplace(std::forward<Args>(args)...);
      ++size_;
      return {*dense_[id], true};
    }
    const auto [it, created] = sparse_.try_emplace(id, std::forward<Args>(args)...);
    if (created) ++size_;
    return {it->second, created};
  }

  std::vector<std::optional<T>> dense_;
  std::map<SensorId, T> sparse_;
  std::size_t size_ = 0;
};

/// The ids of one per-sensor checkpoint section, checked as a load reads
/// them. save() walks its SensorTable, so the ids it writes strictly ascend;
/// a repeated id would load a second record over the first one (two track
/// lists for one sensor, a screen monitor counted twice), so check() refuses
/// a repeat or a descent with std::runtime_error.
class AscendingIds {
 public:
  SensorId check(SensorId id) {
    if (any_ && id <= last_) {
      throw std::runtime_error("checkpoint: sensor " + std::to_string(id) + " listed after " +
                               std::to_string(last_) + "; ids must strictly ascend");
    }
    any_ = true;
    last_ = id;
    return id;
  }

 private:
  bool any_ = false;
  SensorId last_ = 0;
};

}  // namespace sentinel
