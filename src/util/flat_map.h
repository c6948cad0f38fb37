// A minimal sorted-vector map for the pipeline's per-window rows
// (WindowSummary::sensors). A std::map costs one node allocation per sensor
// per window; a flat vector cleared in place keeps its capacity, so a warm
// pipeline rebuilds its rows without touching the allocator, and it still
// offers the map-like read API (find / count / at / ordered iteration) the
// benches and examples use.
//
// find/count/at assume the keys were appended in strictly ascending order,
// the order of every window the windower closes. append() does not check
// it: the pipeline also processes hand-built windows in whatever sensor
// order they carry, and their rows iterate in that order.

#pragma once

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <utility>
#include <vector>

namespace sentinel::util {

template <typename K, typename V>
class FlatMap {
 public:
  using value_type = std::pair<K, V>;
  using const_iterator = typename std::vector<value_type>::const_iterator;
  using iterator = const_iterator;  // read-only container: keys are ordered

  FlatMap() = default;

  /// Append a key/value; lookups need `key` greater than every existing key.
  void append(const K& key, V value) { data_.emplace_back(key, std::move(value)); }

  const_iterator begin() const { return data_.begin(); }
  const_iterator end() const { return data_.end(); }

  const_iterator find(const K& key) const {
    const auto it = lower_bound(key);
    return (it != data_.end() && it->first == key) ? it : data_.end();
  }

  std::size_t count(const K& key) const { return find(key) == data_.end() ? 0 : 1; }

  const V& at(const K& key) const {
    const auto it = find(key);
    if (it == data_.end()) throw std::out_of_range("FlatMap::at: missing key");
    return it->second;
  }

  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }
  /// Drop every entry; the storage keeps its capacity.
  void clear() { data_.clear(); }

 private:
  const_iterator lower_bound(const K& key) const {
    return std::lower_bound(data_.begin(), data_.end(), key,
                            [](const value_type& v, const K& k) { return v.first < k; });
  }

  std::vector<value_type> data_;
};

}  // namespace sentinel::util
