// Sorted flat map: the lookup table behind the per-packet and per-batch
// receive paths (NIC connection demux and datagram flows, d-mon peers and
// interests, KECho transports).
//
// Keys and values live in two parallel vectors kept in ascending key
// order, so a lookup is a binary search over one contiguous key array and
// a walk visits entries in key order — the order the std::map it replaces
// gave, which the published values depend on (sums, render order). An
// insert or erase shifts the tail, which is cheap at the table sizes these
// hold (one entry per peer or connection of one node) and free when keys
// arrive in ascending order, as they do at set-up. Inserts invalidate
// references into the table.
#pragma once

#include <algorithm>
#include <cstddef>
#include <type_traits>
#include <utility>
#include <vector>

namespace dproc {

template <typename K, typename V>
class FlatMap {
  template <bool Const>
  class Iter {
    using Map = std::conditional_t<Const, const FlatMap, FlatMap>;
    using Ref = std::pair<const K&, std::conditional_t<Const, const V&, V&>>;

   public:
    Iter(Map& map, std::size_t i) : map_(&map), i_(i) {}
    Ref operator*() const { return Ref{map_->keys_[i_], map_->values_[i_]}; }
    Iter& operator++() {
      ++i_;
      return *this;
    }
    bool operator!=(const Iter& other) const { return i_ != other.i_; }

   private:
    Map* map_;
    std::size_t i_;
  };

 public:
  [[nodiscard]] bool empty() const { return keys_.empty(); }
  [[nodiscard]] std::size_t size() const { return keys_.size(); }

  [[nodiscard]] V* find(const K& key) {
    const std::size_t i = index_of(key);
    return i == keys_.size() ? nullptr : &values_[i];
  }
  [[nodiscard]] const V* find(const K& key) const {
    const std::size_t i = index_of(key);
    return i == keys_.size() ? nullptr : &values_[i];
  }

  /// The entry for `key`, value-initialised first if absent; the flag is
  /// true when it was inserted.
  std::pair<V&, bool> try_emplace(const K& key) {
    const std::size_t i = lower_bound(key);
    if (i < keys_.size() && keys_[i] == key) return {values_[i], false};
    keys_.insert(keys_.begin() + static_cast<std::ptrdiff_t>(i), key);
    values_.emplace(values_.begin() + static_cast<std::ptrdiff_t>(i));
    return {values_[i], true};
  }

  /// Removes `key`; false when it was absent.
  bool erase(const K& key) {
    const std::size_t i = index_of(key);
    if (i == keys_.size()) return false;
    keys_.erase(keys_.begin() + static_cast<std::ptrdiff_t>(i));
    values_.erase(values_.begin() + static_cast<std::ptrdiff_t>(i));
    return true;
  }

  void clear() {
    keys_.clear();
    values_.clear();
  }

  /// Entries in ascending key order, as (key, value) reference pairs.
  Iter<false> begin() { return {*this, 0}; }
  Iter<false> end() { return {*this, keys_.size()}; }
  Iter<true> begin() const { return {*this, 0}; }
  Iter<true> end() const { return {*this, keys_.size()}; }

 private:
  [[nodiscard]] std::size_t lower_bound(const K& key) const {
    return static_cast<std::size_t>(
        std::lower_bound(keys_.begin(), keys_.end(), key) - keys_.begin());
  }
  /// Position of `key`, or size() when absent.
  [[nodiscard]] std::size_t index_of(const K& key) const {
    const std::size_t i = lower_bound(key);
    return i < keys_.size() && keys_[i] == key ? i : keys_.size();
  }

  std::vector<K> keys_;    // ascending
  std::vector<V> values_;  // values_[i] belongs to keys_[i]
};

}  // namespace dproc
