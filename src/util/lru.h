// Bounded least-recently-used cache.
//
// The service layer's rendered-line and embedding caches and the
// annotation engine's digest cache all need the same thing: a map with a
// hard size bound, so a long-lived backend under a seed sweep cannot grow
// without limit. Not thread-safe — every user already serializes access
// behind its own mutex, and keeping the locking outside lets a caller
// combine a lookup and an insert under one critical section.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <utility>

namespace decompeval::util {

/// Capacity 0 disables the cache entirely: put() is a no-op and find()
/// always misses (useful for switching a cache layer off in tests).
template <typename K, typename V>
class LruCache {
 public:
  explicit LruCache(std::size_t capacity) : capacity_(capacity) {}

  /// Value for `key`, bumped to most-recently-used; nullptr on miss. The
  /// pointer is invalidated by the next put().
  const V* find(const K& key) {
    const auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    entries_.splice(entries_.begin(), entries_, it->second);
    return &it->second->second;
  }

  /// Inserts or replaces `key`, evicting the least-recently-used entry
  /// when the bound is exceeded.
  void put(const K& key, V value) {
    if (capacity_ == 0) return;
    const auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->second = std::move(value);
      entries_.splice(entries_.begin(), entries_, it->second);
      return;
    }
    entries_.emplace_front(key, std::move(value));
    index_.emplace(key, entries_.begin());
    if (entries_.size() > capacity_) {
      index_.erase(entries_.back().first);
      entries_.pop_back();
      ++evictions_;
    }
  }

  std::size_t size() const { return entries_.size(); }
  std::size_t capacity() const { return capacity_; }
  /// Entries dropped by the size bound since construction (observability:
  /// the service exposes this through its cache_stats op).
  std::uint64_t evictions() const { return evictions_; }

 private:
  std::size_t capacity_;
  std::uint64_t evictions_ = 0;
  /// Front = most recently used.
  std::list<std::pair<K, V>> entries_;
  std::unordered_map<K, typename std::list<std::pair<K, V>>::iterator> index_;
};

}  // namespace decompeval::util
