// The bounded recency cache behind every simulated cache: the DFS client's
// dentry cache, the IndexFS lease cache, Pacon's parent hints, the MDS inode
// cache and the LSM block cache.
//
// An entry expires `ttl` after its last insert (never, by default), and the
// least recently used entry is evicted once the cache holds more than
// `capacity`. find/insert/erase take transparent probes: a PathCache is
// probed with a Path or SpellingKey, whose hash is already computed, so a
// probe neither re-hashes the spelling nor builds a std::string. An empty
// value type (std::monostate) turns the cache into a residency set.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <list>
#include <string>
#include <unordered_map>

#include "fs/path.h"
#include "sim/time.h"

namespace pacon::fs {

/// Hasher for integer keys that are already well spread (path hashes, mixed
/// block ids, inode numbers): hashing them again would only burn cycles.
struct IdentityHash {
  std::size_t operator()(std::uint64_t key) const noexcept {
    return static_cast<std::size_t>(key);
  }
};

template <typename Key, typename V, typename Hash = IdentityHash, typename Eq = std::equal_to<>>
class LruTtlCache {
 public:
  static constexpr sim::SimDuration kNeverExpires = std::numeric_limits<sim::SimDuration>::max();

  explicit LruTtlCache(std::size_t capacity, sim::SimDuration ttl = kNeverExpires)
      : capacity_(capacity), ttl_(ttl) {}

  /// Value for `key` if present and fresh at time `now`; nullptr otherwise.
  template <typename Probe>
  const V* find(const Probe& key, sim::SimTime now) {
    auto it = map_.find(probe(key));
    if (it != map_.end() && it->second.expires_at < now) {
      drop(it);
      it = map_.end();
    }
    if (it == map_.end()) {
      ++misses_;
      return nullptr;
    }
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    ++hits_;
    return &it->second.value;
  }

  /// Stores `value` as the most recent entry. A present key is refreshed in
  /// place, so two callers that missed the same key leave one entry.
  template <typename Probe>
  void insert(const Probe& key, V value, sim::SimTime now) {
    if (capacity_ == 0) return;
    const sim::SimTime expires_at = now > kNeverExpires - ttl_ ? kNeverExpires : now + ttl_;
    const auto& p = probe(key);
    if (auto it = map_.find(p); it != map_.end()) {
      it->second.value = std::move(value);
      it->second.expires_at = expires_at;
      lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
      return;
    }
    auto it = map_.try_emplace(stored_key(p), Entry{std::move(value), expires_at, {}}).first;
    lru_.push_front(&it->first);
    it->second.lru_pos = lru_.begin();
    if (map_.size() > capacity_) drop(map_.find(*lru_.back()));
  }

  template <typename Probe>
  void erase(const Probe& key) {
    if (auto it = map_.find(probe(key)); it != map_.end()) drop(it);
  }

  void clear() {
    map_.clear();
    lru_.clear();
  }

  std::size_t size() const { return map_.size(); }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  struct Entry {
    [[no_unique_address]] V value;
    sim::SimTime expires_at;
    typename std::list<const Key*>::iterator lru_pos;
  };
  using Map = std::unordered_map<Key, Entry, Hash, Eq>;

  // A Path probes as its SpellingKey; every other probe goes to the map as is.
  static SpellingKey probe(const Path& path) { return SpellingKey{path}; }
  template <typename Probe>
  static const Probe& probe(const Probe& key) {
    return key;
  }
  static Key stored_key(const SpellingKey& key) { return Key(key.spelling); }
  template <typename Probe>
  static Key stored_key(const Probe& key) {
    return Key(key);
  }

  void drop(typename Map::iterator it) {
    lru_.erase(it->second.lru_pos);
    map_.erase(it);
  }

  std::size_t capacity_;
  sim::SimDuration ttl_;
  Map map_;
  // Recency order, front = most recent. It points at the keys inside the
  // map's nodes, which stay put across rehashes, so each key is stored once.
  std::list<const Key*> lru_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

/// A cache keyed by path spelling.
template <typename V>
using PathCache = LruTtlCache<std::string, V, SpellingHash, SpellingEq>;

}  // namespace pacon::fs
