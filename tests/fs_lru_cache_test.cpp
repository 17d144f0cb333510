// Differential test for fs::LruTtlCache.
//
// The oracle below is the cache's earlier node-based implementation, a
// std::list recency order over a std::unordered_map, kept verbatim in
// behaviour. Seeded random sequences of find, insert, erase, clear and clock
// advances drive both, and after every step the two must agree on the
// looked-up value, size(), hits() and misses().
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

#include "fs/lru_cache.h"
#include "fs/path.h"
#include "sim/random.h"

namespace pacon::fs {
namespace {

template <typename Key, typename V, typename Hash = IdentityHash, typename Eq = std::equal_to<>>
class OracleCache {
 public:
  static constexpr sim::SimDuration kNeverExpires = std::numeric_limits<sim::SimDuration>::max();

  explicit OracleCache(std::size_t capacity, sim::SimDuration ttl = kNeverExpires)
      : capacity_(capacity), ttl_(ttl) {}

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
    V value;
    sim::SimTime expires_at;
    typename std::list<const Key*>::iterator lru_pos;
  };
  using Map = std::unordered_map<Key, Entry, Hash, Eq>;

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
  std::list<const Key*> lru_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

constexpr sim::SimDuration kNever = PathCache<int>::kNeverExpires;
constexpr sim::SimDuration kTtl = 40;

struct Config {
  std::size_t capacity;
  sim::SimDuration ttl;
};

std::vector<Config> configs() {
  std::vector<Config> out;
  for (const std::size_t capacity : {0, 1, 2, 7, 64}) {
    for (const sim::SimDuration ttl : {kTtl, kNever}) out.push_back({capacity, ttl});
  }
  return out;
}

std::string describe(const Config& c) {
  return "capacity " + std::to_string(c.capacity) +
         (c.ttl == kNever ? ", no ttl" : ", ttl " + std::to_string(c.ttl));
}

template <typename V>
bool same(const V* a, const V* b) {
  return (a == nullptr) == (b == nullptr) && (a == nullptr || *a == *b);
}

// Runs 20,000 seeded random finds, inserts, erases, clears and clock
// advances on both caches and checks after every step that they agree.
// `with_probe(k, fn)` calls `fn` with some probe form of key number `k`.
template <typename Cache, typename Oracle, typename WithProbe>
void drive(Cache& cache, Oracle& oracle, std::size_t universe, WithProbe with_probe,
           const std::string& label) {
  sim::Rng rng(universe * 7919 + 17);
  sim::SimTime now = 0;
  int value = 0;
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t roll = rng.uniform(100);
    const std::size_t k = static_cast<std::size_t>(rng.uniform(universe));
    bool agreed = true;
    if (roll < 40) {
      agreed = with_probe(k, [&](const auto& probe) {
        return same(cache.find(probe, now), oracle.find(probe, now));
      });
    } else if (roll < 80) {
      ++value;
      with_probe(k, [&](const auto& probe) {
        cache.insert(probe, value, now);
        oracle.insert(probe, value, now);
        return true;
      });
    } else if (roll < 90) {
      with_probe(k, [&](const auto& probe) {
        cache.erase(probe);
        oracle.erase(probe);
        return true;
      });
    } else if (roll < 99) {
      now += rng.uniform(13);
    } else if (rng.uniform(10) == 0) {
      cache.clear();
      oracle.clear();
    }
    ASSERT_TRUE(agreed) << label << ", step " << step;
    ASSERT_EQ(cache.size(), oracle.size()) << label << ", step " << step;
    ASSERT_EQ(cache.hits(), oracle.hits()) << label << ", step " << step;
    ASSERT_EQ(cache.misses(), oracle.misses()) << label << ", step " << step;
  }
}

TEST(LruTtlCacheDiff, PathCacheMatchesOracleForEveryProbeForm) {
  for (const Config& c : configs()) {
    PathCache<int> cache(c.capacity, c.ttl);
    OracleCache<std::string, int, SpellingHash, SpellingEq> oracle(c.capacity, c.ttl);
    const std::size_t universe = 2 * c.capacity + 5;
    std::vector<Path> paths;
    for (std::size_t i = 0; i < universe; ++i) {
      // Some spellings fit the small-string buffer, some do not.
      paths.push_back(Path::parse(i % 2 ? "/d/" + std::to_string(i)
                                        : "/deeper/directory/name/" + std::to_string(i)));
    }
    sim::Rng form_rng(c.capacity + 3);
    const auto with_probe = [&](std::size_t k, const auto& fn) {
      const Path& path = paths[k];
      switch (form_rng.uniform(3)) {
        case 0:
          return fn(path);
        case 1:
          return fn(SpellingKey{path});
        default:
          return fn(path.str());
      }
    };
    drive(cache, oracle, universe, with_probe, "path cache, " + describe(c));
  }
}

TEST(LruTtlCacheDiff, IntegerCacheMatchesOracle) {
  for (const Config& c : configs()) {
    // Sequential keys (inode numbers) and spread ones (path hashes) both.
    for (const bool sequential : {true, false}) {
      LruTtlCache<std::uint64_t, int> cache(c.capacity, c.ttl);
      OracleCache<std::uint64_t, int> oracle(c.capacity, c.ttl);
      const std::size_t universe = 2 * c.capacity + 5;
      std::vector<std::uint64_t> keys;
      for (std::size_t i = 0; i < universe; ++i) {
        keys.push_back(sequential ? i + 1 : sim::Rng::hash("key" + std::to_string(i)));
      }
      const auto with_probe = [&](std::size_t k, const auto& fn) { return fn(keys[k]); };
      drive(cache, oracle, universe, with_probe,
            std::string(sequential ? "sequential" : "spread") + " keys, " + describe(c));
    }
  }
}

TEST(LruTtlCacheDiff, ExpiredKeyReinsertedIsRefreshedInPlace) {
  LruTtlCache<std::uint64_t, int> cache(2, 10);
  cache.insert(1, 10, 0);
  cache.insert(2, 20, 5);
  ASSERT_NE(cache.find(1, 6), nullptr);  // 1 becomes the most recent
  // Key 1 expired at 10; re-inserting it must reuse its entry rather than
  // add one, so the least recent key 2 is not evicted.
  cache.insert(1, 11, 12);
  EXPECT_EQ(cache.size(), 2u);
  ASSERT_NE(cache.find(1, 12), nullptr);
  EXPECT_EQ(*cache.find(1, 12), 11);
  ASSERT_NE(cache.find(2, 12), nullptr);
  EXPECT_EQ(*cache.find(2, 12), 20);
}

TEST(LruTtlCacheDiff, ExpiredMostRecentEntryDoesNotShieldLiveTail) {
  LruTtlCache<std::uint64_t, int> cache(2, 10);
  cache.insert(1, 10, 0);                // expires at 10
  cache.insert(2, 20, 5);                // expires at 15
  ASSERT_NE(cache.find(1, 6), nullptr);  // 1 becomes the most recent
  // At 12 key 1 is expired but still stored at the most-recent end; a full
  // cache evicts its least recent entry, the live key 2.
  cache.insert(3, 30, 12);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.find(2, 12), nullptr);
  EXPECT_EQ(cache.find(1, 12), nullptr);
  ASSERT_NE(cache.find(3, 12), nullptr);
  EXPECT_EQ(cache.size(), 1u);
}

}  // namespace
}  // namespace pacon::fs
