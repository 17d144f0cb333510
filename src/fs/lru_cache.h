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
//
// Storage is flat: entries live in one vector of slots that never grows past
// `capacity`, linked into recency order by 32-bit slot numbers, and a
// fs::FlatTable of 8-byte {folded hash, slot number} entries finds them.
// A slot keeps its key's hash too, unless the key is its own hash
// (IdentityHash), so an eviction finds the victim's bucket without
// re-hashing its key. Freed slots form a free list. An expired entry stays
// until it is evicted or probed: dropping it early would change which entry
// a later capacity eviction removes.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "fs/flat_table.h"
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
      : capacity_(capacity), ttl_(ttl) {
    if (capacity >= kNil) throw std::invalid_argument("LruTtlCache: capacity exceeds 2^32 - 2");
  }

  /// Value for `key` if present and fresh at time `now`; nullptr otherwise.
  /// The pointer stays valid until the next insert, which may move slots.
  template <typename Probe>
  const V* find(const Probe& key, sim::SimTime now) {
    const auto& p = probe(key);
    IndexEntry* entry = locate(p, hash_(p));
    if (entry != nullptr && slots_[entry->slot].expires_at < now) {
      remove(entry);
      entry = nullptr;
    }
    if (entry == nullptr) {
      ++misses_;
      return nullptr;
    }
    const std::uint32_t s = entry->slot;
    touch(s);
    ++hits_;
    return &slots_[s].value;
  }

  /// Stores `value` as the most recent entry. A present key is refreshed in
  /// place, so two callers that missed the same key leave one entry. A full
  /// cache evicts its least recent entry first, which leaves the same
  /// entries as inserting and then evicting.
  template <typename Probe>
  void insert(const Probe& key, V value, sim::SimTime now) {
    if (capacity_ == 0) return;
    const sim::SimTime expires_at = now > kNeverExpires - ttl_ ? kNeverExpires : now + ttl_;
    const auto& p = probe(key);
    const std::uint64_t hash = hash_(p);
    if (const IndexEntry* entry = locate(p, hash)) {
      const std::uint32_t s = entry->slot;
      slots_[s].value = std::move(value);
      slots_[s].expires_at = expires_at;
      touch(s);
      return;
    }
    if (size() == capacity_) {
      const std::uint32_t victim = tail_;
      remove(index_.find(stored_hash(victim),
                         [victim](const IndexEntry& e) { return e.slot == victim; }));
    }

    std::uint32_t s = free_head_;
    if (s != kNil) {
      free_head_ = slots_[s].next;
    } else {
      if (slots_.size() == slots_.capacity()) {
        slots_.reserve(std::min(capacity_, std::max<std::size_t>(8, 2 * slots_.size())));
      }
      s = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    Slot& slot = slots_[s];
    store_key(slot.key, p);
    if constexpr (!kKeyIsHash) slot.hash = hash;
    slot.value = std::move(value);
    slot.expires_at = expires_at;
    link_front(s);
    index_.insert(hash, IndexEntry{.slot = s});
  }

  template <typename Probe>
  void erase(const Probe& key) {
    const auto& p = probe(key);
    if (IndexEntry* entry = locate(p, hash_(p))) remove(entry);
  }

  void clear() {
    slots_.clear();
    index_.clear();
    head_ = tail_ = free_head_ = kNil;
  }

  std::size_t size() const { return index_.size(); }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  /// Null slot number: the end of a recency or free list.
  static constexpr std::uint32_t kNil = std::numeric_limits<std::uint32_t>::max();

  /// Integer keys are their own hash, so their slots need not store one.
  static constexpr bool kKeyIsHash = std::is_same_v<Hash, IdentityHash>;
  struct NoHash {};

  /// One entry. `prev` points toward the most recent entry and `next` toward
  /// the least recent; a freed slot threads the free list through `next` and
  /// keeps its key's storage for the next insert to reuse.
  struct Slot {
    Key key{};
    [[no_unique_address]] std::conditional_t<kKeyIsHash, NoHash, std::uint64_t> hash{};
    sim::SimTime expires_at = 0;
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
    [[no_unique_address]] V value{};
  };
  struct IndexEntry {
    std::uint32_t hash = 0;
    std::uint32_t slot = kNil;
  };

  // A Path probes as its SpellingKey; every other probe goes to the index as is.
  static SpellingKey probe(const Path& path) { return SpellingKey{path}; }
  template <typename Probe>
  static const Probe& probe(const Probe& key) {
    return key;
  }
  static void store_key(Key& dst, const SpellingKey& key) { dst.assign(key.spelling); }
  template <typename Probe>
  static void store_key(Key& dst, const Probe& key) {
    dst = Key(key);
  }

  /// hash_ of slot `s`'s key, without hashing it.
  std::uint64_t stored_hash(std::uint32_t s) const {
    if constexpr (kKeyIsHash) {
      return slots_[s].key;
    } else {
      return slots_[s].hash;
    }
  }

  /// Index entry of `key`, whose hash is `hash`, or nullptr.
  template <typename Probe>
  IndexEntry* locate(const Probe& key, std::uint64_t hash) {
    return index_.find(hash, [&](const IndexEntry& e) { return eq_(key, slots_[e.slot].key); });
  }

  /// Drops the entry `entry` indexes: unlinks its slot onto the free list.
  void remove(IndexEntry* entry) {
    const std::uint32_t s = entry->slot;
    index_.erase(entry);
    unlink(s);
    slots_[s].next = free_head_;
    free_head_ = s;
  }

  void link_front(std::uint32_t s) {
    slots_[s].prev = kNil;
    slots_[s].next = head_;
    if (head_ != kNil) slots_[head_].prev = s;
    head_ = s;
    if (tail_ == kNil) tail_ = s;
  }

  void unlink(std::uint32_t s) {
    Slot& slot = slots_[s];
    (slot.prev != kNil ? slots_[slot.prev].next : head_) = slot.next;
    (slot.next != kNil ? slots_[slot.next].prev : tail_) = slot.prev;
  }

  void touch(std::uint32_t s) {
    if (s == head_) return;
    unlink(s);
    link_front(s);
  }

  std::size_t capacity_;
  sim::SimDuration ttl_;
  [[no_unique_address]] Hash hash_;
  [[no_unique_address]] Eq eq_;
  std::vector<Slot> slots_;
  FlatTable<IndexEntry> index_;
  std::uint32_t head_ = kNil;  // most recent
  std::uint32_t tail_ = kNil;  // least recent
  std::uint32_t free_head_ = kNil;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

/// A cache keyed by path spelling.
template <typename V>
using PathCache = LruTtlCache<std::string, V, SpellingHash, SpellingEq>;

}  // namespace pacon::fs
