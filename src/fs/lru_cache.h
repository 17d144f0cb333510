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
// linear-probing index of slot numbers finds them. Freed slots form a free
// list. An expired entry stays until it is evicted or probed: dropping it
// early would change which entry a later capacity eviction removes.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

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
    std::size_t pos = locate(probe(key));
    if (pos != kAbsent && slots_[index_[pos]].expires_at < now) {
      remove(pos);
      pos = kAbsent;
    }
    if (pos == kAbsent) {
      ++misses_;
      return nullptr;
    }
    const std::uint32_t s = index_[pos];
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
    if (const std::size_t pos = locate(p); pos != kAbsent) {
      const std::uint32_t s = index_[pos];
      slots_[s].value = std::move(value);
      slots_[s].expires_at = expires_at;
      touch(s);
      return;
    }
    if (size_ == capacity_) remove(position_of(tail_));
    if ((size_ + 1) * 4 > index_.size() * 3) grow_index();

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
    slot.value = std::move(value);
    slot.expires_at = expires_at;
    link_front(s);
    std::size_t pos = home(hash_(p));
    while (index_[pos] != kNil) pos = (pos + 1) & mask();
    index_[pos] = s;
    ++size_;
  }

  template <typename Probe>
  void erase(const Probe& key) {
    if (const std::size_t pos = locate(probe(key)); pos != kAbsent) remove(pos);
  }

  void clear() {
    slots_.clear();
    std::fill(index_.begin(), index_.end(), kNil);
    head_ = tail_ = free_head_ = kNil;
    size_ = 0;
  }

  std::size_t size() const { return size_; }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  /// Null slot number: the end of a recency or free list, an empty bucket.
  static constexpr std::uint32_t kNil = std::numeric_limits<std::uint32_t>::max();
  static constexpr std::size_t kAbsent = std::numeric_limits<std::size_t>::max();

  /// One entry. `prev` points toward the most recent entry and `next` toward
  /// the least recent; a freed slot threads the free list through `next` and
  /// keeps its key's storage for the next insert to reuse.
  struct Slot {
    Key key{};
    sim::SimTime expires_at = 0;
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
    [[no_unique_address]] V value{};
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

  std::size_t mask() const { return index_.size() - 1; }
  /// Bucket a hash starts probing from. The multiply spreads the hash over
  /// the top bits, so sequential integer keys (inode numbers) do not pile
  /// up into one long run.
  std::size_t home(std::size_t hash) const {
    return static_cast<std::size_t>((static_cast<std::uint64_t>(hash) * 0x9E3779B97F4A7C15ull) >>
                                    shift_);
  }

  /// Bucket holding `key`, or kAbsent.
  template <typename Probe>
  std::size_t locate(const Probe& key) const {
    if (size_ == 0) return kAbsent;
    for (std::size_t pos = home(hash_(key));; pos = (pos + 1) & mask()) {
      const std::uint32_t s = index_[pos];
      if (s == kNil) return kAbsent;
      if (eq_(key, slots_[s].key)) return pos;
    }
  }

  /// Bucket holding slot `s`, which must be live.
  std::size_t position_of(std::uint32_t s) const {
    std::size_t pos = home(hash_(slots_[s].key));
    while (index_[pos] != s) pos = (pos + 1) & mask();
    return pos;
  }

  /// Removes the entry in bucket `pos`: unlinks its slot onto the free list
  /// and closes the gap by shifting later buckets of the run back.
  void remove(std::size_t pos) {
    const std::uint32_t s = index_[pos];
    unlink(s);
    slots_[s].next = free_head_;
    free_head_ = s;
    --size_;
    for (std::size_t next = (pos + 1) & mask(); index_[next] != kNil; next = (next + 1) & mask()) {
      const std::size_t want = home(hash_(slots_[index_[next]].key));
      // The entry at `next` may fill the gap unless its home lies cyclically
      // in (pos, next]: moving it before its home would hide it from probes.
      const bool stays = pos <= next ? (pos < want && want <= next) : (pos < want || want <= next);
      if (stays) continue;
      index_[pos] = index_[next];
      pos = next;
    }
    index_[pos] = kNil;
  }

  void grow_index() {
    std::vector<std::uint32_t> old(std::max<std::size_t>(8, 2 * index_.size()), kNil);
    old.swap(index_);
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(index_.size()));
    for (const std::uint32_t s : old) {
      if (s == kNil) continue;
      std::size_t pos = home(hash_(slots_[s].key));
      while (index_[pos] != kNil) pos = (pos + 1) & mask();
      index_[pos] = s;
    }
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
  // Power-of-two bucket array of slot numbers, at most 3/4 full.
  std::vector<std::uint32_t> index_;
  unsigned shift_ = 64;
  std::uint32_t head_ = kNil;  // most recent
  std::uint32_t tail_ = kNil;  // least recent
  std::uint32_t free_head_ = kNil;
  std::size_t size_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

/// A cache keyed by path spelling.
template <typename V>
using PathCache = LruTtlCache<std::string, V, SpellingHash, SpellingEq>;

}  // namespace pacon::fs
