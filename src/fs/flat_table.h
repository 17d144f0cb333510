// The one open-addressing hash table: the index of fs::LruTtlCache, the kv
// server's item table, a region's pending-commit counts and the MDS's
// per-directory entry tables.
//
// Every entry stores its key's hash, so growth and deletion never re-hash a
// key, and a probe compares hashes before it looks at a key. Callers pass
// 64-bit hashes; an entry whose `hash` member is 32 bits wide stores the
// two halves folded together. That halves a table of 4-byte payloads (the
// recency cache's slot numbers) and costs a needless key compare about once
// per 2^32 entries probed. Buckets are one power-of-two array, probed linearly, that
// doubles before it is 3/4 full and halves once it is less than 1/8 full,
// so a table that drains (a commit backlog) gives its memory back while
// it drains. Deletion shifts the rest of the run back, so there are no
// tombstones. A stored hash of 0 marks an empty bucket: a key whose hash is
// stored as 0 is stored as 1 instead, which costs it nothing but one more
// key compare.
//
// The table knows nothing about keys: find and try_emplace take the key's
// hash and a predicate that tells whether an entry with that hash holds the
// key. Entries move on every insert and erase, so a pointer into the table
// is valid only until the next one.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

namespace pacon::fs {

/// `Entry` is default-constructible and movable, has a public
/// `std::uint64_t` or `std::uint32_t` member `hash`, and a
/// default-constructed entry has hash 0.
template <typename Entry>
class FlatTable {
  using StoredHash = decltype(Entry::hash);
  static_assert(std::is_same_v<StoredHash, std::uint64_t> ||
                std::is_same_v<StoredHash, std::uint32_t>);

 public:
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Length of the bucket array. Inserts and erases may resize it; clear()
  /// does not.
  std::size_t bucket_count() const { return buckets_.size(); }

  /// The entry with hash `hash` for which `match(entry)` holds, or nullptr.
  template <typename Match>
  Entry* find(std::uint64_t hash, Match&& match) {
    const std::size_t pos = locate(stored(hash), match);
    return pos == kAbsent ? nullptr : &buckets_[pos];
  }
  template <typename Match>
  const Entry* find(std::uint64_t hash, Match&& match) const {
    const std::size_t pos = locate(stored(hash), match);
    return pos == kAbsent ? nullptr : &buckets_[pos];
  }

  /// With one probe, the entry for `hash` and `match`, or a new one built by
  /// `make()` when there is none; `.second` tells whether it is new.
  template <typename Match, typename Make>
  std::pair<Entry*, bool> try_emplace(std::uint64_t hash, Match&& match, Make&& make) {
    const StoredHash h = stored(hash);
    std::size_t pos = kAbsent;
    if (!buckets_.empty()) {
      for (pos = home(h); buckets_[pos].hash != 0; pos = next(pos)) {
        if (buckets_[pos].hash == h && match(std::as_const(buckets_[pos]))) {
          return {&buckets_[pos], false};
        }
      }
    }
    if (full()) {
      grow();
      pos = free_bucket(h);
    }
    return {&place(pos, h, make()), true};
  }

  /// Stores `entry` under `hash`; the table must not hold its key yet.
  Entry& insert(std::uint64_t hash, Entry entry) {
    const StoredHash h = stored(hash);
    if (full()) grow();
    return place(free_bucket(h), h, std::move(entry));
  }

  /// Removes `entry`, a pointer this table returned since its last change.
  /// May shrink the bucket array.
  void erase(Entry* entry) {
    std::size_t pos = static_cast<std::size_t>(entry - buckets_.data());
    --size_;
    for (std::size_t at = next(pos); buckets_[at].hash != 0; at = next(at)) {
      const std::size_t want = home(buckets_[at].hash);
      // The entry at `at` may fill the gap unless its home lies cyclically
      // in (pos, at]: moving it before its home would hide it from probes.
      const bool stays = pos <= at ? (pos < want && want <= at) : (pos < want || want <= at);
      if (stays) continue;
      buckets_[pos] = std::move(buckets_[at]);
      pos = at;
    }
    buckets_[pos] = Entry{};
    if (buckets_.size() > 8 && size_ * 8 < buckets_.size()) resize(buckets_.size() / 2);
  }

  /// Destroys every entry and keeps the bucket array for the next fill.
  void clear() {
    if (size_ == 0) return;
    for (Entry& e : buckets_) {
      if (e.hash != 0) e = Entry{};
    }
    size_ = 0;
  }

  /// Calls `fn(entry)` for every entry, in bucket order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Entry& e : buckets_) {
      if (e.hash != 0) fn(e);
    }
  }

 private:
  static constexpr std::size_t kAbsent = std::numeric_limits<std::size_t>::max();

  static StoredHash stored(std::uint64_t hash) {
    const auto h = static_cast<StoredHash>(sizeof(StoredHash) == 8 ? hash : hash ^ (hash >> 32));
    return h != 0 ? h : 1;
  }

  bool full() const { return (size_ + 1) * 4 > buckets_.size() * 3; }
  std::size_t next(std::size_t pos) const { return (pos + 1) & (buckets_.size() - 1); }
  /// Bucket a hash starts probing from. The multiply spreads the hash over
  /// the top bits, so sequential integer keys (inode numbers) do not pile
  /// up into one long run.
  std::size_t home(StoredHash h) const {
    return static_cast<std::size_t>((std::uint64_t{h} * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  template <typename Match>
  std::size_t locate(StoredHash h, Match& match) const {
    if (size_ == 0) return kAbsent;
    for (std::size_t pos = home(h); buckets_[pos].hash != 0; pos = next(pos)) {
      if (buckets_[pos].hash == h && match(buckets_[pos])) return pos;
    }
    return kAbsent;
  }

  std::size_t free_bucket(StoredHash h) const {
    std::size_t pos = home(h);
    while (buckets_[pos].hash != 0) pos = next(pos);
    return pos;
  }

  Entry& place(std::size_t pos, StoredHash h, Entry entry) {
    Entry& e = buckets_[pos];
    e = std::move(entry);
    e.hash = h;
    ++size_;
    return e;
  }

  void grow() { resize(std::max<std::size_t>(8, 2 * buckets_.size())); }

  /// Moves every entry into a new array of `n` buckets.
  void resize(std::size_t n) {
    std::vector<Entry> old(n);
    old.swap(buckets_);
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(buckets_.size()));
    for (Entry& e : old) {
      if (e.hash != 0) buckets_[free_bucket(e.hash)] = std::move(e);
    }
  }

  std::vector<Entry> buckets_;
  unsigned shift_ = 64;
  std::size_t size_ = 0;
};

}  // namespace pacon::fs
