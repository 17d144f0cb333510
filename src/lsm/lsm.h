// Log-structured merge-tree KV store (LevelDB substitute).
//
// IndexFS keeps file metadata in per-server LevelDB tables; this store
// reproduces the architecture with real data structures -- WAL, sorted
// memtable, immutable memtables, leveled SSTable runs with bloom filters and
// background compaction -- while charging I/O to a SimDisk. Writes are
// memtable-speed (plus WAL policy), reads probe down the levels and pay a
// block read per probed run that misses the block cache, and compaction
// consumes disk bandwidth in the background: the three behaviours that shape
// IndexFS's performance in the paper's experiments.
//
// Keys and values are opaque strings; deletes are tombstones; scans merge
// all live runs (newest shadows oldest).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "fs/lru_cache.h"
#include "sim/disk.h"
#include "sim/simulation.h"
#include "sim/sync.h"

namespace pacon::lsm {

using namespace sim::literals;

struct LsmConfig {
  /// Memtable rotation threshold.
  std::uint64_t memtable_bytes = 4ull << 20;
  /// L0 run count that triggers compaction into L1.
  std::size_t level0_compaction_trigger = 4;
  /// L1 target size; each deeper level holds 10x its parent.
  std::uint64_t level1_target_bytes = 32ull << 20;
  /// WAL policy: synchronous fsync per write (durable, slow) or buffered
  /// group commit (LevelDB/IndexFS default).
  bool sync_wal = false;
  /// Data block granularity for read charging and the block cache.
  std::uint64_t block_bytes = 4096;
  /// Block cache capacity (bytes of cached blocks).
  std::uint64_t block_cache_bytes = 8ull << 20;
};

/// Double-hashed bloom filter over string keys.
class BloomFilter {
 public:
  BloomFilter(std::size_t expected_keys, std::size_t bits_per_key);

  void insert(std::string_view key);
  bool may_contain(std::string_view key) const;

  std::size_t bit_count() const { return bits_.size(); }

 private:
  std::vector<bool> bits_;
  std::size_t hashes_;
};

/// One immutable sorted run. nullopt values are tombstones.
class SsTable {
 public:
  SsTable(std::uint64_t id, std::vector<std::pair<std::string, std::optional<std::string>>> rows,
          std::size_t bloom_bits_per_key);

  std::uint64_t id() const { return id_; }
  std::uint64_t data_bytes() const { return data_bytes_; }
  std::size_t row_count() const { return rows_.size(); }
  const std::string& min_key() const { return rows_.front().first; }
  const std::string& max_key() const { return rows_.back().first; }

  bool key_in_range(std::string_view key) const;
  bool may_contain(std::string_view key) const;

  /// Point lookup. outer nullopt = absent; inner nullopt = tombstone.
  std::optional<std::optional<std::string>> find(std::string_view key) const;

  /// Block index of `key` within this table (for block-cache identity).
  std::uint64_t block_of(std::string_view key, std::uint64_t block_bytes) const;

  const std::vector<std::pair<std::string, std::optional<std::string>>>& rows() const {
    return rows_;
  }

 private:
  std::uint64_t id_;
  std::vector<std::pair<std::string, std::optional<std::string>>> rows_;
  std::vector<std::uint64_t> row_offsets_;  // cumulative byte offsets
  std::uint64_t data_bytes_ = 0;
  BloomFilter bloom_;
};

class LsmStore {
 public:
  LsmStore(sim::Simulation& sim, sim::SimDisk& disk, LsmConfig config = {});
  LsmStore(const LsmStore&) = delete;
  LsmStore& operator=(const LsmStore&) = delete;

  sim::Task<> put(std::string key, std::string value);
  sim::Task<> del(std::string key);

  /// Point lookup; nullopt when absent or deleted.
  sim::Task<std::optional<std::string>> get(std::string key);

  /// All live (non-tombstone) pairs whose key starts with `prefix`, sorted.
  sim::Task<std::vector<std::pair<std::string, std::string>>> scan_prefix(std::string prefix);

  /// Bulk ingestion (the BatchFS/IndexFS "bulk insert" path): sorted rows
  /// become one L0 table with a single sequential write and no WAL traffic.
  sim::Task<> ingest(std::vector<std::pair<std::string, std::string>> rows);

  /// Blocks until no flush/compaction work is pending (test/shutdown aid).
  sim::Task<> quiesce();

  // Introspection for tests and benchmarks.
  std::size_t level_count() const { return levels_.size(); }
  std::size_t tables_at(std::size_t level) const { return levels_[level].size(); }
  std::uint64_t level_bytes(std::size_t level) const;
  std::uint64_t memtable_bytes_used() const { return memtable_bytes_; }
  std::uint64_t compactions() const { return compactions_; }
  std::uint64_t block_cache_hits() const { return block_cache_.hits(); }
  std::uint64_t block_cache_misses() const { return block_cache_.misses(); }

 private:
  using MemTable = std::map<std::string, std::optional<std::string>>;

  sim::Task<> append_wal(std::uint64_t bytes);
  sim::Task<> write_entry(std::string key, std::optional<std::string> value);
  void rotate_memtable();
  sim::Task<> background_maintenance();
  sim::Task<> flush_oldest_immutable();
  sim::Task<> maybe_compact();
  sim::Task<> compact_level(std::size_t level);
  // Takes the block number rather than a key view: a lazily-started Task
  // must not hold a view whose buffer can die before the await
  // (pacon-analyze: coro-param-view).
  sim::Task<> charge_block_read(const SsTable& table, std::uint64_t block);

  /// Probes one table; returns the entry if conclusive.
  sim::Task<std::optional<std::optional<std::string>>> probe_table(const SsTable& table,
                                                                   const std::string& key);

  sim::Simulation& sim_;
  sim::SimDisk& disk_;
  LsmConfig config_;

  MemTable memtable_;
  std::uint64_t memtable_bytes_ = 0;
  std::deque<std::pair<std::unique_ptr<MemTable>, std::uint64_t>> immutables_;

  std::vector<std::vector<std::shared_ptr<SsTable>>> levels_;
  std::uint64_t next_table_id_ = 1;
  std::uint64_t wal_buffered_ = 0;
  std::uint64_t compactions_ = 0;

  // Block cache: LRU over (table_id, block) identities.
  fs::LruTtlCache<std::uint64_t, std::monostate> block_cache_;

  // Maintenance scheduling.
  bool maintenance_busy_ = false;
  sim::WaitGroup idle_;
};

}  // namespace pacon::lsm
