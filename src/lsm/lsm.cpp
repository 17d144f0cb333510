#include "lsm/lsm.h"

#include <algorithm>
#include <cassert>

#include "sim/random.h"

namespace pacon::lsm {
namespace {

constexpr std::uint64_t kEntryOverheadBytes = 16;
/// Target size ratio between adjacent levels below L1.
constexpr std::uint64_t kLevelSizeMultiplier = 10;
constexpr std::size_t kMaxLevels = 6;
/// Buffered WAL group commit flushes every this many bytes.
constexpr std::uint64_t kWalBufferBytes = 64ull << 10;
/// Bloom filter bits per key (10 ~ 1% false-positive rate).
constexpr std::size_t kBloomBitsPerKey = 10;
/// CPU cost of one put/get on the in-memory structures.
constexpr sim::SimDuration kOpCpuTime = 1'000_ns;

std::uint64_t entry_bytes(std::string_view key, const std::optional<std::string>& value) {
  return key.size() + (value ? value->size() : 0) + kEntryOverheadBytes;
}

std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDull;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ull;
  x ^= x >> 33;
  return x;
}

}  // namespace

BloomFilter::BloomFilter(std::size_t expected_keys, std::size_t bits_per_key)
    : bits_(std::max<std::size_t>(64, expected_keys * bits_per_key)),
      hashes_(std::max<std::size_t>(1, static_cast<std::size_t>(
                                           static_cast<double>(bits_per_key) * 0.69))) {}

void BloomFilter::insert(std::string_view key) {
  const std::uint64_t h1 = sim::Rng::hash(key);
  const std::uint64_t h2 = mix64(h1);
  for (std::size_t i = 0; i < hashes_; ++i) {
    bits_[(h1 + i * h2) % bits_.size()] = true;
  }
}

bool BloomFilter::may_contain(std::string_view key) const {
  const std::uint64_t h1 = sim::Rng::hash(key);
  const std::uint64_t h2 = mix64(h1);
  for (std::size_t i = 0; i < hashes_; ++i) {
    if (!bits_[(h1 + i * h2) % bits_.size()]) return false;
  }
  return true;
}

SsTable::SsTable(std::uint64_t id,
                 std::vector<std::pair<std::string, std::optional<std::string>>> rows,
                 std::size_t bloom_bits_per_key)
    : id_(id), rows_(std::move(rows)), bloom_(rows_.size(), bloom_bits_per_key) {
  assert(!rows_.empty());
  assert(std::is_sorted(rows_.begin(), rows_.end(),
                        [](const auto& a, const auto& b) { return a.first < b.first; }));
  row_offsets_.reserve(rows_.size());
  for (const auto& [key, value] : rows_) {
    row_offsets_.push_back(data_bytes_);
    data_bytes_ += entry_bytes(key, value);
    bloom_.insert(key);
  }
}

bool SsTable::key_in_range(std::string_view key) const {
  return key >= min_key() && key <= max_key();
}

bool SsTable::may_contain(std::string_view key) const {
  return key_in_range(key) && bloom_.may_contain(key);
}

std::optional<std::optional<std::string>> SsTable::find(std::string_view key) const {
  auto it = std::lower_bound(rows_.begin(), rows_.end(), key,
                             [](const auto& row, std::string_view k) { return row.first < k; });
  if (it == rows_.end() || it->first != key) return std::nullopt;
  return it->second;
}

std::uint64_t SsTable::block_of(std::string_view key, std::uint64_t block_bytes) const {
  auto it = std::lower_bound(rows_.begin(), rows_.end(), key,
                             [](const auto& row, std::string_view k) { return row.first < k; });
  const auto idx = static_cast<std::size_t>(it - rows_.begin());
  const std::uint64_t offset = idx < row_offsets_.size() ? row_offsets_[idx] : data_bytes_;
  return offset / std::max<std::uint64_t>(1, block_bytes);
}

LsmStore::LsmStore(sim::Simulation& sim, sim::SimDisk& disk, LsmConfig config)
    : sim_(sim),
      disk_(disk),
      config_(config),
      block_cache_(config.block_cache_bytes / std::max<std::uint64_t>(1, config.block_bytes)),
      idle_(sim) {
  levels_.resize(kMaxLevels);
}

sim::Task<> LsmStore::append_wal(std::uint64_t bytes) {
  if (config_.sync_wal) {
    co_await disk_.write(bytes);
    co_return;
  }
  wal_buffered_ += bytes;
  if (wal_buffered_ >= kWalBufferBytes) {
    const std::uint64_t to_flush = wal_buffered_;
    wal_buffered_ = 0;
    co_await disk_.write(to_flush);
  }
}

sim::Task<> LsmStore::write_entry(std::string key, std::optional<std::string> value) {
  co_await sim_.delay(kOpCpuTime);
  const std::uint64_t bytes = entry_bytes(key, value);
  co_await append_wal(bytes);
  auto [it, inserted] = memtable_.insert_or_assign(std::move(key), std::move(value));
  (void)it;
  (void)inserted;
  memtable_bytes_ += bytes;  // approximation: overwrites also consumed WAL/arena space
  if (memtable_bytes_ >= config_.memtable_bytes) rotate_memtable();
}

sim::Task<> LsmStore::put(std::string key, std::string value) {
  return write_entry(std::move(key), std::move(value));
}

sim::Task<> LsmStore::del(std::string key) { return write_entry(std::move(key), std::nullopt); }

void LsmStore::rotate_memtable() {
  if (memtable_.empty()) return;
  auto imm = std::make_unique<MemTable>(std::move(memtable_));
  memtable_.clear();
  immutables_.emplace_back(std::move(imm), memtable_bytes_);
  memtable_bytes_ = 0;
  if (!maintenance_busy_) {
    maintenance_busy_ = true;
    idle_.add();
    sim_.spawn(background_maintenance());
  }
}

sim::Task<> LsmStore::background_maintenance() {
  for (;;) {
    if (!immutables_.empty()) {
      co_await flush_oldest_immutable();
      continue;
    }
    const std::size_t before = compactions_;
    co_await maybe_compact();
    if (compactions_ != before) continue;
    break;  // no work left
  }
  maintenance_busy_ = false;
  idle_.done();
}

sim::Task<> LsmStore::flush_oldest_immutable() {
  auto [imm, bytes] = std::move(immutables_.front());
  immutables_.pop_front();
  std::vector<std::pair<std::string, std::optional<std::string>>> rows(
      std::make_move_iterator(imm->begin()), std::make_move_iterator(imm->end()));
  if (rows.empty()) co_return;
  auto table = std::make_shared<SsTable>(next_table_id_++, std::move(rows), kBloomBitsPerKey);
  co_await disk_.write(table->data_bytes());
  levels_[0].push_back(std::move(table));  // newest at the back
}

std::uint64_t LsmStore::level_bytes(std::size_t level) const {
  std::uint64_t total = 0;
  for (const auto& t : levels_[level]) total += t->data_bytes();
  return total;
}

sim::Task<> LsmStore::maybe_compact() {
  if (levels_[0].size() >= config_.level0_compaction_trigger && levels_.size() > 1) {
    co_await compact_level(0);
    co_return;
  }
  std::uint64_t target = config_.level1_target_bytes;
  for (std::size_t level = 1; level + 1 < levels_.size(); ++level) {
    if (level_bytes(level) > target) {
      co_await compact_level(level);
      co_return;
    }
    target *= kLevelSizeMultiplier;
  }
}

sim::Task<> LsmStore::compact_level(std::size_t level) {
  assert(level + 1 < levels_.size());
  auto upper = std::move(levels_[level]);
  auto lower = std::move(levels_[level + 1]);
  levels_[level].clear();
  levels_[level + 1].clear();
  if (upper.empty() && lower.empty()) co_return;

  // Newest-first source ordering: upper level beats lower; within a level,
  // higher table id (more recent flush) beats lower.
  std::vector<std::shared_ptr<SsTable>> sources;
  auto newer_first = [](const auto& a, const auto& b) { return a->id() > b->id(); };
  std::sort(upper.begin(), upper.end(), newer_first);
  std::sort(lower.begin(), lower.end(), newer_first);
  sources.insert(sources.end(), upper.begin(), upper.end());
  sources.insert(sources.end(), lower.begin(), lower.end());

  std::uint64_t read_bytes = 0;
  std::map<std::string, std::optional<std::string>> merged;
  for (const auto& table : sources) {
    read_bytes += table->data_bytes();
    for (const auto& row : table->rows()) merged.emplace(row.first, row.second);
  }
  co_await disk_.read(read_bytes);

  const bool into_last_level = level + 2 == levels_.size();
  std::vector<std::pair<std::string, std::optional<std::string>>> out_rows;
  std::uint64_t out_bytes = 0;
  std::uint64_t written = 0;
  constexpr std::uint64_t kOutputTableBytes = 8ull << 20;
  auto emit_table = [&]() -> std::shared_ptr<SsTable> {
    auto t = std::make_shared<SsTable>(next_table_id_++, std::move(out_rows), kBloomBitsPerKey);
    out_rows.clear();
    out_bytes = 0;
    return t;
  };
  for (auto& [key, value] : merged) {
    if (into_last_level && !value.has_value()) continue;  // drop tombstones at the bottom
    out_bytes += entry_bytes(key, value);
    out_rows.emplace_back(key, std::move(value));
    if (out_bytes >= kOutputTableBytes) {
      auto t = emit_table();
      written += t->data_bytes();
      levels_[level + 1].push_back(std::move(t));
    }
  }
  if (!out_rows.empty()) {
    auto t = emit_table();
    written += t->data_bytes();
    levels_[level + 1].push_back(std::move(t));
  }
  co_await disk_.write(written);
  ++compactions_;
}

sim::Task<> LsmStore::charge_block_read(const SsTable& table, std::uint64_t block) {
  const std::uint64_t cache_key = mix64(table.id() * 0x9E3779B97F4A7C15ull + block);
  if (block_cache_.find(cache_key, sim_.now())) co_return;
  co_await disk_.read(config_.block_bytes);
  block_cache_.insert(cache_key, {}, sim_.now());
}

sim::Task<std::optional<std::optional<std::string>>> LsmStore::probe_table(
    const SsTable& table, const std::string& key) {
  if (!table.may_contain(key)) co_return std::nullopt;
  co_await charge_block_read(table, table.block_of(key, config_.block_bytes));
  co_return table.find(key);
}

sim::Task<std::optional<std::string>> LsmStore::get(std::string key) {
  co_await sim_.delay(kOpCpuTime);
  if (auto it = memtable_.find(key); it != memtable_.end()) co_return it->second;
  for (auto imm = immutables_.rbegin(); imm != immutables_.rend(); ++imm) {
    if (auto it = imm->first->find(key); it != imm->first->end()) co_return it->second;
  }
  // Snapshot shared_ptrs before any await: background compaction may swap
  // the level vectors underneath a suspended reader.
  // L0 runs overlap: probe newest (highest id) first.
  std::vector<std::shared_ptr<SsTable>> l0 = levels_[0];
  std::sort(l0.begin(), l0.end(),
            [](const auto& a, const auto& b) { return a->id() > b->id(); });
  for (const auto& table : l0) {
    if (auto hit = co_await probe_table(*table, key)) co_return *hit;
  }
  // Deeper levels have disjoint ranges: at most one candidate per level.
  for (std::size_t level = 1; level < levels_.size(); ++level) {
    std::shared_ptr<SsTable> candidate;
    for (const auto& table : levels_[level]) {
      if (table->key_in_range(key)) {
        candidate = table;
        break;
      }
    }
    if (!candidate) continue;
    if (auto hit = co_await probe_table(*candidate, key)) co_return *hit;
  }
  co_return std::nullopt;
}

sim::Task<std::vector<std::pair<std::string, std::string>>> LsmStore::scan_prefix(
    std::string prefix) {
  co_await sim_.delay(kOpCpuTime);
  // Newest-first accumulation: emplace keeps the first (newest) version.
  std::map<std::string, std::optional<std::string>> acc;
  auto take_range = [&](auto begin, auto end) {
    for (auto it = begin; it != end && it->first.starts_with(prefix); ++it) {
      acc.emplace(it->first, it->second);
    }
  };
  take_range(memtable_.lower_bound(prefix), memtable_.end());
  for (auto imm = immutables_.rbegin(); imm != immutables_.rend(); ++imm) {
    take_range(imm->first->lower_bound(prefix), imm->first->end());
  }
  std::vector<std::shared_ptr<SsTable>> tables = levels_[0];
  std::sort(tables.begin(), tables.end(),
            [](const auto& a, const auto& b) { return a->id() > b->id(); });
  for (std::size_t level = 1; level < levels_.size(); ++level) {
    tables.insert(tables.end(), levels_[level].begin(), levels_[level].end());
  }
  for (const auto& table : tables) {
    const auto& rows = table->rows();
    auto it = std::lower_bound(
        rows.begin(), rows.end(), prefix,
        [](const auto& row, const std::string& p) { return row.first < p; });
    bool touched = false;
    for (; it != rows.end() && it->first.starts_with(prefix); ++it) {
      acc.emplace(it->first, it->second);
      touched = true;
    }
    if (touched) co_await charge_block_read(*table, table->block_of(prefix, config_.block_bytes));
  }
  std::vector<std::pair<std::string, std::string>> out;
  for (auto& [key, value] : acc) {
    if (value.has_value()) out.emplace_back(key, std::move(*value));
  }
  co_return out;
}

sim::Task<> LsmStore::ingest(std::vector<std::pair<std::string, std::string>> rows) {
  if (rows.empty()) co_return;
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<std::pair<std::string, std::optional<std::string>>> table_rows;
  table_rows.reserve(rows.size());
  for (auto& [key, value] : rows) {
    if (!table_rows.empty() && table_rows.back().first == key) {
      table_rows.back().second = std::move(value);  // last writer wins
      continue;
    }
    table_rows.emplace_back(std::move(key), std::move(value));
  }
  auto table = std::make_shared<SsTable>(next_table_id_++, std::move(table_rows),
                                         kBloomBitsPerKey);
  co_await disk_.write(table->data_bytes());
  levels_[0].push_back(std::move(table));
  if (!maintenance_busy_ && levels_[0].size() >= config_.level0_compaction_trigger) {
    maintenance_busy_ = true;
    idle_.add();
    sim_.spawn(background_maintenance());
  }
}

sim::Task<> LsmStore::quiesce() {
  while (maintenance_busy_) co_await idle_.wait();
  co_return;
}

}  // namespace pacon::lsm
