// Tests for the LSM store: bloom filters, SSTables, read/write semantics
// through flush and compaction, scans, bulk ingestion, and cost behaviour.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "lsm/lsm.h"
#include "sim/simulation.h"

namespace pacon::lsm {
namespace {

using sim::Simulation;
using sim::Task;

struct Fixture {
  explicit Fixture(LsmConfig cfg = {})
      : disk(sim, sim::DiskConfig::nvme()), store(sim, disk, cfg) {}
  Simulation sim;
  sim::SimDisk disk;
  LsmStore store;
};

LsmConfig tiny_memtables() {
  LsmConfig cfg;
  cfg.memtable_bytes = 2048;  // force frequent flushes
  cfg.level0_compaction_trigger = 3;
  cfg.level1_target_bytes = 16 << 10;
  return cfg;
}

std::string key_of(int i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "/dir/file%06d", i);
  return buf;
}

TEST(BloomFilter, NoFalseNegatives) {
  BloomFilter bloom(1000, 10);
  for (int i = 0; i < 1000; ++i) bloom.insert(key_of(i));
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(bloom.may_contain(key_of(i)));
}

TEST(BloomFilter, LowFalsePositiveRate) {
  BloomFilter bloom(1000, 10);
  for (int i = 0; i < 1000; ++i) bloom.insert(key_of(i));
  int fp = 0;
  for (int i = 1000; i < 11000; ++i) {
    if (bloom.may_contain(key_of(i))) ++fp;
  }
  EXPECT_LT(fp, 500);  // 10 bits/key targets ~1%, allow 5%
}

TEST(SsTable, FindAndRangeQueries) {
  std::vector<std::pair<std::string, std::optional<std::string>>> rows;
  rows.emplace_back("/a", "1");
  rows.emplace_back("/b", std::nullopt);  // tombstone
  rows.emplace_back("/c", "3");
  SsTable table(1, std::move(rows), 10);
  EXPECT_EQ(table.min_key(), "/a");
  EXPECT_EQ(table.max_key(), "/c");
  EXPECT_TRUE(table.key_in_range("/b"));
  EXPECT_FALSE(table.key_in_range("/d"));
  auto hit = table.find("/a");
  EXPECT_TRUE(hit.has_value());
  EXPECT_EQ(hit->value_or(""), "1");
  auto tomb = table.find("/b");
  EXPECT_TRUE(tomb.has_value());
  EXPECT_FALSE(tomb->has_value());
  EXPECT_FALSE(table.find("/zz").has_value());
  EXPECT_GT(table.data_bytes(), 0u);
}

TEST(LsmStore, PutGetRoundTrip) {
  Fixture f;
  sim::run_task(f.sim, [](LsmStore& s) -> Task<> {
    co_await s.put("/k", "value");
    const auto v = co_await s.get("/k");
    EXPECT_EQ(v.value_or(""), "value");
  }(f.store));
}

TEST(LsmStore, GetMissingIsNullopt) {
  Fixture f;
  sim::run_task(f.sim, [](LsmStore& s) -> Task<> {
    EXPECT_EQ(co_await s.get("/missing"), std::nullopt);
  }(f.store));
}

TEST(LsmStore, OverwriteTakesLatestValue) {
  Fixture f;
  sim::run_task(f.sim, [](LsmStore& s) -> Task<> {
    co_await s.put("/k", "v1");
    co_await s.put("/k", "v2");
    EXPECT_EQ((co_await s.get("/k")).value_or(""), "v2");
  }(f.store));
}

TEST(LsmStore, DeleteShadowsOlderValue) {
  Fixture f;
  sim::run_task(f.sim, [](LsmStore& s) -> Task<> {
    co_await s.put("/k", "v");
    co_await s.del("/k");
    EXPECT_EQ(co_await s.get("/k"), std::nullopt);
  }(f.store));
}

TEST(LsmStore, ValuesSurviveFlushToL0) {
  Fixture f(tiny_memtables());
  sim::run_task(f.sim, [](LsmStore& s) -> Task<> {
    for (int i = 0; i < 100; ++i) co_await s.put(key_of(i), "v" + std::to_string(i));
    co_await s.quiesce();
    EXPECT_EQ(s.memtable_bytes_used() > 0 || s.tables_at(0) > 0 || s.tables_at(1) > 0, true);
    for (int i = 0; i < 100; ++i) {
      EXPECT_EQ((co_await s.get(key_of(i))).value_or(""), "v" + std::to_string(i));
    }
  }(f.store));
  EXPECT_GT(f.disk.writes(), 0u);
}

TEST(LsmStore, CompactionMergesRunsAndPreservesData) {
  Fixture f(tiny_memtables());
  sim::run_task(f.sim, [](LsmStore& s) -> Task<> {
    for (int i = 0; i < 1000; ++i) co_await s.put(key_of(i), "v" + std::to_string(i));
    co_await s.quiesce();
    EXPECT_GT(s.compactions(), 0u);
    // Spot-check across the keyspace after compaction.
    for (int i = 0; i < 1000; i += 97) {
      EXPECT_EQ((co_await s.get(key_of(i))).value_or(""), "v" + std::to_string(i));
    }
  }(f.store));
}

TEST(LsmStore, DeleteSurvivesCompaction) {
  Fixture f(tiny_memtables());
  sim::run_task(f.sim, [](LsmStore& s) -> Task<> {
    for (int i = 0; i < 500; ++i) co_await s.put(key_of(i), "v");
    for (int i = 0; i < 500; i += 2) co_await s.del(key_of(i));
    for (int i = 500; i < 800; ++i) co_await s.put(key_of(i), "v");  // drive compaction
    co_await s.quiesce();
    for (int i = 0; i < 500; ++i) {
      const auto v = co_await s.get(key_of(i));
      if (i % 2 == 0) {
        EXPECT_EQ(v, std::nullopt) << key_of(i);
      } else {
        EXPECT_EQ(v.value_or(""), "v") << key_of(i);
      }
    }
  }(f.store));
}

TEST(LsmStore, ScanPrefixMergesAllSources) {
  Fixture f(tiny_memtables());
  sim::run_task(f.sim, [](LsmStore& s) -> Task<> {
    // Older values flushed to disk, newer in memtable; scan must merge.
    for (int i = 0; i < 200; ++i) co_await s.put("/dir/a" + std::to_string(i), "old");
    co_await s.quiesce();
    co_await s.put("/dir/a1", "new");
    co_await s.del("/dir/a2");
    co_await s.put("/other/x", "elsewhere");
    const auto rows = co_await s.scan_prefix("/dir/");
    EXPECT_EQ(rows.size(), 199u);  // 200 - 1 deleted
    bool saw_new = false;
    for (const auto& [k, v] : rows) {
      EXPECT_TRUE(k.starts_with("/dir/"));
      if (k == "/dir/a1") {
        EXPECT_EQ(v, "new");
        saw_new = true;
      }
      EXPECT_NE(k, "/dir/a2");
    }
    EXPECT_TRUE(saw_new);
    // Sorted output.
    for (std::size_t i = 1; i < rows.size(); ++i) EXPECT_LT(rows[i - 1].first, rows[i].first);
  }(f.store));
}

TEST(LsmStore, IngestBypassesWalAndServesReads) {
  Fixture f;
  sim::run_task(f.sim, [](LsmStore& s) -> Task<> {
    std::vector<std::pair<std::string, std::string>> rows;
    for (int i = 0; i < 100; ++i) rows.emplace_back(key_of(i), "bulk");
    co_await s.ingest(std::move(rows));
    EXPECT_EQ(s.tables_at(0), 1u);
    EXPECT_EQ((co_await s.get(key_of(42))).value_or(""), "bulk");
  }(f.store));
}

TEST(LsmStore, IngestDeduplicatesKeys) {
  Fixture f;
  sim::run_task(f.sim, [](LsmStore& s) -> Task<> {
    std::vector<std::pair<std::string, std::string>> rows;
    rows.emplace_back("/k", "first");
    rows.emplace_back("/k", "second");
    co_await s.ingest(std::move(rows));
    const auto v = co_await s.get("/k");
    EXPECT_EQ(v.value_or(""), "second");
  }(f.store));
}

TEST(LsmStore, SyncWalIsSlowerThanBuffered) {
  auto run_with = [](bool sync_wal) {
    LsmConfig cfg;
    cfg.sync_wal = sync_wal;
    Fixture f(cfg);
    sim::run_task(f.sim, [](LsmStore& s) -> Task<> {
      for (int i = 0; i < 200; ++i) co_await s.put(key_of(i), "v");
    }(f.store));
    return f.sim.now();
  };
  EXPECT_GT(run_with(true), 5 * run_with(false));
}

TEST(LsmStore, BlockCacheAbsorbsRepeatedReads) {
  Fixture f(tiny_memtables());
  sim::run_task(f.sim, [](LsmStore& s) -> Task<> {
    for (int i = 0; i < 300; ++i) co_await s.put(key_of(i), "v");
    co_await s.quiesce();
    (void)co_await s.get(key_of(7));
    const auto misses_before = s.block_cache_misses();
    for (int r = 0; r < 10; ++r) (void)co_await s.get(key_of(7));
    EXPECT_EQ(s.block_cache_misses(), misses_before);
    EXPECT_GT(s.block_cache_hits(), 0u);
  }(f.store));
}

TEST(LsmStore, ConcurrentMissesOnOneBlockTakeOneCacheSlot) {
  LsmConfig cfg;
  cfg.block_bytes = 64;
  cfg.block_cache_bytes = 2 * 64;  // room for two blocks
  Fixture f(cfg);
  sim::run_task(f.sim, [](LsmStore& s) -> Task<> {
    std::vector<std::pair<std::string, std::string>> rows;
    for (int i = 0; i < 30; ++i) rows.emplace_back(key_of(i), "v");
    co_await s.ingest(std::move(rows));
  }(f.store));
  // Keys 0, 12 and 24 of one table sit in three different 64-byte blocks.
  const std::string b = key_of(0), c = key_of(12), d = key_of(24);
  for (int i = 0; i < 2; ++i) {
    f.sim.spawn([](LsmStore& s, std::string k) -> Task<> { (void)co_await s.get(k); }(f.store, b));
  }
  f.sim.run();
  EXPECT_EQ(f.store.block_cache_misses(), 2u);
  sim::run_task(f.sim, [](LsmStore& s, std::string kb, std::string kc, std::string kd) -> Task<> {
    (void)co_await s.get(kc);  // miss: cache holds B and C
    (void)co_await s.get(kb);  // hit: B is most recent
    (void)co_await s.get(kd);  // miss: evicts C, the least recent
    (void)co_await s.get(kb);  // hit: B's one entry survived
  }(f.store, b, c, d));
  EXPECT_EQ(f.store.block_cache_misses(), 4u);
}

TEST(LsmStore, ColdReadsChargeDiskTime) {
  LsmConfig cfg = tiny_memtables();
  cfg.block_cache_bytes = 0;  // disable caching: every probe hits the disk
  Fixture f(cfg);
  sim::run_task(f.sim, [](Simulation& sm, LsmStore& s) -> Task<> {
    for (int i = 0; i < 300; ++i) co_await s.put(key_of(i), "v");
    co_await s.quiesce();
    const auto t0 = sm.now();
    (void)co_await s.get(key_of(123));
    // At least one 4KiB block read at NVMe latency (~80us).
    EXPECT_GE(sm.now() - t0, 80'000u);
  }(f.sim, f.store));
}

TEST(LsmStore, ManyKeysStressAcrossLevels) {
  Fixture f(tiny_memtables());
  sim::run_task(f.sim, [](LsmStore& s) -> Task<> {
    for (int round = 0; round < 3; ++round) {
      for (int i = 0; i < 2000; ++i) {
        co_await s.put(key_of(i), "r" + std::to_string(round));
      }
    }
    co_await s.quiesce();
    for (int i = 0; i < 2000; i += 131) {
      EXPECT_EQ((co_await s.get(key_of(i))).value_or(""), "r2");
    }
  }(f.store));
}

}  // namespace
}  // namespace pacon::lsm
