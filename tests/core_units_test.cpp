// Unit tests for the small core pieces: cached-entry codec, epoch
// coordinator, LRU/TTL cache, and the IndexFS attr codec.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <variant>

#include "core/epoch.h"
#include "core/meta_entry.h"
#include "fs/lru_cache.h"
#include "indexfs/codec.h"
#include "sim/simulation.h"

namespace pacon {
namespace {

using sim::Simulation;
using sim::Task;
using namespace sim::literals;

TEST(MetaEntryCodec, RoundTripPlain) {
  core::CachedMeta m;
  m.attr.ino = 42;
  m.attr.type = fs::FileType::directory;
  m.attr.size = 123;
  m.attr.uid = 7;
  const auto decoded = core::decode_meta(core::encode_meta(m));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, m);
}

TEST(MetaEntryCodec, RoundTripFlagsAndInlineData) {
  core::CachedMeta m;
  m.removed = true;
  m.large_file = true;
  m.inline_bytes = 2048;
  const std::string blob = core::encode_meta(m);
  // Footprint includes the inline payload (memory accounting).
  EXPECT_GT(blob.size(), 2048u);
  const auto decoded = core::decode_meta(blob);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->removed);
  EXPECT_TRUE(decoded->large_file);
  EXPECT_EQ(decoded->inline_bytes, 2048u);
}

TEST(MetaEntryCodec, RejectsCorruptBlobs) {
  EXPECT_FALSE(core::decode_meta("").has_value());
  EXPECT_FALSE(core::decode_meta("short").has_value());
  core::CachedMeta m;
  m.inline_bytes = 100;
  std::string blob = core::encode_meta(m);
  blob.resize(blob.size() - 1);  // truncated payload
  EXPECT_FALSE(core::decode_meta(blob).has_value());
}

TEST(IndexFsCodec, RoundTrip) {
  fs::InodeAttr attr;
  attr.ino = 77;
  attr.type = fs::FileType::file;
  attr.size = 4096;
  const auto decoded = indexfs::decode_attr(indexfs::encode_attr(attr));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, attr);
  EXPECT_FALSE(indexfs::decode_attr("garbage").has_value());
}

TEST(EpochCoordinator, SingleNodeRoundTrip) {
  Simulation sim;
  core::EpochCoordinator epochs(sim, 1);
  EXPECT_EQ(epochs.current_epoch(), 0u);
  bool drained = false;
  sim.spawn([](core::EpochCoordinator& e, bool& out) -> Task<> {
    co_await e.wait_all_drained(0);
    out = true;
  }(epochs, drained));
  sim.run();
  EXPECT_FALSE(drained);
  epochs.node_reached_barrier(0);
  sim.run();
  EXPECT_TRUE(drained);
  epochs.complete_epoch(0);
  EXPECT_EQ(epochs.current_epoch(), 1u);
}

TEST(EpochCoordinator, WaitsForAllNodes) {
  Simulation sim;
  core::EpochCoordinator epochs(sim, 3);
  bool drained = false;
  sim.spawn([](core::EpochCoordinator& e, bool& out) -> Task<> {
    co_await e.wait_all_drained(0);
    out = true;
  }(epochs, drained));
  epochs.node_reached_barrier(0);
  epochs.node_reached_barrier(0);
  sim.run();
  EXPECT_FALSE(drained);
  epochs.node_reached_barrier(0);
  sim.run();
  EXPECT_TRUE(drained);
}

TEST(EpochCoordinator, GatesFutureEpochOps) {
  Simulation sim;
  core::EpochCoordinator epochs(sim, 1);
  std::vector<int> order;
  // Two committers blocked on epoch 1.
  for (int i = 0; i < 2; ++i) {
    sim.spawn([](core::EpochCoordinator& e, std::vector<int>& ord, int id) -> Task<> {
      co_await e.wait_epoch_open(1);
      ord.push_back(id);
    }(epochs, order, i));
  }
  sim.run();
  EXPECT_TRUE(order.empty());
  epochs.node_reached_barrier(0);
  epochs.complete_epoch(0);
  sim.run();
  EXPECT_EQ(order.size(), 2u);
}

TEST(EpochCoordinator, PastEpochsPassImmediately) {
  Simulation sim;
  core::EpochCoordinator epochs(sim, 1);
  epochs.node_reached_barrier(0);
  epochs.complete_epoch(0);
  bool passed = false;
  sim.spawn([](core::EpochCoordinator& e, bool& out) -> Task<> {
    co_await e.wait_epoch_open(0);  // already closed epoch
    co_await e.wait_epoch_open(1);  // currently open epoch
    out = true;
  }(epochs, passed));
  sim.run();
  EXPECT_TRUE(passed);
}

TEST(EpochCoordinator, AbortFailsTheBarrierAndCompletionReleasesTheNextEpoch) {
  Simulation sim;
  core::EpochCoordinator epochs(sim, 2);
  auto drained_into = [](core::EpochCoordinator& e, std::uint64_t epoch,
                         std::optional<bool>& out) -> Task<> {
    out = co_await e.wait_all_drained(epoch);
  };
  std::optional<bool> drained;
  bool next_open = false;
  sim.spawn(drained_into(epochs, 0, drained));
  sim.spawn([](core::EpochCoordinator& e, bool& out) -> Task<> {
    co_await e.wait_epoch_open(1);
    out = true;
  }(epochs, next_open));
  // One of the two nodes reports; the other's commit process crashed.
  epochs.node_reached_barrier(0);
  sim.run();
  EXPECT_FALSE(drained.has_value());

  // The abort wakes the waiter with false, and a later waiter sees it too.
  epochs.abort_epoch(0);
  sim.run();
  EXPECT_EQ(drained, std::optional<bool>(false));
  std::optional<bool> late;
  sim.spawn(drained_into(epochs, 0, late));
  sim.run();
  EXPECT_EQ(late, std::optional<bool>(false));
  EXPECT_FALSE(next_open) << "an abort alone must not open the next epoch";

  // Completing the aborted epoch releases the commit processes of e+1.
  epochs.complete_epoch(0);
  sim.run();
  EXPECT_TRUE(next_open);
  EXPECT_EQ(epochs.current_epoch(), 1u);

  // Aborting a past epoch is a no-op: epoch 1's barrier drains normally.
  epochs.abort_epoch(0);
  EXPECT_EQ(epochs.current_epoch(), 1u);
  std::optional<bool> drained1;
  sim.spawn(drained_into(epochs, 1, drained1));
  epochs.node_reached_barrier(1);
  epochs.node_reached_barrier(1);
  sim.run();
  EXPECT_EQ(drained1, std::optional<bool>(true));
}

TEST(LruTtlCache, InsertFindErase) {
  fs::PathCache<int> cache(4, 1000);
  cache.insert("a", 1, 0);
  ASSERT_NE(cache.find("a", 10), nullptr);
  EXPECT_EQ(*cache.find("a", 10), 1);
  cache.erase("a");
  EXPECT_EQ(cache.find("a", 10), nullptr);
}

TEST(LruTtlCache, TtlExpires) {
  fs::PathCache<int> cache(4, 100);
  cache.insert("a", 1, 0);
  EXPECT_NE(cache.find("a", 100), nullptr);   // at expiry edge: valid
  EXPECT_EQ(cache.find("a", 101), nullptr);   // past expiry
}

TEST(LruTtlCache, CapacityEvictsLru) {
  fs::PathCache<int> cache(2, 1000);
  cache.insert("a", 1, 0);
  cache.insert("b", 2, 0);
  (void)cache.find("a", 1);  // a is now most-recent
  cache.insert("c", 3, 0);   // evicts b
  EXPECT_NE(cache.find("a", 2), nullptr);
  EXPECT_EQ(cache.find("b", 2), nullptr);
  EXPECT_NE(cache.find("c", 2), nullptr);
}

TEST(LruTtlCache, ZeroCapacityNeverStores) {
  fs::PathCache<int> cache(0, 1000);
  cache.insert("a", 1, 0);
  EXPECT_EQ(cache.find("a", 0), nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(LruTtlCache, UpdateRefreshesValueAndTtl) {
  fs::PathCache<int> cache(4, 100);
  cache.insert("a", 1, 0);
  cache.insert("a", 2, 50);  // refresh at t=50 -> expires at 150
  ASSERT_NE(cache.find("a", 120), nullptr);
  EXPECT_EQ(*cache.find("a", 120), 2);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(LruTtlCache, ReinsertRefreshesRecencyWithoutDuplicating) {
  fs::PathCache<int> cache(2, 1000);
  cache.insert("a", 1, 0);
  cache.insert("a", 1, 0);
  EXPECT_EQ(cache.size(), 1u);
  cache.insert("b", 2, 0);
  cache.insert("a", 3, 0);  // a is now most-recent
  cache.insert("c", 4, 0);  // evicts b, the only other entry
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.find("b", 1), nullptr);
  ASSERT_NE(cache.find("a", 1), nullptr);
  EXPECT_EQ(*cache.find("a", 1), 3);
}

TEST(LruTtlCache, PathAndSpellingProbesMatchStringKeys) {
  fs::PathCache<int> cache(4, 1000);
  const fs::Path path = fs::Path::parse("/x/y");
  cache.insert(path, 1, 0);
  EXPECT_NE(cache.find(std::string("/x/y"), 1), nullptr);
  EXPECT_NE(cache.find(fs::SpellingKey{path.str(), path.hash()}, 1), nullptr);
  cache.erase(fs::SpellingKey{path});
  EXPECT_EQ(cache.find(path, 1), nullptr);
}

TEST(LruTtlCache, IntegerKeysNeverExpireByDefault) {
  fs::LruTtlCache<std::uint64_t, int> cache(2);
  cache.insert(7u, 1, 0);
  ASSERT_NE(cache.find(7u, std::numeric_limits<sim::SimTime>::max()), nullptr);
  cache.insert(8u, 2, std::numeric_limits<sim::SimTime>::max());  // saturates, no wrap
  EXPECT_NE(cache.find(8u, std::numeric_limits<sim::SimTime>::max()), nullptr);
}

TEST(LruTtlCache, CountsHitsAndMisses) {
  fs::LruTtlCache<std::uint64_t, std::monostate> cache(1);
  EXPECT_EQ(cache.find(1u, 0), nullptr);
  cache.insert(1u, {}, 0);
  EXPECT_NE(cache.find(1u, 0), nullptr);
  EXPECT_NE(cache.find(1u, 0), nullptr);
  cache.insert(2u, {}, 0);  // evicts 1
  EXPECT_EQ(cache.find(1u, 0), nullptr);
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 2u);
}

}  // namespace
}  // namespace pacon
