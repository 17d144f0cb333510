// Tests for the Memcached substitute: semantics (get/set/add/del,
// CAS), memory accounting, LRU eviction, and cluster routing over the ring.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>
#include <string>

#include "kv/memcache.h"
#include "sim/combinators.h"
#include "sim/simulation.h"

namespace pacon::kv {
namespace {

using net::Fabric;
using net::FabricConfig;
using net::NodeId;
using sim::Simulation;
using sim::Task;

struct Fixture {
  Simulation sim;
  Fabric fabric{sim, FabricConfig{}};
};

KvRequest make(KvRequest::Op op, std::string key, std::string value = {},
               std::uint64_t cas = 0) {
  return KvRequest{op, std::move(key), std::move(value), cas, 0};
}

TEST(MemCacheServer, SetThenGet) {
  Fixture f;
  MemCacheServer server(f.sim, f.fabric, NodeId{0});
  auto r = server.apply(make(KvRequest::Op::set, "k", "v"));
  EXPECT_EQ(r.status, KvStatus::ok);
  auto g = server.apply(make(KvRequest::Op::get, "k"));
  EXPECT_EQ(g.status, KvStatus::ok);
  EXPECT_EQ(g.value, "v");
  EXPECT_EQ(g.cas, r.cas);
}

TEST(MemCacheServer, GetMissingReturnsNotFound) {
  Fixture f;
  MemCacheServer server(f.sim, f.fabric, NodeId{0});
  EXPECT_EQ(server.apply(make(KvRequest::Op::get, "nope")).status, KvStatus::not_found);
}

TEST(MemCacheServer, AddOnlyWhenAbsent) {
  Fixture f;
  MemCacheServer server(f.sim, f.fabric, NodeId{0});
  EXPECT_EQ(server.apply(make(KvRequest::Op::add, "k", "v1")).status, KvStatus::ok);
  EXPECT_EQ(server.apply(make(KvRequest::Op::add, "k", "v2")).status, KvStatus::exists);
  EXPECT_EQ(server.apply(make(KvRequest::Op::get, "k")).value, "v1");
}

TEST(MemCacheServer, DeleteRemovesItem) {
  Fixture f;
  MemCacheServer server(f.sim, f.fabric, NodeId{0});
  server.apply(make(KvRequest::Op::set, "k", "v"));
  EXPECT_EQ(server.apply(make(KvRequest::Op::del, "k")).status, KvStatus::ok);
  EXPECT_EQ(server.apply(make(KvRequest::Op::get, "k")).status, KvStatus::not_found);
  EXPECT_EQ(server.apply(make(KvRequest::Op::del, "k")).status, KvStatus::not_found);
  EXPECT_EQ(server.item_count(), 0u);
}

TEST(MemCacheServer, CasVersionsAdvanceMonotonically) {
  Fixture f;
  MemCacheServer server(f.sim, f.fabric, NodeId{0});
  const auto v1 = server.apply(make(KvRequest::Op::set, "k", "a")).cas;
  const auto v2 = server.apply(make(KvRequest::Op::set, "k", "b")).cas;
  EXPECT_GT(v2, v1);
}

TEST(MemCacheServer, CasSucceedsOnMatchingVersion) {
  Fixture f;
  MemCacheServer server(f.sim, f.fabric, NodeId{0});
  const auto v = server.apply(make(KvRequest::Op::set, "k", "old")).cas;
  EXPECT_EQ(server.apply(make(KvRequest::Op::cas, "k", "new", v)).status, KvStatus::ok);
  EXPECT_EQ(server.apply(make(KvRequest::Op::get, "k")).value, "new");
}

TEST(MemCacheServer, CasFailsOnStaleVersion) {
  Fixture f;
  MemCacheServer server(f.sim, f.fabric, NodeId{0});
  const auto v = server.apply(make(KvRequest::Op::set, "k", "old")).cas;
  server.apply(make(KvRequest::Op::set, "k", "mid"));  // bumps version
  const auto r = server.apply(make(KvRequest::Op::cas, "k", "new", v));
  EXPECT_EQ(r.status, KvStatus::cas_mismatch);
  EXPECT_GT(r.cas, v);  // reports the current version for retry
  EXPECT_EQ(server.apply(make(KvRequest::Op::get, "k")).value, "mid");
}

TEST(MemCacheServer, CasOnMissingKeyIsNotFound) {
  Fixture f;
  MemCacheServer server(f.sim, f.fabric, NodeId{0});
  EXPECT_EQ(server.apply(make(KvRequest::Op::cas, "k", "v", 1)).status, KvStatus::not_found);
}

TEST(MemCacheServer, MemoryAccountingTracksMutations) {
  Fixture f;
  KvConfig cfg;
  cfg.item_overhead_bytes = 10;
  MemCacheServer server(f.sim, f.fabric, NodeId{0}, cfg);
  server.apply(make(KvRequest::Op::set, "key", "value"));  // 3 + 5 + 10 = 18
  EXPECT_EQ(server.bytes_used(), 18u);
  server.apply(make(KvRequest::Op::set, "key", "v"));  // 3 + 1 + 10 = 14
  EXPECT_EQ(server.bytes_used(), 14u);
  server.apply(make(KvRequest::Op::del, "key"));
  EXPECT_EQ(server.bytes_used(), 0u);
}

TEST(MemCacheServer, LruEvictionDropsColdestFirst) {
  Fixture f;
  KvConfig cfg;
  cfg.item_overhead_bytes = 0;
  cfg.capacity_bytes = 30;  // fits three 10-byte items ("kX" + 8-byte value)
  MemCacheServer server(f.sim, f.fabric, NodeId{0}, cfg);
  server.apply(make(KvRequest::Op::set, "k1", "12345678"));
  server.apply(make(KvRequest::Op::set, "k2", "12345678"));
  server.apply(make(KvRequest::Op::set, "k3", "12345678"));
  // Touch k1 so k2 becomes the coldest.
  server.apply(make(KvRequest::Op::get, "k1"));
  server.apply(make(KvRequest::Op::set, "k4", "12345678"));
  EXPECT_EQ(server.evictions(), 1u);
  EXPECT_EQ(server.apply(make(KvRequest::Op::get, "k2")).status, KvStatus::not_found);
  EXPECT_EQ(server.apply(make(KvRequest::Op::get, "k1")).status, KvStatus::ok);
  EXPECT_EQ(server.apply(make(KvRequest::Op::get, "k4")).status, KvStatus::ok);
}

TEST(MemCacheServer, UpdatingSetRefreshesRecency) {
  Fixture f;
  KvConfig cfg;
  cfg.item_overhead_bytes = 0;
  cfg.capacity_bytes = 30;
  MemCacheServer server(f.sim, f.fabric, NodeId{0}, cfg);
  server.apply(make(KvRequest::Op::set, "k1", "12345678"));
  server.apply(make(KvRequest::Op::set, "k2", "12345678"));
  server.apply(make(KvRequest::Op::set, "k3", "12345678"));
  // Rewriting k1 makes it the most recent, so k2 is the next victim.
  server.apply(make(KvRequest::Op::set, "k1", "87654321"));
  server.apply(make(KvRequest::Op::set, "k4", "12345678"));
  EXPECT_EQ(server.evictions(), 1u);
  EXPECT_EQ(server.apply(make(KvRequest::Op::get, "k2")).status, KvStatus::not_found);
  EXPECT_EQ(server.apply(make(KvRequest::Op::get, "k1")).value, "87654321");
  EXPECT_EQ(server.apply(make(KvRequest::Op::get, "k3")).status, KvStatus::ok);
}

TEST(MemCacheServer, ReinsertAfterDeleteIsMostRecent) {
  Fixture f;
  KvConfig cfg;
  cfg.item_overhead_bytes = 0;
  cfg.capacity_bytes = 30;
  MemCacheServer server(f.sim, f.fabric, NodeId{0}, cfg);
  server.apply(make(KvRequest::Op::set, "k1", "12345678"));
  server.apply(make(KvRequest::Op::set, "k2", "12345678"));
  server.apply(make(KvRequest::Op::set, "k3", "12345678"));
  ASSERT_EQ(server.apply(make(KvRequest::Op::del, "k1")).status, KvStatus::ok);
  server.apply(make(KvRequest::Op::add, "k1", "12345678"));
  server.apply(make(KvRequest::Op::set, "k4", "12345678"));
  EXPECT_EQ(server.evictions(), 1u);
  EXPECT_EQ(server.apply(make(KvRequest::Op::get, "k2")).status, KvStatus::not_found);
  EXPECT_EQ(server.apply(make(KvRequest::Op::get, "k1")).status, KvStatus::ok);
  EXPECT_EQ(server.apply(make(KvRequest::Op::get, "k3")).status, KvStatus::ok);
}

TEST(MemCacheServer, TableGrowsPastInitialSizeWithLookupsAndLruIntact) {
  Fixture f;
  constexpr std::size_t kItems = (1u << 16) + 1000;
  constexpr std::size_t kItemBytes = 8;  // "k" + 6 digits + 1-byte value
  KvConfig cfg;
  cfg.item_overhead_bytes = 0;
  cfg.capacity_bytes = kItems * kItemBytes;  // exactly full after the fill
  MemCacheServer server(f.sim, f.fabric, NodeId{0}, cfg);
  const auto key = [](std::size_t i) {
    std::string k = std::to_string(i);
    return "k" + std::string(6 - k.size(), '0') + k;
  };
  // Both lookup kinds must hit every key after each doubling of the table,
  // i.e. across every rehash the growth triggers.
  const auto all_hit = [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::string k = key(i);
      KvRequest prehashed = make(KvRequest::Op::get, k);
      prehashed.key_hash = sim::Rng::hash(k);
      if (server.apply(prehashed).status != KvStatus::ok) return false;
      if (server.apply(make(KvRequest::Op::get, k)).status != KvStatus::ok) return false;
    }
    return true;
  };
  for (std::size_t i = 0; i < kItems; ++i) {
    ASSERT_EQ(server.apply(make(KvRequest::Op::set, key(i), "v")).status, KvStatus::ok);
    if (((i + 1) & i) == 0) {
      ASSERT_TRUE(all_hit(i + 1)) << "after " << i + 1 << " items";
    }
  }
  ASSERT_EQ(server.item_count(), kItems);
  ASSERT_TRUE(all_hit(kItems));
  EXPECT_EQ(server.evictions(), 0u);

  // The lookups above left the keys in ascending recency. Touch k0, so the
  // next store must evict k1: the LRU's key pointers survived every rehash.
  server.apply(make(KvRequest::Op::get, key(0)));
  ASSERT_EQ(server.apply(make(KvRequest::Op::set, "x000000", "v")).status, KvStatus::ok);
  EXPECT_EQ(server.evictions(), 1u);
  EXPECT_EQ(server.apply(make(KvRequest::Op::get, key(1))).status, KvStatus::not_found);
  EXPECT_EQ(server.apply(make(KvRequest::Op::get, key(0))).status, KvStatus::ok);
  EXPECT_EQ(server.apply(make(KvRequest::Op::get, key(2))).status, KvStatus::ok);
}

// The memcached defaults (LRU eviction on, a 56-byte item header), as kvload
// and fig10 run them: items of mixed sizes are charged key + value + 56
// bytes, leave in least-recently-used order, and flush() drops them all.
TEST(MemCacheServer, DefaultLruServerAccountsAndEvictsInRecencyOrder) {
  Fixture f;
  KvConfig cfg;
  ASSERT_TRUE(cfg.lru_eviction);
  ASSERT_EQ(cfg.item_overhead_bytes, 56u);
  const auto key = [](int i) { return "/app/d" + std::to_string(i % 3) + "/f" + std::to_string(i); };
  const auto value = [](int i) { return std::string(static_cast<std::size_t>(8 + 13 * i), 'v'); };
  std::uint64_t all_bytes = 0;
  for (int i = 0; i < 8; ++i) all_bytes += key(i).size() + value(i).size() + 56;
  // Room for everything but the first two items written.
  cfg.capacity_bytes = all_bytes - 1;
  MemCacheServer server(f.sim, f.fabric, NodeId{0}, cfg);

  std::uint64_t expected = 0;
  for (int i = 0; i < 7; ++i) {
    ASSERT_EQ(server.apply(make(KvRequest::Op::set, key(i), value(i))).status, KvStatus::ok);
    expected += key(i).size() + value(i).size() + 56;
    EXPECT_EQ(server.bytes_used(), expected) << i;
  }
  // Recency now runs 1, 2, 3, 4, 5, 6, 0 from coldest to hottest.
  ASSERT_EQ(server.apply(make(KvRequest::Op::get, key(0))).value, value(0));
  ASSERT_EQ(server.apply(make(KvRequest::Op::set, key(7), value(7))).status, KvStatus::ok);
  EXPECT_EQ(server.evictions(), 1u);
  EXPECT_EQ(server.apply(make(KvRequest::Op::get, key(1))).status, KvStatus::not_found);
  expected += key(7).size() + value(7).size() + 56 - key(1).size() - value(1).size() - 56;
  EXPECT_EQ(server.bytes_used(), expected);

  // A value that needs two victims' room takes the two coldest: 2 and 3.
  const std::string big(value(2).size() + value(3).size() + 80, 'b');
  ASSERT_EQ(server.apply(make(KvRequest::Op::set, "/app/big", big)).status, KvStatus::ok);
  EXPECT_EQ(server.evictions(), 3u);
  EXPECT_EQ(server.apply(make(KvRequest::Op::get, key(2))).status, KvStatus::not_found);
  EXPECT_EQ(server.apply(make(KvRequest::Op::get, key(3))).status, KvStatus::not_found);
  expected += std::string("/app/big").size() + big.size() + 56;
  expected -= key(2).size() + value(2).size() + 56 + key(3).size() + value(3).size() + 56;
  EXPECT_EQ(server.bytes_used(), expected);
  for (int i : {0, 4, 5, 6, 7}) {
    const KvResponse got = server.apply(make(KvRequest::Op::get, key(i)));
    EXPECT_EQ(got.value, value(i)) << i;
  }
  EXPECT_EQ(server.item_count(), 6u);

  server.flush();
  EXPECT_EQ(server.item_count(), 0u);
  EXPECT_EQ(server.bytes_used(), 0u);
  EXPECT_TRUE(server.keys_with_prefix("/").empty());
  EXPECT_EQ(server.apply(make(KvRequest::Op::get, key(0))).status, KvStatus::not_found);
  // The flushed server fills and evicts like a fresh one.
  for (int i = 0; i < 8; ++i) server.apply(make(KvRequest::Op::set, key(i), value(i)));
  EXPECT_EQ(server.evictions(), 4u);
  EXPECT_EQ(server.apply(make(KvRequest::Op::get, key(0))).status, KvStatus::not_found);
  EXPECT_EQ(server.apply(make(KvRequest::Op::get, key(1))).status, KvStatus::ok);
}

TEST(MemCacheServer, NoSpaceWhenEvictionDisabled) {
  Fixture f;
  KvConfig cfg;
  cfg.item_overhead_bytes = 0;
  cfg.capacity_bytes = 10;
  cfg.lru_eviction = false;
  MemCacheServer server(f.sim, f.fabric, NodeId{0}, cfg);
  EXPECT_EQ(server.apply(make(KvRequest::Op::set, "k", "12345678")).status, KvStatus::ok);
  EXPECT_EQ(server.apply(make(KvRequest::Op::set, "q", "12345678")).status, KvStatus::no_space);
  // The original item is untouched.
  EXPECT_EQ(server.apply(make(KvRequest::Op::get, "k")).status, KvStatus::ok);
}

TEST(MemCacheServer, OversizeUpdateOfExistingKeyEvictsOthersNotItself) {
  Fixture f;
  KvConfig cfg;
  cfg.item_overhead_bytes = 0;
  cfg.capacity_bytes = 20;
  MemCacheServer server(f.sim, f.fabric, NodeId{0}, cfg);
  server.apply(make(KvRequest::Op::set, "a", "123456789"));  // 10 bytes
  server.apply(make(KvRequest::Op::set, "b", "123456789"));  // 10 bytes
  // Growing "a" to 19 bytes requires evicting "b".
  EXPECT_EQ(server.apply(make(KvRequest::Op::set, "a", "123456789012345678")).status,
            KvStatus::ok);
  EXPECT_EQ(server.apply(make(KvRequest::Op::get, "b")).status, KvStatus::not_found);
  EXPECT_EQ(server.apply(make(KvRequest::Op::get, "a")).value, "123456789012345678");
}

TEST(MemCacheServer, KeysWithPrefixFindsSubtree) {
  Fixture f;
  MemCacheServer server(f.sim, f.fabric, NodeId{0});
  server.apply(make(KvRequest::Op::set, "/ws/a", "1"));
  server.apply(make(KvRequest::Op::set, "/ws/b", "2"));
  server.apply(make(KvRequest::Op::set, "/other/c", "3"));
  auto keys = server.keys_with_prefix("/ws/");
  std::set<std::string> got(keys.begin(), keys.end());
  EXPECT_EQ(got, (std::set<std::string>{"/ws/a", "/ws/b"}));
}

TEST(MemCacheServer, RpcPathChargesWireAndServiceTime) {
  Fixture f;
  MemCacheServer server(f.sim, f.fabric, NodeId{0});
  const auto resp = sim::run_task(
      f.sim, server.call(NodeId{1}, make(KvRequest::Op::set, "k", "v")));
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, KvStatus::ok);
  // Two remote hops (>= 25us each) plus >= 1.5us service.
  EXPECT_GE(f.sim.now(), 51'500u);
}

TEST(HashRing, DistributesKeysAcrossNodes) {
  HashRing ring;
  for (std::uint32_t n = 0; n < 4; ++n) ring.add_node(NodeId{n});
  std::map<std::uint32_t, int> hits;
  for (int i = 0; i < 10000; ++i) {
    hits[ring.node_for("/dir/file" + std::to_string(i)).value]++;
  }
  ASSERT_EQ(hits.size(), 4u);
  for (const auto& [node, count] : hits) {
    EXPECT_GT(count, 1000) << "node " << node << " underloaded";
    EXPECT_LT(count, 5000) << "node " << node << " overloaded";
  }
}

TEST(HashRing, RemovalOnlyRemapsVictimKeys) {
  HashRing ring;
  for (std::uint32_t n = 0; n < 4; ++n) ring.add_node(NodeId{n});
  std::map<std::string, NodeId> before;
  for (int i = 0; i < 2000; ++i) {
    const std::string key = "/k" + std::to_string(i);
    before[key] = ring.node_for(key);
  }
  ring.remove_node(NodeId{2});
  int moved = 0;
  for (const auto& [key, owner] : before) {
    const NodeId now = ring.node_for(key);
    if (owner == NodeId{2}) {
      EXPECT_NE(now, NodeId{2});
    } else {
      if (now != owner) ++moved;
    }
  }
  EXPECT_EQ(moved, 0) << "keys not owned by the removed node must not move";
}

TEST(HashRing, LookupIsStable) {
  HashRing a, b;
  for (std::uint32_t n = 0; n < 8; ++n) {
    a.add_node(NodeId{n});
    b.add_node(NodeId{n});
  }
  for (int i = 0; i < 100; ++i) {
    const std::string key = "/stable" + std::to_string(i);
    EXPECT_EQ(a.node_for(key), b.node_for(key));
  }
}

// add_node merges a node's points in one pass; the owners it produces must
// match a ring built point by point (first owner of a point wins), across a
// 64-node deploy, a removal and a re-add.
TEST(HashRing, MergedRingMatchesPointByPointRing) {
  constexpr std::uint32_t kVnodes = 64;
  std::map<std::uint64_t, NodeId> reference;
  const auto reference_add = [&](NodeId node) {
    for (std::uint32_t r = 0; r < kVnodes; ++r) reference.emplace(HashRing::point(node, r), node);
  };
  const auto reference_owner = [&](std::uint64_t hash) {
    auto it = reference.lower_bound(hash);
    return (it == reference.end() ? reference.begin() : it)->second;
  };
  HashRing ring(kVnodes);
  for (std::uint32_t n = 0; n < 64; ++n) {
    ring.add_node(NodeId{n});
    reference_add(NodeId{n});
  }
  sim::Rng rng(7);
  std::vector<std::uint64_t> hashes(100'000);
  for (std::uint64_t& h : hashes) h = rng.next_u64();
  hashes.push_back(0);
  hashes.push_back(~std::uint64_t{0});
  hashes.push_back(reference.begin()->first);
  hashes.push_back(reference.rbegin()->first);
  const auto mismatches = [&] {
    std::size_t bad = 0;
    for (const std::uint64_t h : hashes) bad += ring.node_for_hash(h) != reference_owner(h);
    return bad;
  };
  EXPECT_EQ(mismatches(), 0u);

  ring.remove_node(NodeId{17});
  std::erase_if(reference, [](const auto& e) { return e.second == NodeId{17}; });
  EXPECT_EQ(mismatches(), 0u);

  ring.add_node(NodeId{17});
  reference_add(NodeId{17});
  EXPECT_EQ(mismatches(), 0u);
  EXPECT_EQ(ring.node_count(), 64u);
}

TEST(MemCacheCluster, RoutesByKeyAndServesAllOps) {
  Fixture f;
  MemCacheCluster cluster(f.sim, f.fabric);
  for (std::uint32_t n = 0; n < 4; ++n) cluster.add_server(NodeId{n});
  sim::run_task(f.sim, [](MemCacheCluster& c) -> Task<> {
    for (int i = 0; i < 64; ++i) {
      const std::string key = "/app/file" + std::to_string(i);
      const auto r = co_await c.set(NodeId{0}, key, "data" + std::to_string(i));
      EXPECT_EQ(r.status, KvStatus::ok);
    }
    for (int i = 0; i < 64; ++i) {
      const std::string key = "/app/file" + std::to_string(i);
      const auto g = co_await c.get(NodeId{0}, key);
      EXPECT_EQ(g.status, KvStatus::ok);
      EXPECT_EQ(g.value, "data" + std::to_string(i));
    }
    const auto d = co_await c.del(NodeId{0}, "/app/file0");
    EXPECT_EQ(d.status, KvStatus::ok);
    const auto miss = co_await c.get(NodeId{0}, "/app/file0");
    EXPECT_EQ(miss.status, KvStatus::not_found);
  }(cluster));
  EXPECT_EQ(cluster.total_items(), 63u);
  EXPECT_GT(cluster.total_bytes_used(), 0u);
  // Items landed on more than one server.
  int populated = 0;
  for (std::uint32_t n = 0; n < 4; ++n) {
    if (cluster.server_on(NodeId{n}).item_count() > 0) ++populated;
  }
  EXPECT_GT(populated, 1);
}

TEST(MemCacheCluster, CasRetryLoopConvergesUnderContention) {
  Fixture f;
  MemCacheCluster cluster(f.sim, f.fabric);
  for (std::uint32_t n = 0; n < 2; ++n) cluster.add_server(NodeId{n});
  // 8 concurrent incrementers, each adding 10 to a shared counter via CAS.
  sim::run_task(f.sim, [](Simulation& s, MemCacheCluster& c) -> Task<> {
    (void)co_await c.set(NodeId{0}, "/counter", "0");
    std::vector<Task<>> workers;
    for (std::uint32_t w = 0; w < 8; ++w) {
      workers.push_back([](MemCacheCluster& cl, std::uint32_t id) -> Task<> {
        for (int i = 0; i < 10; ++i) {
          for (;;) {
            const auto cur = co_await cl.get(NodeId{id % 2}, "/counter");
            const int v = std::stoi(cur.value);
            const auto r = co_await cl.cas(NodeId{id % 2}, "/counter",
                                           std::to_string(v + 1), cur.cas);
            if (r.status == KvStatus::ok) break;
            EXPECT_EQ(r.status, KvStatus::cas_mismatch);
          }
        }
      }(c, w));
    }
    co_await sim::when_all(s, std::move(workers));
    const auto fin = co_await c.get(NodeId{0}, "/counter");
    EXPECT_EQ(fin.value, "80");
  }(f.sim, cluster));
}

}  // namespace
}  // namespace pacon::kv
