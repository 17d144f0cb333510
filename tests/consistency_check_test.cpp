// Tests for the consistency auditor: the partial-consistency convergence
// promise, benign in-flight states, and divergence detection after failures.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/consistency_check.h"
#include "core/meta_entry.h"
#include "core/pacon.h"
#include "sim/combinators.h"
#include "sim/simulation.h"

namespace pacon::core {
namespace {

using fs::Path;
using sim::Simulation;
using sim::Task;

struct World {
  World()
      : fabric(sim, net::FabricConfig{}),
        dfs(sim, fabric),
        registry(sim, fabric, dfs),
        probe(sim, dfs, net::NodeId{90'001}) {
    dfs::DfsClient admin(sim, dfs, net::NodeId{90'000});
    sim::run_task(sim, [](dfs::DfsClient& io) -> Task<> {
      (void)co_await io.mkdir(Path::parse("/app"), fs::FileMode{0x7, 0x7, 0x7});
    }(admin));
  }

  std::unique_ptr<Pacon> make(std::uint32_t node) {
    RegionConfig cfg;
    cfg.root = Path::parse("/app");
    cfg.nodes = {net::NodeId{0}, net::NodeId{1}};
    return std::make_unique<Pacon>(registry, net::NodeId{node}, cfg);
  }

  Simulation sim;
  net::Fabric fabric;
  dfs::DfsCluster dfs;
  RegionRegistry registry;
  dfs::DfsClient probe;
};

// Rewrites `path`'s cached entry on whichever server holds it.
template <typename Edit>
void edit_cached(ConsistentRegion& region, const std::string& path, Edit edit) {
  for (const auto node : region.config().nodes) {
    auto& server = region.cache().server_on(node);
    const auto got = server.apply(kv::KvRequest{kv::KvRequest::Op::get, path, {}, 0, 0});
    if (got.status != kv::KvStatus::ok) continue;
    auto meta = decode_meta(got.value);
    ASSERT_TRUE(meta.has_value()) << path;
    edit(*meta);
    server.apply(kv::KvRequest{kv::KvRequest::Op::set, path, encode_meta(*meta), 0, 0});
    return;
  }
  FAIL() << path << " is not cached";
}

TEST(ConsistencyCheck, ConvergedAfterDrain) {
  World w;
  auto p = w.make(0);
  sim::run_task(w.sim, [](World& world, Pacon& pc) -> Task<> {
    (void)co_await pc.mkdir(Path::parse("/app/d"), fs::FileMode::dir_default());
    for (int i = 0; i < 20; ++i) {
      const Path f = Path::parse("/app/d").child("f" + std::to_string(i));
      (void)co_await pc.create(f, fs::FileMode::file_default());
      (void)co_await pc.write(f, 0, 100 + static_cast<std::uint64_t>(i));
    }
    co_await pc.drain();
    auto report = co_await check_consistency(pc.region(), world.probe);
    EXPECT_TRUE(report.converged()) << report.summary();
    EXPECT_TRUE(report.in_flight.empty());
    EXPECT_TRUE(report.mismatched.empty());
  }(w, *p));
}

TEST(ConsistencyCheck, InFlightEntriesAreClassifiedBenign) {
  World w;
  auto p = w.make(0);
  sim::run_task(w.sim, [](World& world, Pacon& pc) -> Task<> {
    for (int i = 0; i < 10; ++i) {
      (void)co_await pc.create(Path::parse("/app/q" + std::to_string(i)),
                               fs::FileMode::file_default());
    }
    // No drain: commits are still queued.
    auto report = co_await check_consistency(pc.region(), world.probe);
    EXPECT_TRUE(report.cache_only.empty()) << report.summary();
    EXPECT_FALSE(report.in_flight.empty());
    co_await pc.drain();
    auto after = co_await check_consistency(pc.region(), world.probe);
    EXPECT_TRUE(after.converged()) << after.summary();
    EXPECT_TRUE(after.in_flight.empty());
  }(w, *p));
}

TEST(ConsistencyCheck, FlagsTypeAndSizeMismatches) {
  World w;
  auto p = w.make(0);
  sim::run_task(w.sim, [](World& world, Pacon& pc) -> Task<> {
    (void)co_await pc.mkdir(Path::parse("/app/d"), fs::FileMode::dir_default());
    (void)co_await pc.mkdir(Path::parse("/app/d/sub"), fs::FileMode::dir_default());
    for (int i = 0; i < 4; ++i) {
      const Path f = Path::parse("/app/d").child("f" + std::to_string(i));
      (void)co_await pc.create(f, fs::FileMode::file_default());
      (void)co_await pc.write(f, 0, 100);
    }
    co_await pc.drain();
    ConsistentRegion& region = pc.region();
    edit_cached(region, "/app/d/f2", [](CachedMeta& m) { m.attr.size += 1; });
    edit_cached(region, "/app/d/sub", [](CachedMeta& m) { m.attr.type = fs::FileType::file; });
    // A cache-only entry: cached, never queued for commit, absent on the DFS.
    auto& server = region.cache().server_on(region.config().nodes[0]);
    CachedMeta ghost;
    server.apply(kv::KvRequest{kv::KvRequest::Op::set, "/app/ghost", encode_meta(ghost), 0, 0});

    auto report = co_await check_consistency(region, world.probe);
    EXPECT_FALSE(report.converged()) << report.summary();
    EXPECT_EQ(report.mismatched, (std::vector<std::string>{"/app/d/f2", "/app/d/sub"}));
    EXPECT_EQ(report.cache_only, std::vector<std::string>{"/app/ghost"});
    EXPECT_TRUE(report.in_flight.empty()) << report.summary();
    EXPECT_TRUE(report.marked_removed.empty()) << report.summary();
  }(w, *p));
}

TEST(ConsistencyCheck, MarkedRemovedTrackedUntilCommit) {
  World w;
  auto p = w.make(0);
  sim::run_task(w.sim, [](World& world, Pacon& pc) -> Task<> {
    (void)co_await pc.create(Path::parse("/app/f"), fs::FileMode::file_default());
    co_await pc.drain();
    (void)co_await pc.remove(Path::parse("/app/f"));
    auto mid = co_await check_consistency(pc.region(), world.probe);
    EXPECT_EQ(mid.marked_removed.size(), 1u) << mid.summary();
    co_await pc.drain();
    auto after = co_await check_consistency(pc.region(), world.probe);
    EXPECT_TRUE(after.marked_removed.empty()) << after.summary();
  }(w, *p));
}

TEST(ConsistencyCheck, EvictedEntriesAreBenignDfsOnly) {
  World w;
  auto p = w.make(0);
  sim::run_task(w.sim, [](World& world, Pacon& pc) -> Task<> {
    (void)co_await pc.create(Path::parse("/app/f"), fs::FileMode::file_default());
    co_await pc.drain();
    // Simulate an eviction: delete the cache entry directly on its server.
    for (const auto node : pc.region().config().nodes) {
      pc.region().cache().server_on(node).apply(
          kv::KvRequest{kv::KvRequest::Op::del, "/app/f", {}, 0, 0});
    }
    auto report = co_await check_consistency(pc.region(), world.probe);
    EXPECT_TRUE(report.converged()) << report.summary();
    EXPECT_EQ(report.dfs_only.size(), 1u);
  }(w, *p));
}

TEST(ConsistencyCheck, DetectsDivergenceAfterNodeLoss) {
  World w;
  auto p0 = w.make(0);
  auto p1 = w.make(1);
  sim::run_task(w.sim, [](World& world, Pacon& a, Pacon& b) -> Task<> {
    // b publishes work that will die with its node.
    for (int i = 0; i < 8; ++i) {
      (void)co_await b.create(Path::parse("/app/lost" + std::to_string(i)),
                              fs::FileMode::file_default());
    }
    world.fabric.set_node_down(net::NodeId{1}, true);
    a.region().detach_failed_node(net::NodeId{1});
    co_await a.drain();
    auto report = co_await check_consistency(a.region(), world.probe);
    // Entries cached on the surviving node whose commits died with node 1
    // surface as true divergence -- what restore() is for.
    EXPECT_FALSE(report.converged()) << report.summary();
  }(w, *p0, *p1));
}

}  // namespace
}  // namespace pacon::core
