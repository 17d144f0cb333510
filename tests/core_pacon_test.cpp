// Tests for the Pacon client facade and consistent-region semantics:
// create/stat/remove flows, cache-vs-DFS consistency, small-file inlining,
// region routing, merge, and recovery.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/pacon.h"
#include "sim/combinators.h"
#include "sim/simulation.h"

namespace pacon::core {
namespace {

using fs::FsError;
using fs::Path;
using sim::Simulation;
using sim::Task;

struct World {
  explicit World(std::size_t client_nodes = 2)
      : fabric(sim, net::FabricConfig{}),
        dfs(sim, fabric),
        registry(sim, fabric, dfs) {
    for (std::size_t i = 0; i < client_nodes; ++i) {
      nodes.push_back(net::NodeId{static_cast<std::uint32_t>(i)});
    }
  }

  std::unique_ptr<Pacon> make_client(std::uint32_t node, const std::string& workspace,
                                     RegionConfig base = {}) {
    base.root = Path::parse(workspace);
    if (base.nodes.empty()) base.nodes = nodes;
    return std::make_unique<Pacon>(registry, net::NodeId{node}, base);
  }

  /// Seeds the workspace directory on the DFS (apps get one from the admin).
  void seed_workspace(const std::string& path) {
    dfs::DfsClient admin(sim, dfs, net::NodeId{90'000});
    sim::run_task(sim, [](dfs::DfsClient& io, Path p) -> Task<> {
      (void)co_await io.mkdir(p, fs::FileMode{0x7, 0x7, 0x7});
    }(admin, Path::parse(path)));
  }

  Simulation sim;
  net::Fabric fabric;
  dfs::DfsCluster dfs;
  RegionRegistry registry;
  std::vector<net::NodeId> nodes;
};

TEST(Pacon, CreateIsVisibleToRegionPeersImmediately) {
  World w;
  w.seed_workspace("/app");
  auto c1 = w.make_client(0, "/app");
  auto c2 = w.make_client(1, "/app");
  sim::run_task(w.sim, [](Pacon& a, Pacon& b) -> Task<> {
    EXPECT_TRUE((co_await a.create(Path::parse("/app/f"), fs::FileMode::file_default())).has_value());
    // Strong consistency inside the region: peer sees it with no commit wait.
    auto got = co_await b.getattr(Path::parse("/app/f"));
    EXPECT_TRUE(got.has_value());
  }(*c1, *c2));
}

TEST(Pacon, CreateReturnsBeforeDfsCommit) {
  World w;
  w.seed_workspace("/app");
  auto c = w.make_client(0, "/app");
  sim::run_task(w.sim, [](World& world, Pacon& p) -> Task<> {
    (void)co_await p.create(Path::parse("/app/f"), fs::FileMode::file_default());
    // The async op is still pending toward the DFS at return time.
    EXPECT_GT(p.region().pending_commits(), 0u);
    dfs::DfsClient probe(world.sim, world.dfs, net::NodeId{90'001});
    auto on_dfs = co_await probe.getattr(Path::parse("/app/f"));
    EXPECT_FALSE(on_dfs.has_value()) << "backup copy should lag the cache";
    co_await p.drain();
    auto later = co_await probe.getattr(Path::parse("/app/f"));
    EXPECT_TRUE(later.has_value()) << "commit process must reach the DFS";
  }(w, *c));
}

TEST(Pacon, MkdirChainCommitsInNamespaceOrder) {
  World w;
  w.seed_workspace("/app");
  auto c = w.make_client(0, "/app");
  sim::run_task(w.sim, [](World& world, Pacon& p) -> Task<> {
    (void)co_await p.mkdir(Path::parse("/app/a"), fs::FileMode::dir_default());
    (void)co_await p.mkdir(Path::parse("/app/a/b"), fs::FileMode::dir_default());
    (void)co_await p.create(Path::parse("/app/a/b/f"), fs::FileMode::file_default());
    co_await p.drain();
    dfs::DfsClient probe(world.sim, world.dfs, net::NodeId{90'001});
    EXPECT_TRUE((co_await probe.getattr(Path::parse("/app/a/b/f"))).has_value());
  }(w, *c));
}

TEST(Pacon, DuplicateCreateFailsInCache) {
  World w;
  w.seed_workspace("/app");
  auto c = w.make_client(0, "/app");
  sim::run_task(w.sim, [](Pacon& p) -> Task<> {
    (void)co_await p.create(Path::parse("/app/f"), fs::FileMode::file_default());
    auto again = co_await p.create(Path::parse("/app/f"), fs::FileMode::file_default());
    EXPECT_EQ(again.error(), FsError::exists);
  }(*c));
}

TEST(Pacon, ParentCheckRejectsOrphanCreate) {
  World w;
  w.seed_workspace("/app");
  auto c = w.make_client(0, "/app");
  sim::run_task(w.sim, [](Pacon& p) -> Task<> {
    auto r = co_await p.create(Path::parse("/app/nodir/f"), fs::FileMode::file_default());
    EXPECT_EQ(r.error(), FsError::not_found);
  }(*c));
}

TEST(Pacon, ParentCheckOffTrustsApplication) {
  World w;
  w.seed_workspace("/app");
  RegionConfig cfg;
  cfg.parent_check = false;
  auto c = w.make_client(0, "/app", cfg);
  sim::run_task(w.sim, [](Pacon& p) -> Task<> {
    // The cache accepts it; the commit process will resubmit until the
    // parent exists (which the app guarantees by creating it eventually).
    auto r = co_await p.create(Path::parse("/app/late/f"), fs::FileMode::file_default());
    EXPECT_TRUE(r.has_value());
    auto r2 = co_await p.mkdir(Path::parse("/app/late"), fs::FileMode::dir_default());
    EXPECT_TRUE(r2.has_value());
    co_await p.drain();
    auto got = co_await p.getattr(Path::parse("/app/late/f"));
    EXPECT_TRUE(got.has_value());
  }(*c));
}

TEST(Pacon, RemoveMarksThenDeletesAfterCommit) {
  World w;
  w.seed_workspace("/app");
  auto c = w.make_client(0, "/app");
  sim::run_task(w.sim, [](World& world, Pacon& p) -> Task<> {
    (void)co_await p.create(Path::parse("/app/f"), fs::FileMode::file_default());
    co_await p.drain();
    EXPECT_TRUE((co_await p.remove(Path::parse("/app/f"))).has_value());
    // Marked removed: reads inside the region already miss it.
    EXPECT_EQ((co_await p.getattr(Path::parse("/app/f"))).error(), FsError::not_found);
    co_await p.drain();
    dfs::DfsClient probe(world.sim, world.dfs, net::NodeId{90'001});
    EXPECT_EQ((co_await probe.getattr(Path::parse("/app/f"))).error(), FsError::not_found);
  }(w, *c));
}

TEST(Pacon, RemoveOfUnknownFileIsNotFound) {
  World w;
  w.seed_workspace("/app");
  auto c = w.make_client(0, "/app");
  sim::run_task(w.sim, [](Pacon& p) -> Task<> {
    EXPECT_EQ((co_await p.remove(Path::parse("/app/ghost"))).error(), FsError::not_found);
  }(*c));
}

TEST(Pacon, GetattrMissLoadsFromDfs) {
  World w;
  w.seed_workspace("/app");
  // File pre-exists on the DFS (created by some earlier job).
  dfs::DfsClient admin(w.sim, w.dfs, net::NodeId{90'000});
  sim::run_task(w.sim, [](dfs::DfsClient& io) -> Task<> {
    (void)co_await io.create(Path::parse("/app/old"), fs::FileMode::file_default());
  }(admin));
  auto c = w.make_client(0, "/app");
  sim::run_task(w.sim, [](Pacon& p) -> Task<> {
    auto got = co_await p.getattr(Path::parse("/app/old"));
    EXPECT_TRUE(got.has_value());
    // Second hit is served by the cache.
    auto again = co_await p.getattr(Path::parse("/app/old"));
    EXPECT_TRUE(again.has_value());
  }(*c));
}

TEST(Pacon, RmdirSeesAllPriorCreates) {
  World w;
  w.seed_workspace("/app");
  auto c = w.make_client(0, "/app");
  sim::run_task(w.sim, [](Pacon& p) -> Task<> {
    (void)co_await p.mkdir(Path::parse("/app/d"), fs::FileMode::dir_default());
    (void)co_await p.create(Path::parse("/app/d/f"), fs::FileMode::file_default());
    // The barrier forces the queued create to the DFS first, so rmdir must
    // observe a non-empty directory even though the create was async.
    EXPECT_EQ((co_await p.rmdir(Path::parse("/app/d"))).error(), FsError::not_empty);
    (void)co_await p.remove(Path::parse("/app/d/f"));
    EXPECT_TRUE((co_await p.rmdir(Path::parse("/app/d"))).has_value());
    EXPECT_EQ((co_await p.getattr(Path::parse("/app/d"))).error(), FsError::not_found);
  }(*c));
}

TEST(Pacon, ReaddirReflectsAsyncCreates) {
  World w;
  w.seed_workspace("/app");
  auto c1 = w.make_client(0, "/app");
  auto c2 = w.make_client(1, "/app");
  sim::run_task(w.sim, [](Pacon& a, Pacon& b) -> Task<> {
    (void)co_await a.mkdir(Path::parse("/app/d"), fs::FileMode::dir_default());
    for (int i = 0; i < 10; ++i) {
      (void)co_await a.create(Path::parse("/app/d/f" + std::to_string(i)),
                              fs::FileMode::file_default());
    }
    auto entries = co_await b.readdir(Path::parse("/app/d"));
    EXPECT_TRUE(entries.has_value());
    if (entries) { EXPECT_EQ(entries->size(), 10u); }
  }(*c1, *c2));
}

TEST(Pacon, SmallFileInlineRoundTrip) {
  World w;
  w.seed_workspace("/app");
  auto c = w.make_client(0, "/app");
  sim::run_task(w.sim, [](Pacon& p) -> Task<> {
    (void)co_await p.create(Path::parse("/app/small"), fs::FileMode::file_default());
    auto wrote = co_await p.write(Path::parse("/app/small"), 0, 1024);
    EXPECT_TRUE(wrote.has_value());
    auto attr = co_await p.getattr(Path::parse("/app/small"));
    EXPECT_TRUE(attr.has_value());
    if (attr) { EXPECT_EQ(attr->size, 1024u); }
    auto bytes = co_await p.read(Path::parse("/app/small"), 0, 4096);
    EXPECT_TRUE(bytes.has_value());
    if (bytes) { EXPECT_EQ(*bytes, 1024u); }
  }(*c));
}

TEST(Pacon, LargeFileRedirectsToDfs) {
  World w;
  w.seed_workspace("/app");
  auto c = w.make_client(0, "/app");
  sim::run_task(w.sim, [](World& world, Pacon& p) -> Task<> {
    (void)co_await p.create(Path::parse("/app/big"), fs::FileMode::file_default());
    // 1 MiB exceeds the 4 KiB inline threshold: write-through to the DFS.
    auto wrote = co_await p.write(Path::parse("/app/big"), 0, 1 << 20);
    EXPECT_TRUE(wrote.has_value());
    std::uint64_t stored = 0;
    for (std::size_t i = 0; i < world.dfs.storage_count(); ++i) {
      stored += world.dfs.storage(i).bytes_written();
    }
    EXPECT_GE(stored, 1u << 20);
    auto bytes = co_await p.read(Path::parse("/app/big"), 0, 1 << 20);
    EXPECT_TRUE(bytes.has_value());
  }(w, *c));
}

TEST(Pacon, SmallFileConcurrentWritersConvergeViaCas) {
  World w;
  w.seed_workspace("/app");
  auto c1 = w.make_client(0, "/app");
  auto c2 = w.make_client(1, "/app");
  sim::run_task(w.sim, [](Simulation& s, Pacon& a, Pacon& b) -> Task<> {
    (void)co_await a.create(Path::parse("/app/shared"), fs::FileMode::file_default());
    std::vector<Task<>> writers;
    writers.push_back([](Pacon& p) -> Task<> {
      for (int i = 0; i < 20; ++i) (void)co_await p.write(Path::parse("/app/shared"), 0, 512);
    }(a));
    writers.push_back([](Pacon& p) -> Task<> {
      for (int i = 0; i < 20; ++i) (void)co_await p.write(Path::parse("/app/shared"), 512, 512);
    }(b));
    co_await sim::when_all(s, std::move(writers));
    auto attr = co_await a.getattr(Path::parse("/app/shared"));
    EXPECT_TRUE(attr.has_value());
    if (attr) { EXPECT_EQ(attr->size, 1024u); }
  }(w.sim, *c1, *c2));
}

TEST(Pacon, FsyncOnUncommittedFileUsesSpill) {
  World w;
  w.seed_workspace("/app");
  auto c = w.make_client(0, "/app");
  sim::run_task(w.sim, [](Pacon& p) -> Task<> {
    (void)co_await p.create(Path::parse("/app/f"), fs::FileMode::file_default());
    (void)co_await p.write(Path::parse("/app/f"), 0, 2048);
    // Create/write have not committed; fsync must still succeed durably.
    EXPECT_TRUE((co_await p.fsync(Path::parse("/app/f"))).has_value());
  }(*c));
}

TEST(Pacon, AccessOutsideWorkspaceRedirectsToDfs) {
  World w;
  w.seed_workspace("/app");
  w.seed_workspace("/other");
  dfs::DfsClient admin(w.sim, w.dfs, net::NodeId{90'000});
  sim::run_task(w.sim, [](dfs::DfsClient& io) -> Task<> {
    (void)co_await io.create(Path::parse("/other/x"), fs::FileMode::file_default());
  }(admin));
  auto c = w.make_client(0, "/app");
  sim::run_task(w.sim, [](Pacon& p) -> Task<> {
    auto got = co_await p.getattr(Path::parse("/other/x"));
    EXPECT_TRUE(got.has_value());
    EXPECT_TRUE((co_await p.create(Path::parse("/other/y"), fs::FileMode::file_default()))
                    .has_value());
  }(*c));
  EXPECT_EQ(w.registry.region_count(), 1u);
}

TEST(Pacon, OverlappingWorkspacesShareTheEnclosingRegion) {
  World w;
  w.seed_workspace("/app");
  auto outer = w.make_client(0, "/app");
  RegionConfig inner_cfg;
  auto inner = w.make_client(1, "/app/sub", inner_cfg);
  // Use case 3: both run in the region rooted at /app.
  EXPECT_EQ(&outer->region(), &inner->region());
  EXPECT_EQ(w.registry.region_count(), 1u);
}

TEST(Pacon, MergedRegionIsReadableNotWritable) {
  World w;
  w.seed_workspace("/app1");
  w.seed_workspace("/app2");
  // Disjoint nodes: app1 (node 0) is not a member of app2's region, and its
  // merged readdir still runs app2's barrier.
  RegionConfig app1_cfg;
  app1_cfg.nodes = {net::NodeId{0}};
  RegionConfig app2_cfg;
  app2_cfg.nodes = {net::NodeId{1}};
  auto a = w.make_client(0, "/app1", app1_cfg);
  auto b = w.make_client(1, "/app2", app2_cfg);
  sim::run_task(w.sim, [](Pacon& app1, Pacon& app2) -> Task<> {
    const Path data = Path::parse("/app2/data");
    const Path sub = Path::parse("/app2/sub");
    const Path fresh_file = Path::parse("/app2/mine");
    const Path fresh_dir = Path::parse("/app2/newdir");
    EXPECT_TRUE((co_await app2.create(data, fs::FileMode::file_default())).has_value());
    EXPECT_EQ((co_await app2.write(data, 0, 100)).value_or(0), 100u);
    EXPECT_TRUE((co_await app2.mkdir(sub, fs::FileMode::dir_default())).has_value());
    EXPECT_TRUE((co_await app1.merge_region(Path::parse("/app2"))).has_value());

    // Consistent reads of the other workspace, served by its region.
    auto got = co_await app1.getattr(data);
    EXPECT_TRUE(got.has_value());
    EXPECT_EQ(got ? got->size : 0, 100u);
    auto listing = co_await app1.readdir(Path::parse("/app2"));
    EXPECT_TRUE(listing.has_value());
    EXPECT_EQ(listing ? listing->size() : 0, 2u);
    EXPECT_EQ((co_await app1.read(data, 0, 100)).value_or(0), 100u);

    // Read-only: every mutation is rejected (Section III.D.4) ...
    ConsistentRegion& other = app2.region();
    const std::uint64_t items = other.cache().total_items();
    const std::uint64_t bytes = other.cache().total_bytes_used();
    const std::uint64_t pending = other.pending_commits();
    EXPECT_EQ((co_await app1.mkdir(fresh_dir, fs::FileMode::dir_default())).error(),
              FsError::permission);
    EXPECT_EQ((co_await app1.create(fresh_file, fs::FileMode::file_default())).error(),
              FsError::permission);
    EXPECT_EQ((co_await app1.remove(data)).error(), FsError::permission);
    EXPECT_EQ((co_await app1.rmdir(sub)).error(), FsError::permission);
    EXPECT_EQ((co_await app1.write(data, 0, 4096)).error(), FsError::permission);
    EXPECT_EQ((co_await app1.fsync(data)).error(), FsError::permission);

    // ... and leaves the region as it was.
    EXPECT_EQ(other.cache().total_items(), items);
    EXPECT_EQ(other.cache().total_bytes_used(), bytes);
    EXPECT_EQ(other.pending_commits(), pending);
    auto still = co_await app2.getattr(data);
    EXPECT_EQ(still ? still->size : 0, 100u);
    EXPECT_TRUE((co_await app2.getattr(sub)).has_value());
    EXPECT_EQ((co_await app2.getattr(fresh_file)).error(), FsError::not_found);
    EXPECT_EQ((co_await app2.getattr(fresh_dir)).error(), FsError::not_found);
  }(*a, *b));
}

TEST(Pacon, MergeUnknownRegionFails) {
  World w;
  w.seed_workspace("/app");
  auto c = w.make_client(0, "/app");
  sim::run_task(w.sim, [](Pacon& p) -> Task<> {
    EXPECT_EQ((co_await p.merge_region(Path::parse("/nope"))).error(), FsError::not_found);
  }(*c));
}

TEST(Pacon, CheckpointAndRestoreRollBackTheWorkspace) {
  World w;
  w.seed_workspace("/app");
  auto c = w.make_client(0, "/app");
  sim::run_task(w.sim, [](Pacon& p) -> Task<> {
    (void)co_await p.create(Path::parse("/app/keep"), fs::FileMode::file_default());
    auto ckpt = co_await p.checkpoint();
    EXPECT_TRUE(ckpt.has_value());
    if (!ckpt) co_return;
    (void)co_await p.create(Path::parse("/app/lost"), fs::FileMode::file_default());
    co_await p.drain();
    EXPECT_TRUE((co_await p.restore(*ckpt)).has_value());
    EXPECT_TRUE((co_await p.getattr(Path::parse("/app/keep"))).has_value());
    EXPECT_EQ((co_await p.getattr(Path::parse("/app/lost"))).error(), FsError::not_found);
  }(*c));
}

TEST(Pacon, NodeFailureRecoveryViaCheckpoint) {
  World w(3);
  w.seed_workspace("/app");
  auto c0 = w.make_client(0, "/app");
  auto c1 = w.make_client(1, "/app");
  sim::run_task(w.sim, [](World& world, Pacon& a, Pacon& b) -> Task<> {
    (void)co_await a.create(Path::parse("/app/stable"), fs::FileMode::file_default());
    auto ckpt = co_await a.checkpoint();
    EXPECT_TRUE(ckpt.has_value());
    if (!ckpt) co_return;
    // Work after the checkpoint, then node 1 dies with ops in flight.
    (void)co_await b.create(Path::parse("/app/inflight"), fs::FileMode::file_default());
    world.fabric.set_node_down(net::NodeId{1}, true);
    a.region().detach_failed_node(net::NodeId{1});
    // Roll the region back; the surviving client resumes from the ckpt.
    EXPECT_TRUE((co_await a.restore(*ckpt)).has_value());
    EXPECT_TRUE((co_await a.getattr(Path::parse("/app/stable"))).has_value());
    EXPECT_EQ((co_await a.getattr(Path::parse("/app/inflight"))).error(), FsError::not_found);
    // And can keep working.
    EXPECT_TRUE((co_await a.create(Path::parse("/app/post"), fs::FileMode::file_default()))
                    .has_value());
    co_await a.drain();
  }(w, *c0, *c1));
}

TEST(Pacon, EvictionKeepsWorkingSetUsable) {
  World w;
  RegionConfig cfg;
  cfg.nodes = w.nodes;
  cfg.cache.capacity_bytes = 256 << 10;  // small caches to force pressure
  cfg.eviction_period = 1_ms;
  cfg.eviction_high_water = 0.5;
  cfg.eviction_low_water = 0.3;
  w.seed_workspace("/tight");
  cfg.root = Path::parse("/tight");
  auto tight = std::make_unique<Pacon>(w.registry, net::NodeId{0}, cfg);
  std::vector<std::string> created;
  sim::run_task(w.sim, [](Pacon& p, std::vector<std::string>& made) -> Task<> {
    for (int d = 0; d < 8; ++d) {
      const std::string dir = "/tight/d" + std::to_string(d);
      (void)co_await p.mkdir(Path::parse(dir), fs::FileMode::dir_default());
      for (int i = 0; i < 300; ++i) {
        const std::string f = dir + "/f" + std::to_string(i);
        auto r = co_await p.create(Path::parse(f), fs::FileMode::file_default());
        if (r) made.push_back(f);
      }
    }
    co_await p.drain();
  }(*tight, created));
  // Creations overwhelmingly succeed despite the pressure.
  EXPECT_GT(created.size(), 2000u);
  w.sim.run_for(1_s);  // let the evictor catch up
  EXPECT_GT(tight->region().evicted_entries(), 0u);
  // Everything created is still reachable (evicted entries reload from DFS).
  sim::run_task(w.sim, [](Pacon& p, const std::vector<std::string>& made) -> Task<> {
    for (std::size_t i = 0; i < made.size(); i += 97) {
      auto got = co_await p.getattr(Path::parse(made[i]));
      EXPECT_TRUE(got.has_value()) << made[i];
    }
  }(*tight, created));
}

}  // namespace
}  // namespace pacon::core
