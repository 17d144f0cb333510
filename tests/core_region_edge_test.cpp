// Edge-case tests for region semantics: odd paths, type confusion, boundary
// offsets, merged-region reads, and operations on the workspace root.
#include <gtest/gtest.h>

#include <memory>

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
  World()
      : fabric(sim, net::FabricConfig{}),
        dfs(sim, fabric),
        registry(sim, fabric, dfs) {
    dfs::DfsClient admin(sim, dfs, net::NodeId{90'000});
    sim::run_task(sim, [](dfs::DfsClient& io) -> Task<> {
      (void)co_await io.mkdir(Path::parse("/app"), fs::FileMode{0x7, 0x7, 0x7});
      (void)co_await io.mkdir(Path::parse("/peer"), fs::FileMode{0x7, 0x7, 0x7});
    }(admin));
  }

  std::unique_ptr<Pacon> make(std::uint32_t node, const char* ws,
                              std::vector<net::NodeId> nodes, RegionConfig cfg = {}) {
    cfg.root = Path::parse(ws);
    cfg.nodes = std::move(nodes);
    return std::make_unique<Pacon>(registry, net::NodeId{node}, cfg);
  }

  Simulation sim;
  net::Fabric fabric;
  dfs::DfsCluster dfs;
  RegionRegistry registry;
};

TEST(RegionEdge, GetattrOfWorkspaceRootLoadsFromDfs) {
  World w;
  auto p = w.make(0, "/app", {net::NodeId{0}});
  sim::run_task(w.sim, [](Pacon& pc) -> Task<> {
    auto root = co_await pc.getattr(Path::parse("/app"));
    EXPECT_TRUE(root.has_value());
    if (root) { EXPECT_TRUE(root->is_dir()); }
  }(*p));
}

TEST(RegionEdge, CreateOverMarkedRemovedEntryIsExists) {
  World w;
  auto p = w.make(0, "/app", {net::NodeId{0}});
  sim::run_task(w.sim, [](Pacon& pc) -> Task<> {
    (void)co_await pc.create(Path::parse("/app/f"), fs::FileMode::file_default());
    co_await pc.drain();
    (void)co_await pc.remove(Path::parse("/app/f"));
    // The marked entry is still in the cache until the remove commits;
    // re-creating during that window surfaces EEXIST (documented behavior).
    auto again = co_await pc.create(Path::parse("/app/f"), fs::FileMode::file_default());
    if (!again) { EXPECT_EQ(again.error(), FsError::exists); }
    co_await pc.drain();
    // After commit the name is free again.
    auto fresh = co_await pc.create(Path::parse("/app/f"), fs::FileMode::file_default());
    EXPECT_TRUE(fresh.has_value());
  }(*p));
}

TEST(RegionEdge, ReaddirOfFileFails) {
  World w;
  auto p = w.make(0, "/app", {net::NodeId{0}});
  sim::run_task(w.sim, [](Pacon& pc) -> Task<> {
    (void)co_await pc.create(Path::parse("/app/f"), fs::FileMode::file_default());
    auto r = co_await pc.readdir(Path::parse("/app/f"));
    EXPECT_FALSE(r.has_value());
  }(*p));
}

TEST(RegionEdge, RemoveOfDirectoryIsRejected) {
  World w;
  auto p = w.make(0, "/app", {net::NodeId{0}});
  sim::run_task(w.sim, [](Pacon& pc) -> Task<> {
    (void)co_await pc.mkdir(Path::parse("/app/d"), fs::FileMode::dir_default());
    auto r = co_await pc.remove(Path::parse("/app/d"));
    EXPECT_EQ(r.error(), FsError::is_a_directory);
  }(*p));
}

TEST(RegionEdge, RmdirOfMissingDirIsNotFound) {
  World w;
  auto p = w.make(0, "/app", {net::NodeId{0}});
  sim::run_task(w.sim, [](Pacon& pc) -> Task<> {
    auto r = co_await pc.rmdir(Path::parse("/app/ghost"));
    EXPECT_EQ(r.error(), FsError::not_found);
  }(*p));
}

TEST(RegionEdge, ReadBeyondEofReturnsShortOrZero) {
  World w;
  auto p = w.make(0, "/app", {net::NodeId{0}});
  sim::run_task(w.sim, [](Pacon& pc) -> Task<> {
    (void)co_await pc.create(Path::parse("/app/f"), fs::FileMode::file_default());
    (void)co_await pc.write(Path::parse("/app/f"), 0, 100);
    auto over = co_await pc.read(Path::parse("/app/f"), 50, 1000);
    EXPECT_TRUE(over.has_value());
    if (over) { EXPECT_EQ(*over, 50u); }
    auto past = co_await pc.read(Path::parse("/app/f"), 500, 10);
    EXPECT_TRUE(past.has_value());
    if (past) { EXPECT_EQ(*past, 0u); }
  }(*p));
}

TEST(RegionEdge, SmallFileGrowsAcrossThresholdMidStream) {
  World w;
  auto p = w.make(0, "/app", {net::NodeId{0}});
  sim::run_task(w.sim, [](Pacon& pc) -> Task<> {
    (void)co_await pc.create(Path::parse("/app/f"), fs::FileMode::file_default());
    // Stay inline...
    (void)co_await pc.write(Path::parse("/app/f"), 0, 2000);
    // ...then cross the 4 KiB threshold: transitions to the DFS data path.
    auto big = co_await pc.write(Path::parse("/app/f"), 2000, 6000);
    EXPECT_TRUE(big.has_value());
    auto attr = co_await pc.getattr(Path::parse("/app/f"));
    EXPECT_TRUE(attr.has_value());
    if (attr) { EXPECT_EQ(attr->size, 8000u); }
    co_await pc.drain();
  }(*p));
}

TEST(RegionEdge, MergedReaddirIsAllowedAndConsistent) {
  World w;
  auto mine = w.make(0, "/app", {net::NodeId{0}});
  auto theirs = w.make(1, "/peer", {net::NodeId{1}});
  sim::run_task(w.sim, [](Pacon& a, Pacon& b) -> Task<> {
    (void)co_await b.mkdir(Path::parse("/peer/out"), fs::FileMode::dir_default());
    for (int i = 0; i < 5; ++i) {
      (void)co_await b.create(Path::parse("/peer/out/f" + std::to_string(i)),
                              fs::FileMode::file_default());
    }
    (void)co_await a.merge_region(Path::parse("/peer"));
    // readdir is a read: allowed on merged regions, barrier-consistent.
    auto listing = co_await a.readdir(Path::parse("/peer/out"));
    EXPECT_TRUE(listing.has_value());
    if (listing) { EXPECT_EQ(listing->size(), 5u); }
    // Small-file reads from the merged region's cache also work.
    (void)co_await b.write(Path::parse("/peer/out/f0"), 0, 128);
    auto bytes = co_await a.read(Path::parse("/peer/out/f0"), 0, 128);
    EXPECT_TRUE(bytes.has_value());
  }(*mine, *theirs));
}

// The merged-read tests below put the reader on a node outside the merged
// region: its DFS round trips need a client the member nodes do not own.

TEST(RegionEdge, MergedSpilledFileIsReadableFromANonMember) {
  World w;
  auto mine = w.make(0, "/app", {net::NodeId{0}});
  auto theirs = w.make(1, "/peer", {net::NodeId{1}});
  sim::run_task(w.sim, [](Pacon& a, Pacon& b) -> Task<> {
    const Path big = Path::parse("/peer/big");
    (void)co_await b.create(big, fs::FileMode::file_default());
    // Past the 4 KiB threshold the data lives on the DFS only.
    EXPECT_EQ((co_await b.write(big, 0, 8000)).value_or(0), 8000u);
    co_await b.drain();
    EXPECT_TRUE((co_await a.merge_region(Path::parse("/peer"))).has_value());
    auto attr = co_await a.getattr(big);
    EXPECT_TRUE(attr.has_value());
    if (attr) { EXPECT_EQ(attr->size, 8000u); }
    EXPECT_EQ((co_await a.read(big, 0, 8000)).value_or(0), 8000u);
    EXPECT_EQ((co_await a.read(big, 4000, 4000)).value_or(0), 4000u);
    // Past end of file the DFS read is short, as an inline file's is.
    auto over = co_await a.read(big, 6000, 4000);
    EXPECT_TRUE(over.has_value());
    if (over) { EXPECT_EQ(*over, 2000u); }
    auto past = co_await a.read(big, 8000, 4000);
    EXPECT_TRUE(past.has_value());
    if (past) { EXPECT_EQ(*past, 0u); }
  }(*mine, *theirs));
}

TEST(RegionEdge, MergedHierarchicalPermissionChecksRunFromANonMember) {
  World w;
  RegionConfig hierarchical;
  hierarchical.batch_permission = false;
  auto mine = w.make(0, "/app", {net::NodeId{0}});
  auto theirs = w.make(1, "/peer", {net::NodeId{1}}, hierarchical);
  // Made on the DFS behind the region's back: uncached, so both the
  // ancestor walk and the getattr itself go to the DFS.
  dfs::DfsClient admin(w.sim, w.dfs, net::NodeId{90'000});
  sim::run_task(w.sim, [](dfs::DfsClient& io) -> Task<> {
    (void)co_await io.mkdir(Path::parse("/peer/seeded"), fs::FileMode{0x7, 0x7, 0x7});
  }(admin));
  sim::run_task(w.sim, [](Pacon& a, Pacon& b) -> Task<> {
    (void)co_await b.mkdir(Path::parse("/peer/out"), fs::FileMode::dir_default());
    (void)co_await b.create(Path::parse("/peer/out/f0"), fs::FileMode::file_default());
    EXPECT_TRUE((co_await a.merge_region(Path::parse("/peer"))).has_value());
    auto seeded = co_await a.getattr(Path::parse("/peer/seeded"));
    EXPECT_TRUE(seeded.has_value());
    if (seeded) { EXPECT_TRUE(seeded->is_dir()); }
    auto file = co_await a.getattr(Path::parse("/peer/out/f0"));
    EXPECT_TRUE(file.has_value());
    auto listing = co_await a.readdir(Path::parse("/peer/out"));
    EXPECT_TRUE(listing.has_value());
    if (listing) { EXPECT_EQ(listing->size(), 1u); }
    auto top = co_await a.readdir(Path::parse("/peer"));
    EXPECT_TRUE(top.has_value());
    if (top) { EXPECT_EQ(top->size(), 2u); }
  }(*mine, *theirs));
}

TEST(RegionEdge, MergeIsIdempotent) {
  World w;
  auto mine = w.make(0, "/app", {net::NodeId{0}});
  auto theirs = w.make(1, "/peer", {net::NodeId{1}});
  sim::run_task(w.sim, [](Pacon& a) -> Task<> {
    EXPECT_TRUE((co_await a.merge_region(Path::parse("/peer"))).has_value());
    EXPECT_TRUE((co_await a.merge_region(Path::parse("/peer"))).has_value());
    EXPECT_TRUE((co_await a.merge_region(Path::parse("/app"))).has_value());  // self: no-op
  }(*mine));
  (void)theirs;
}

TEST(RegionEdge, DeepNestingWorks) {
  World w;
  auto p = w.make(0, "/app", {net::NodeId{0}});
  sim::run_task(w.sim, [](Pacon& pc) -> Task<> {
    Path dir = Path::parse("/app");
    for (int d = 0; d < 20; ++d) {
      dir = dir.child("n" + std::to_string(d));
      EXPECT_TRUE((co_await pc.mkdir(dir, fs::FileMode::dir_default())).has_value()) << d;
    }
    (void)co_await pc.create(dir.child("leaf"), fs::FileMode::file_default());
    co_await pc.drain();
    auto got = co_await pc.getattr(dir.child("leaf"));
    EXPECT_TRUE(got.has_value());
  }(*p));
}

TEST(RegionEdge, ManySmallFilesFitWithinAccounting) {
  World w;
  auto p = w.make(0, "/app", {net::NodeId{0}});
  sim::run_task(w.sim, [](Pacon& pc) -> Task<> {
    for (int i = 0; i < 200; ++i) {
      const Path f = Path::parse("/app").child("s" + std::to_string(i));
      (void)co_await pc.create(f, fs::FileMode::file_default());
      (void)co_await pc.write(f, 0, 64);
    }
    co_await pc.drain();
  }(*p));
  EXPECT_EQ(p->region().cache().total_items() > 200, true);  // files + workspace entries
  EXPECT_GT(p->region().cache().total_bytes_used(), 200u * 64u);
}

}  // namespace
}  // namespace pacon::core
