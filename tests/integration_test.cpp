// End-to-end integration scenarios spanning every layer: multiple
// applications, mixed operation streams, cross-system consistency between
// the Pacon view and the DFS view, and long mixed runs with eviction,
// barriers and commit retries all active at once.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/pacon.h"
#include "sim/combinators.h"
#include "sim/simulation.h"

namespace pacon {
namespace {

using core::Pacon;
using core::RegionConfig;
using core::RegionRegistry;
using fs::FsError;
using fs::Path;
using sim::Simulation;
using sim::Task;

struct World {
  explicit World(std::size_t client_nodes = 4, std::uint64_t seed = 42)
      : sim(seed),
        fabric(sim, net::FabricConfig{}),
        dfs(sim, fabric),
        registry(sim, fabric, dfs) {
    for (std::size_t i = 0; i < client_nodes; ++i) {
      nodes.push_back(net::NodeId{static_cast<std::uint32_t>(i)});
    }
  }

  void provision(const std::string& path) {
    dfs::DfsClient admin(sim, dfs, net::NodeId{90'000});
    sim::run_task(sim, [](dfs::DfsClient& io, Path p) -> Task<> {
      (void)co_await io.mkdir(p, fs::FileMode{0x7, 0x7, 0x7});
    }(admin, Path::parse(path)));
  }

  std::set<std::string> dfs_subtree(const std::string& root) {
    std::set<std::string> out;
    dfs::DfsClient probe(sim, dfs, net::NodeId{90'001});
    sim::run_task(sim, [](dfs::DfsClient& io, Path r, std::set<std::string>& acc) -> Task<> {
      co_await walk(io, r, acc);
    }(probe, Path::parse(root), out));
    return out;
  }

  static Task<> walk(dfs::DfsClient& io, Path dir, std::set<std::string>& acc) {
    auto entries = co_await io.readdir(dir);
    if (!entries) co_return;
    for (const auto& e : *entries) {
      const Path child = dir.child(e.name);
      acc.insert(child.str());
      if (e.type == fs::FileType::directory) co_await walk(io, child, acc);
    }
  }

  Simulation sim;
  net::Fabric fabric;
  dfs::DfsCluster dfs;
  RegionRegistry registry;
  std::vector<net::NodeId> nodes;
};

TEST(Integration, MixedWorkloadConvergesToConsistentDfsState) {
  World w;
  w.provision("/app");
  RegionConfig cfg;
  cfg.root = Path::parse("/app");
  cfg.nodes = w.nodes;
  std::vector<std::unique_ptr<Pacon>> clients;
  for (std::uint32_t n = 0; n < 4; ++n) {
    clients.push_back(std::make_unique<Pacon>(w.registry, net::NodeId{n}, cfg));
  }

  // Each client runs a mixed stream: mkdir trees, creates, small writes,
  // removes, occasional readdir and rmdir.
  std::set<std::string> expected;  // paths that must exist at the end
  sim::run_task(w.sim, [](Simulation& s, std::vector<std::unique_ptr<Pacon>>& cs,
                          std::set<std::string>& expect) -> Task<> {
    std::vector<Task<>> procs;
    for (std::size_t id = 0; id < cs.size(); ++id) {
      procs.push_back([](Pacon& p, std::size_t me, std::set<std::string>& ex) -> Task<> {
        const std::string mydir = "/app/w" + std::to_string(me);
        (void)co_await p.mkdir(Path::parse(mydir), fs::FileMode::dir_default());
        ex.insert(mydir);
        for (int i = 0; i < 30; ++i) {
          const std::string f = mydir + "/f" + std::to_string(i);
          (void)co_await p.create(Path::parse(f), fs::FileMode::file_default());
          (void)co_await p.write(Path::parse(f), 0, 256 + static_cast<std::uint64_t>(i));
          if (i % 3 == 0) {
            (void)co_await p.remove(Path::parse(f));
          } else {
            ex.insert(f);
          }
        }
        // A transient subdirectory, later removed via barrier commit.
        const std::string tmp = mydir + "/tmp";
        (void)co_await p.mkdir(Path::parse(tmp), fs::FileMode::dir_default());
        (void)co_await p.create(Path::parse(tmp + "/scratch"), fs::FileMode::file_default());
        (void)co_await p.remove(Path::parse(tmp + "/scratch"));
        (void)co_await p.rmdir(Path::parse(tmp));
        auto listing = co_await p.readdir(Path::parse(mydir));
        EXPECT_TRUE(listing.has_value());
        if (listing) { EXPECT_EQ(listing->size(), 20u); }  // 30 - 10 removed
      }(*cs[id], id, expect));
    }
    co_await sim::when_all(s, std::move(procs));
    for (auto& c : cs) co_await c->drain();
  }(w.sim, clients, expected));

  // The DFS backup copy converged to exactly the expected namespace.
  const auto on_dfs = w.dfs_subtree("/app");
  EXPECT_EQ(on_dfs, expected);
}

TEST(Integration, PaconViewMatchesDfsViewAfterDrain) {
  World w;
  w.provision("/app");
  RegionConfig cfg;
  cfg.root = Path::parse("/app");
  cfg.nodes = w.nodes;
  Pacon p(w.registry, net::NodeId{0}, cfg);
  sim::run_task(w.sim, [](World& world, Pacon& pc) -> Task<> {
    for (int i = 0; i < 25; ++i) {
      (void)co_await pc.create(Path::parse("/app/f" + std::to_string(i)),
                               fs::FileMode::file_default());
      (void)co_await pc.write(Path::parse("/app/f" + std::to_string(i)), 0,
                              static_cast<std::uint64_t>(100 * (i + 1)));
    }
    co_await pc.drain();
    dfs::DfsClient probe(world.sim, world.dfs, net::NodeId{90'001});
    for (int i = 0; i < 25; ++i) {
      auto mine = co_await pc.getattr(Path::parse("/app/f" + std::to_string(i)));
      auto theirs = co_await probe.getattr(Path::parse("/app/f" + std::to_string(i)));
      EXPECT_TRUE(mine.has_value());
      EXPECT_TRUE(theirs.has_value());
      if (mine && theirs) { EXPECT_EQ(mine->size, theirs->size) << i; }
    }
  }(w, p));
}

TEST(Integration, TwoApplicationsIsolatedThenShared) {
  World w;
  w.provision("/a");
  w.provision("/b");
  RegionConfig ca;
  ca.root = Path::parse("/a");
  ca.nodes = {w.nodes[0], w.nodes[1]};
  ca.creds = {1001, 1001};
  RegionConfig cb;
  cb.root = Path::parse("/b");
  cb.nodes = {w.nodes[2], w.nodes[3]};
  cb.creds = {1002, 1002};
  Pacon appa(w.registry, net::NodeId{0}, ca);
  Pacon appb(w.registry, net::NodeId{2}, cb);

  sim::run_task(w.sim, [](Simulation& s, Pacon& a, Pacon& b) -> Task<> {
    // Isolated phase: both hammer their own workspaces concurrently.
    std::vector<Task<>> phase;
    phase.push_back([](Pacon& p) -> Task<> {
      for (int i = 0; i < 50; ++i) {
        (void)co_await p.create(Path::parse("/a/f" + std::to_string(i)),
                                fs::FileMode::file_default());
      }
    }(a));
    phase.push_back([](Pacon& p) -> Task<> {
      for (int i = 0; i < 50; ++i) {
        (void)co_await p.create(Path::parse("/b/f" + std::to_string(i)),
                                fs::FileMode::file_default());
      }
    }(b));
    co_await sim::when_all(s, std::move(phase));

    // Shared phase: B merges A's region and checks its uncommitted state.
    EXPECT_TRUE((co_await b.merge_region(Path::parse("/a"))).has_value());
    int seen = 0;
    for (int i = 0; i < 50; ++i) {
      if (co_await b.getattr(Path::parse("/a/f" + std::to_string(i)))) ++seen;
    }
    EXPECT_EQ(seen, 50);
    // Cross-region access without a merge goes through the DFS and only
    // observes committed state.
    co_await a.drain();
    auto via_dfs = co_await a.getattr(Path::parse("/b/f0"));
    (void)via_dfs;  // may or may not be committed yet; must not crash
  }(w.sim, appa, appb));
}

TEST(Integration, RegionsOverBusyDfsStillConverge) {
  // Pacon traffic and direct DFS traffic interleave on the same backend.
  World w;
  w.provision("/app");
  w.provision("/raw");
  RegionConfig cfg;
  cfg.root = Path::parse("/app");
  cfg.nodes = w.nodes;
  Pacon p(w.registry, net::NodeId{0}, cfg);
  dfs::DfsClient raw(w.sim, w.dfs, net::NodeId{5});
  sim::run_task(w.sim, [](Simulation& s, Pacon& pc, dfs::DfsClient& io) -> Task<> {
    std::vector<Task<>> procs;
    procs.push_back([](Pacon& px) -> Task<> {
      for (int i = 0; i < 60; ++i) {
        (void)co_await px.create(Path::parse("/app/p" + std::to_string(i)),
                                 fs::FileMode::file_default());
      }
      co_await px.drain();
    }(pc));
    procs.push_back([](dfs::DfsClient& dio) -> Task<> {
      for (int i = 0; i < 60; ++i) {
        (void)co_await dio.create(Path::parse("/raw/r" + std::to_string(i)),
                                  fs::FileMode::file_default());
      }
    }(io));
    co_await sim::when_all(s, std::move(procs));
  }(w.sim, p, raw));
  EXPECT_EQ(w.dfs_subtree("/app").size(), 60u);
  EXPECT_EQ(w.dfs_subtree("/raw").size(), 60u);
}

}  // namespace
}  // namespace pacon
