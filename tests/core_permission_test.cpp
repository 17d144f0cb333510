// Tests for batch permission management: the permission table, Pacon's use
// of it, special entries, and the hierarchical-check ablation path.
#include <gtest/gtest.h>

#include <memory>

#include "core/pacon.h"
#include "core/permission.h"
#include "sim/simulation.h"

namespace pacon::core {
namespace {

using fs::FsError;
using fs::Path;
using sim::Simulation;
using sim::Task;

TEST(PermissionTable, NormalSpecGovernsUnlistedPaths) {
  PermissionTable table(PermissionSpec{fs::FileMode{0x7, 0x5, 0x0}, 100, 200});
  EXPECT_TRUE(table.check(Path::parse("/app/any/file"), fs::Credentials{100, 1}, fs::Access::write));
  EXPECT_TRUE(table.check(Path::parse("/app/x"), fs::Credentials{1, 200}, fs::Access::read));
  EXPECT_FALSE(table.check(Path::parse("/app/x"), fs::Credentials{1, 200}, fs::Access::write));
  EXPECT_FALSE(table.check(Path::parse("/app/x"), fs::Credentials{1, 1}, fs::Access::read));
}

TEST(PermissionTable, SpecialEntryOverridesExactPath) {
  PermissionTable table(PermissionSpec{fs::FileMode{0x7, 0x7, 0x7}, 100, 100});
  table.add_special(Path::parse("/app/secret"), PermissionSpec{fs::FileMode{0x7, 0x0, 0x0}, 100, 100});
  EXPECT_TRUE(table.check(Path::parse("/app/open"), fs::Credentials{999, 999}, fs::Access::read));
  EXPECT_FALSE(table.check(Path::parse("/app/secret"), fs::Credentials{999, 999}, fs::Access::read));
  EXPECT_TRUE(table.check(Path::parse("/app/secret"), fs::Credentials{100, 100}, fs::Access::read));
}

TEST(PermissionTable, SpecialEntryCoversSubtree) {
  PermissionTable table(PermissionSpec{fs::FileMode{0x7, 0x7, 0x7}, 100, 100});
  table.add_special(Path::parse("/app/secret"), PermissionSpec{fs::FileMode{0x7, 0x0, 0x0}, 100, 100});
  EXPECT_FALSE(
      table.check(Path::parse("/app/secret/deep/file"), fs::Credentials{999, 999}, fs::Access::read));
}

TEST(PermissionTable, DeeperSpecialWinsOverShallower) {
  PermissionTable table(PermissionSpec{fs::FileMode{0x7, 0x7, 0x7}, 100, 100});
  table.add_special(Path::parse("/app/a"), PermissionSpec{fs::FileMode{0x7, 0x0, 0x0}, 100, 100});
  table.add_special(Path::parse("/app/a/public"),
                    PermissionSpec{fs::FileMode{0x7, 0x7, 0x7}, 100, 100});
  EXPECT_FALSE(table.check(Path::parse("/app/a/x"), fs::Credentials{999, 999}, fs::Access::read));
  EXPECT_TRUE(
      table.check(Path::parse("/app/a/public/x"), fs::Credentials{999, 999}, fs::Access::read));
}

TEST(PermissionTable, RemoveSpecialRestoresNormal) {
  PermissionTable table(PermissionSpec{fs::FileMode{0x7, 0x7, 0x7}, 100, 100});
  table.add_special(Path::parse("/app/tmp"), PermissionSpec{fs::FileMode{0x0, 0x0, 0x0}, 100, 100});
  EXPECT_FALSE(table.check(Path::parse("/app/tmp"), fs::Credentials{100, 100}, fs::Access::read));
  table.remove_special(Path::parse("/app/tmp"));
  EXPECT_TRUE(table.check(Path::parse("/app/tmp"), fs::Credentials{100, 100}, fs::Access::read));
  EXPECT_EQ(table.special_count(), 0u);
}

struct World {
  World()
      : fabric(sim, net::FabricConfig{}),
        dfs(sim, fabric),
        registry(sim, fabric, dfs) {
    dfs::DfsClient admin(sim, dfs, net::NodeId{90'000});
    sim::run_task(sim, [](dfs::DfsClient& io) -> Task<> {
      (void)co_await io.mkdir(Path::parse("/app"), fs::FileMode{0x7, 0x7, 0x7});
    }(admin));
  }
  Simulation sim;
  net::Fabric fabric;
  dfs::DfsCluster dfs;
  RegionRegistry registry;
};

TEST(PaconPermission, WorkspaceOpsPassForTheApplicationUser) {
  World w;
  RegionConfig cfg;
  cfg.root = Path::parse("/app");
  cfg.nodes = {net::NodeId{0}};
  cfg.creds = {500, 500};
  Pacon p(w.registry, net::NodeId{0}, cfg);
  sim::run_task(w.sim, [](Pacon& pc) -> Task<> {
    EXPECT_TRUE((co_await pc.mkdir(Path::parse("/app/d"), fs::FileMode::dir_default())).has_value());
    EXPECT_TRUE(
        (co_await pc.create(Path::parse("/app/d/f"), fs::FileMode::file_default())).has_value());
    EXPECT_TRUE((co_await pc.getattr(Path::parse("/app/d/f"))).has_value());
  }(p));
}

TEST(PaconPermission, SpecialReadOnlySubtreeRejectsWrites) {
  World w;
  RegionConfig cfg;
  cfg.root = Path::parse("/app");
  cfg.nodes = {net::NodeId{0}};
  cfg.creds = {500, 500};
  Pacon p(w.registry, net::NodeId{0}, cfg);
  // The application predefines /app/input as read-only for itself.
  p.region().permissions().add_special(
      Path::parse("/app/input"), PermissionSpec{fs::FileMode{0x5, 0x5, 0x5}, 500, 500});
  sim::run_task(w.sim, [](Pacon& pc) -> Task<> {
    auto denied = co_await pc.create(Path::parse("/app/input/new"), fs::FileMode::file_default());
    EXPECT_EQ(denied.error(), FsError::permission);
    // Reads are fine (the entry just is not there).
    auto miss = co_await pc.getattr(Path::parse("/app/input/old"));
    EXPECT_EQ(miss.error(), FsError::not_found);
  }(p));
}

TEST(PaconPermission, BatchCheckAvoidsCacheTraffic) {
  // With batch permissions a getattr is exactly one cache lookup; with the
  // hierarchical ablation the same op also probes every ancestor.
  auto cache_gets_for = [](bool batch) {
    World w;
    RegionConfig cfg;
    cfg.root = Path::parse("/app");
    cfg.nodes = {net::NodeId{0}};
    cfg.batch_permission = batch;
    Pacon p(w.registry, net::NodeId{0}, cfg);
    sim::run_task(w.sim, [](Pacon& pc) -> Task<> {
      (void)co_await pc.mkdir(Path::parse("/app/a"), fs::FileMode::dir_default());
      (void)co_await pc.mkdir(Path::parse("/app/a/b"), fs::FileMode::dir_default());
      (void)co_await pc.mkdir(Path::parse("/app/a/b/c"), fs::FileMode::dir_default());
      for (int i = 0; i < 50; ++i) {
        (void)co_await pc.getattr(Path::parse("/app/a/b/c"));
      }
    }(p));
    return w.sim.now();
  };
  // Hierarchical checking costs measurably more virtual time per op.
  EXPECT_LT(cache_gets_for(true), cache_gets_for(false));
}

TEST(PaconPermission, HierarchicalAblationStillEnforcesModes) {
  World w;
  RegionConfig cfg;
  cfg.root = Path::parse("/app");
  cfg.nodes = {net::NodeId{0}};
  cfg.creds = {500, 500};
  cfg.batch_permission = false;
  Pacon p(w.registry, net::NodeId{0}, cfg);
  sim::run_task(w.sim, [](Pacon& pc) -> Task<> {
    // A directory the app makes unreadable to itself.
    EXPECT_TRUE((co_await pc.mkdir(Path::parse("/app/locked"), fs::FileMode{0x2, 0x0, 0x0}))
                    .has_value());
    auto denied = co_await pc.getattr(Path::parse("/app/locked/x"));
    EXPECT_EQ(denied.error(), FsError::permission);
  }(p));
}

}  // namespace
}  // namespace pacon::core
