// Failure-injection suite for the IndexFS baseline.
//
// Same asymmetric fault scenarios and seeds as the DFS and Pacon suites
// (failure_suite_common.h), deployed against the GIGA+ server group: servers
// live on nodes 0..3, clients on nodes 4 and 5, so a targeted link fault
// severs one client from one metadata partition server while every other
// (client, server) pair stays healthy. The IndexFS client, like the DFS one,
// surfaces lost RPCs to the application, so scenarios drive it through the
// app-level `eventually` loop.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "failure_suite_common.h"
#include "indexfs/client.h"
#include "indexfs/indexfs.h"
#include "sim/combinators.h"
#include "sim/fault.h"
#include "sim/simulation.h"

namespace pacon::indexfs {
namespace {

using fs::FsError;
using fs::Path;
using sim::Simulation;
using sim::Task;
using namespace sim::literals;

constexpr std::uint32_t kServers = 4;
constexpr std::uint32_t kClientA = 4;
constexpr std::uint32_t kClientB = 5;

struct Fixture {
  explicit Fixture(std::uint64_t seed)
      : sim(seed),
        fabric(sim, net::FabricConfig{}),
        cluster(sim, fabric, IndexFsConfig{}),
        faults(sim.rng().fork("link-faults")) {
    for (std::uint32_t i = 0; i < kServers; ++i) {
      cluster.add_server(net::NodeId{i});
    }
    faults.bind_metrics(sim.metrics().scoped("fault"));
    fabric.set_fault_matrix(&faults);
  }

  Simulation sim;
  net::Fabric fabric;
  IndexFsCluster cluster;
  sim::LinkFaultMatrix faults;
};

/// Creates `count` files named `<tag><i>` under `dir` from `c`, retrying each
/// through the app-level loop; returns how many landed.
Task<int> create_all(Simulation& sim, IndexFsClient& c, const std::string& dir,
                     const std::string& tag, int count) {
  int landed = 0;
  for (int i = 0; i < count; ++i) {
    const Path p = Path::parse(dir + "/" + tag + std::to_string(i));
    const bool ok = co_await ftest::eventually(
        sim, [&c, &p] { return c.create(p, fs::FileMode::file_default()); });
    if (ok) ++landed;
  }
  co_return landed;
}

/// Re-resolves every file from scratch (cold cache) and counts hits.
Task<int> verify_all(IndexFsClient& c, const std::string& dir, int count) {
  c.invalidate_cache();
  int seen = 0;
  for (int i = 0; i < count; ++i) {
    auto got = co_await c.getattr(Path::parse(dir + "/f" + std::to_string(i)));
    if (got.has_value()) ++seen;
  }
  co_return seen;
}

/// Witness ops paced across the whole fault window; counts failures.
Task<> witness_loop(Simulation& sim, IndexFsClient& b, int n, int& failures) {
  for (int i = 0; i < n; ++i) {
    auto r = co_await b.create(Path::parse("/w/b" + std::to_string(i)),
                               fs::FileMode::file_default());
    if (!r.has_value()) ++failures;
    co_await sim.delay(250_us);
  }
}

/// Victim creates paced so they straddle the fault window; each one retries
/// until it lands.
Task<> victim_loop(Simulation& sim, IndexFsClient& a, int n, int& landed) {
  for (int i = 0; i < n; ++i) {
    const Path p = Path::parse("/w/f" + std::to_string(i));
    const bool ok = co_await ftest::eventually(
        sim, [&a, &p] { return a.create(p, fs::FileMode::file_default()); });
    if (ok) ++landed;
    co_await sim.delay(500_us);
  }
}

// One client loses a clean channel to the server hosting its working
// directory's partition; its workload still converges, and no fault verdict
// ever lands on another (client, server) pair. GIGA+ placement decides which
// server hosts /w, so the test discovers the target at runtime instead of
// hard-coding a server id.
TEST(IndexFsFailure, LossyLinkToOneServerStaysTargeted) {
  for (const std::uint64_t seed : ftest::kSuiteSeeds) {
    Fixture f(seed);
    IndexFsClient lossy(f.sim, f.cluster, net::NodeId{kClientA});
    IndexFsClient clean(f.sim, f.cluster, net::NodeId{kClientB});
    std::uint32_t target = net::NodeId::kInvalid;
    sim::run_task(f.sim, [](Fixture& fx, IndexFsClient& a, IndexFsClient& b,
                            std::uint32_t& target) -> Task<> {
      // Build the working dirs on a clean fabric, then aim the lossy profile
      // at whichever server hosts /w's partition 0.
      auto wdir = co_await a.mkdir(Path::parse("/w"), fs::FileMode::dir_default());
      EXPECT_TRUE(wdir.has_value());
      auto w2 = co_await b.mkdir(Path::parse("/w2"), fs::FileMode::dir_default());
      EXPECT_TRUE(w2.has_value());
      if (!wdir.has_value()) co_return;
      target = fx.cluster.server_for(wdir->ino, 0).node().value;
      fx.faults.set_link(kClientA, target, ftest::lossy_link_profile());
      fx.faults.set_link(target, kClientA, ftest::lossy_link_profile());

      EXPECT_EQ(co_await create_all(fx.sim, a, "/w", "f", 30), 30)
          << "lossy client must converge";
      EXPECT_EQ(co_await create_all(fx.sim, b, "/w2", "f", 30), 30);
      // After the dust settles both clients agree on the lossy client's
      // files (cold re-resolution, no cached leases).
      EXPECT_EQ(co_await verify_all(b, "/w", 30), 30);
    }(f, lossy, clean, target));

    // Faults landed only on the targeted (client A <-> target server) pair.
    ASSERT_NE(target, net::NodeId::kInvalid) << "seed " << seed;
    std::uint64_t targeted = 0;
    if (const auto* l = f.faults.lane_model(kClientA, target)) targeted += l->drops() + l->delays();
    if (const auto* l = f.faults.lane_model(target, kClientA)) targeted += l->drops() + l->delays();
    EXPECT_GT(targeted, 0u) << "seed " << seed << ": workload never hit the lossy link";
    for (std::uint32_t s = 0; s < kServers; ++s) {
      for (const std::uint32_t client : {kClientA, kClientB}) {
        if (client == kClientA && s == target) continue;
        for (const auto* lane : {f.faults.lane_model(client, s), f.faults.lane_model(s, client)}) {
          if (lane == nullptr) continue;  // pair never exchanged a message
          EXPECT_EQ(lane->drops(), 0u) << "seed " << seed << " lane " << client << "<->" << s;
          EXPECT_EQ(lane->delays(), 0u);
        }
      }
    }
  }
}

// A client partitioned from the entire server group mid-run, then healed:
// its ops stall during the outage and land afterwards, the witness client is
// untouched throughout, and the namespace is complete at the end.
TEST(IndexFsFailure, ClientPartitionFromServerGroupHeals) {
  for (const std::uint64_t seed : ftest::kSuiteSeeds) {
    Fixture f(seed);
    sim::FaultPlan plan;
    plan.partition(2_ms, {kClientA}, {0, 1, 2, 3});
    plan.heal_partition(9_ms, {kClientA}, {0, 1, 2, 3});
    plan.arm(
        f.sim,
        [&f](std::uint32_t node, bool down) { f.fabric.set_node_down(net::NodeId{node}, down); },
        [&f](std::uint32_t s, std::uint32_t d, bool down) { f.faults.set_link_down(s, d, down); });

    IndexFsClient victim(f.sim, f.cluster, net::NodeId{kClientA});
    IndexFsClient witness(f.sim, f.cluster, net::NodeId{kClientB});
    sim::run_task(f.sim, [](Fixture& fx, IndexFsClient& a, IndexFsClient& b) -> Task<> {
      const Path w = Path::parse("/w");
      EXPECT_TRUE(co_await ftest::eventually(
          fx.sim, [&a, &w] { return a.mkdir(w, fs::FileMode::dir_default()); }));
      // Concurrent loops: the victim's paced creates straddle the 2ms..9ms
      // outage while the witness runs clean ops across the same window.
      int witness_failures = 0;
      int victim_landed = 0;
      std::vector<Task<>> both;
      both.push_back(witness_loop(fx.sim, b, 40, witness_failures));
      both.push_back(victim_loop(fx.sim, a, 20, victim_landed));
      co_await sim::when_all(fx.sim, std::move(both));
      EXPECT_EQ(witness_failures, 0) << "partition must not leak onto the witness";
      EXPECT_EQ(victim_landed, 20);
      EXPECT_EQ(co_await verify_all(a, "/w", 20), 20);
    }(f, victim, witness));

    EXPECT_GT(f.faults.partition_drops(), 0u)
        << "seed " << seed << ": the victim never hit the partition window";
    EXPECT_TRUE(f.faults.link_up(kClientA, 0)) << "heal must restore the links";
  }
}

// A flapping client<->server link: dark windows eat messages, retries in
// bright windows land the whole workload.
TEST(IndexFsFailure, FlappingServerLinkEventuallyLandsEverything) {
  for (const std::uint64_t seed : ftest::kSuiteSeeds) {
    Fixture f(seed);
    sim::FaultPlan plan;
    for (std::uint32_t s = 0; s < kServers; ++s) {
      ftest::flap_link(plan, kClientA, s, 1_ms, 2_ms, 1_ms, 5);
      ftest::flap_link(plan, s, kClientA, 1_ms, 2_ms, 1_ms, 5);
    }
    plan.arm(
        f.sim, [](std::uint32_t, bool) {},
        [&f](std::uint32_t s, std::uint32_t d, bool down) { f.faults.set_link_down(s, d, down); });

    IndexFsClient flappy(f.sim, f.cluster, net::NodeId{kClientA});
    sim::run_task(f.sim, [](Fixture& fx, IndexFsClient& a) -> Task<> {
      const Path w = Path::parse("/w");
      EXPECT_TRUE(co_await ftest::eventually(
          fx.sim, [&a, &w] { return a.mkdir(w, fs::FileMode::dir_default()); }));
      EXPECT_EQ(co_await create_all(fx.sim, a, "/w", "f", 25), 25);
      EXPECT_EQ(co_await verify_all(a, "/w", 25), 25);
    }(f, flappy));

    EXPECT_GT(f.faults.partition_drops(), 0u)
        << "seed " << seed << ": no message ever hit a dark window";
  }
}

// A downed index server is an error status, not an exception: a create and
// a stat routed to it both return FsError::io, and the same client works
// again once the server is back.
TEST(IndexFsFailure, DownedServerReturnsIoStatus) {
  Fixture f(ftest::kSuiteSeeds[0]);
  PartitionMap& root = f.cluster.map_of(fs::kRootIno);
  const net::NodeId owner =
      f.cluster.server_for(fs::kRootIno, root.partition_of(IndexFsCluster::name_hash("f")))
          .node();
  IndexFsClient client(f.sim, f.cluster, net::NodeId{kClientA});
  sim::run_task(f.sim, [](Fixture& fx, IndexFsClient& c, net::NodeId down) -> Task<> {
    const Path file = Path::parse("/f");
    fx.fabric.set_node_down(down, true);
    const auto created = co_await c.create(file, fs::FileMode::file_default());
    EXPECT_FALSE(created.has_value());
    if (!created) {
      EXPECT_EQ(created.error(), FsError::io);
    }
    const auto attr = co_await c.getattr(file);
    EXPECT_FALSE(attr.has_value());
    if (!attr) {
      EXPECT_EQ(attr.error(), FsError::io);
    }
    fx.fabric.set_node_down(down, false);
    EXPECT_TRUE((co_await c.create(file, fs::FileMode::file_default())).has_value());
    EXPECT_TRUE((co_await c.getattr(file)).has_value());
  }(f, client, owner));
}

}  // namespace
}  // namespace pacon::indexfs
