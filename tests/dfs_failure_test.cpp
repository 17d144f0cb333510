// Failure-injection suite for the BeeGFS-style DFS baseline.
//
// Runs the shared asymmetric fault scenarios (failure_suite_common.h) --
// lossy link to the MDS, single-node partition, flapping link -- on the same
// seeds as the Pacon and IndexFS suites. The DFS client has no transparent
// retry layer (faithful to the baseline: a lost RPC surfaces as an error to
// the application), so these scenarios drive it through the app-level
// `eventually` loop and assert that (a) targeted faults never leak onto
// other nodes' links and (b) the namespace converges once the fault clears.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "dfs/client.h"
#include "dfs/cluster.h"
#include "sim/fault.h"
#include "sim/combinators.h"
#include "sim/simulation.h"
#include "failure_suite_common.h"

namespace pacon::dfs {
namespace {

using fs::FsError;
using fs::Path;
using sim::Simulation;
using sim::Task;
using namespace sim::literals;

constexpr std::uint32_t kMds = 100'000;

struct Fixture {
  explicit Fixture(std::uint64_t seed)
      : sim(seed),
        fabric(sim, net::FabricConfig{}),
        cluster(sim, fabric, DfsClusterConfig{}),
        faults(sim.rng().fork("link-faults")) {
    faults.bind_metrics(sim.metrics().scoped("fault"));
    fabric.set_fault_matrix(&faults);
  }

  DfsClient client(std::uint32_t node) { return DfsClient(sim, cluster, net::NodeId{node}); }

  Simulation sim;
  net::Fabric fabric;
  DfsCluster cluster;
  sim::LinkFaultMatrix faults;
};

/// Creates `count` files named `<tag><i>` under `dir` from `c`, retrying each
/// through the app-level loop; returns how many landed.
Task<int> create_all(Simulation& sim, DfsClient& c, const std::string& dir,
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

/// Witness ops paced across the whole fault window; counts failures.
Task<> witness_loop(Simulation& sim, DfsClient& b, int n, int& failures) {
  for (int i = 0; i < n; ++i) {
    auto r = co_await b.create(Path::parse("/w/b" + std::to_string(i)),
                               fs::FileMode::file_default());
    if (!r.has_value()) ++failures;
    co_await sim.delay(250_us);
  }
}

/// Victim creates paced so they straddle the fault window; each one retries
/// until it lands.
Task<> victim_loop(Simulation& sim, DfsClient& a, int n, int& landed) {
  for (int i = 0; i < n; ++i) {
    const Path p = Path::parse("/w/f" + std::to_string(i));
    const bool ok = co_await ftest::eventually(
        sim, [&a, &p] { return a.create(p, fs::FileMode::file_default()); });
    if (ok) ++landed;
    co_await sim.delay(500_us);
  }
}

// A lossy link between one client and the MDS: that client grinds but
// converges; a second client's links never see a single fault verdict.
TEST(DfsFailure, LossyLinkToMdsConvergesAndStaysTargeted) {
  for (const std::uint64_t seed : ftest::kSuiteSeeds) {
    Fixture f(seed);
    f.faults.set_link(1, kMds, ftest::lossy_link_profile());
    f.faults.set_link(kMds, 1, ftest::lossy_link_profile());

    DfsClient lossy = f.client(1);
    DfsClient clean = f.client(2);
    sim::run_task(f.sim, [](Fixture& fx, DfsClient& a, DfsClient& b) -> Task<> {
      const Path w = Path::parse("/w");
      EXPECT_TRUE(co_await ftest::eventually(
          fx.sim, [&a, &w] { return a.mkdir(w, fs::FileMode::dir_default()); }));
      EXPECT_EQ(co_await create_all(fx.sim, a, "/w", "a", 30), 30) << "lossy client must converge";
      EXPECT_EQ(co_await create_all(fx.sim, b, "/w", "b", 30), 30);
    }(f, lossy, clean));

    // The targeted lanes took real damage...
    const sim::MessageFaultModel* hit = f.faults.lane_model(1, kMds);
    ASSERT_NE(hit, nullptr) << "seed " << seed;
    EXPECT_GT(hit->drops() + f.faults.lane_model(kMds, 1)->drops(), 0u) << "seed " << seed;
    // ...and the clean client's lanes none at all.
    for (const auto* lane : {f.faults.lane_model(2, kMds), f.faults.lane_model(kMds, 2)}) {
      ASSERT_NE(lane, nullptr) << "seed " << seed;
      EXPECT_EQ(lane->drops(), 0u) << "seed " << seed;
      EXPECT_EQ(lane->delays(), 0u) << "seed " << seed;
    }
    // Convergence check: every file visible from the clean client.
    sim::run_task(f.sim, [](DfsClient& b) -> Task<> {
      auto listed = co_await b.readdir(Path::parse("/w"));
      EXPECT_TRUE(listed.has_value());
      if (listed) {
        EXPECT_EQ(listed->size(), 60u);
      }
    }(clean));
  }
}

// One client partitioned away from the whole cluster mid-run, then healed:
// its operations stall during the outage and land afterwards, while an
// unpartitioned client is untouched throughout.
TEST(DfsFailure, SingleNodePartitionHealsCleanly) {
  for (const std::uint64_t seed : ftest::kSuiteSeeds) {
    Fixture f(seed);
    sim::FaultPlan plan;
    plan.partition(2_ms, {1}, {kMds});
    plan.heal_partition(9_ms, {1}, {kMds});
    plan.arm(
        f.sim, [&f](std::uint32_t node, bool down) { f.fabric.set_node_down(net::NodeId{node}, down); },
        [&f](std::uint32_t s, std::uint32_t d, bool down) { f.faults.set_link_down(s, d, down); });

    DfsClient victim = f.client(1);
    DfsClient witness = f.client(2);
    sim::run_task(f.sim, [](Fixture& fx, DfsClient& a, DfsClient& b) -> Task<> {
      const Path w = Path::parse("/w");
      EXPECT_TRUE(co_await ftest::eventually(
          fx.sim, [&a, &w] { return a.mkdir(w, fs::FileMode::dir_default()); }));
      // Witness and victim run concurrently so the victim's creates straddle
      // the 2ms..9ms outage while the witness's clean ops span the same
      // window: the witness may not see a single failure, the victim's ops
      // stall during the outage and land afterwards.
      int witness_failures = 0;
      int victim_landed = 0;
      std::vector<Task<>> both;
      both.push_back(witness_loop(fx.sim, b, 40, witness_failures));
      both.push_back(victim_loop(fx.sim, a, 20, victim_landed));
      co_await sim::when_all(fx.sim, std::move(both));
      EXPECT_EQ(witness_failures, 0);
      EXPECT_EQ(victim_landed, 20);
    }(f, victim, witness));

    EXPECT_GT(f.faults.partition_drops(), 0u)
        << "seed " << seed << ": the victim never hit the partition window";
    EXPECT_TRUE(f.faults.link_up(1, kMds)) << "heal must restore the link";
  }
}

// A flapping client<->MDS link: every dark window eats messages, every
// bright window lets retries through; the full workload lands.
TEST(DfsFailure, FlappingLinkEventuallyLandsEverything) {
  for (const std::uint64_t seed : ftest::kSuiteSeeds) {
    Fixture f(seed);
    sim::FaultPlan plan;
    ftest::flap_link(plan, 1, kMds, 1_ms, 2_ms, 1_ms, 5);
    ftest::flap_link(plan, kMds, 1, 1_ms, 2_ms, 1_ms, 5);
    plan.arm(
        f.sim, [](std::uint32_t, bool) {},
        [&f](std::uint32_t s, std::uint32_t d, bool down) { f.faults.set_link_down(s, d, down); });

    DfsClient flappy = f.client(1);
    sim::run_task(f.sim, [](Fixture& fx, DfsClient& a) -> Task<> {
      const Path w = Path::parse("/w");
      EXPECT_TRUE(co_await ftest::eventually(
          fx.sim, [&a, &w] { return a.mkdir(w, fs::FileMode::dir_default()); }));
      EXPECT_EQ(co_await create_all(fx.sim, a, "/w", "f", 25), 25);
    }(f, flappy));

    EXPECT_GT(f.faults.partition_drops(), 0u)
        << "seed " << seed << ": no message ever hit a dark window";
    sim::run_task(f.sim, [](DfsClient& a) -> Task<> {
      auto listed = co_await a.readdir(Path::parse("/w"));
      EXPECT_TRUE(listed.has_value());
      if (listed) {
        EXPECT_EQ(listed->size(), 25u);
      }
    }(flappy));
  }
}

// A downed MDS is an error status, not an exception: a create and a stat
// that need it both return FsError::io, and the same client works again
// once the MDS is back.
TEST(DfsFailure, DownedMdsReturnsIoStatus) {
  Fixture f(ftest::kSuiteSeeds[0]);
  DfsClient c = f.client(1);
  sim::run_task(f.sim, [](Fixture& fx, DfsClient& a) -> Task<> {
    const Path file = Path::parse("/f");
    const Path other = Path::parse("/g");
    EXPECT_TRUE((co_await a.create(file, fs::FileMode::file_default())).has_value());
    fx.fabric.set_node_down(net::NodeId{kMds}, true);
    const auto created = co_await a.create(other, fs::FileMode::file_default());
    EXPECT_FALSE(created.has_value());
    if (!created) {
      EXPECT_EQ(created.error(), FsError::io);
    }
    const auto attr = co_await a.getattr(file);
    EXPECT_FALSE(attr.has_value());
    if (!attr) {
      EXPECT_EQ(attr.error(), FsError::io);
    }
    fx.fabric.set_node_down(net::NodeId{kMds}, false);
    EXPECT_TRUE((co_await a.getattr(file)).has_value());
  }(f, c));
}

}  // namespace
}  // namespace pacon::dfs
