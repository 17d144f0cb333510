// Failure-injection tests: node crashes at awkward moments, RPC failures on
// the commit path, cache-node failover and flap, commit-process crashes with
// WAL redelivery, barrier-epoch aborts, and recovery through checkpoints.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/pacon.h"
#include "failure_suite_common.h"
#include "sim/combinators.h"
#include "sim/fault.h"
#include "sim/simulation.h"

namespace pacon::core {
namespace {

using fs::FsError;
using fs::Path;
using sim::Simulation;
using sim::Task;

struct World {
  explicit World(std::size_t client_nodes = 3, std::uint64_t seed = 1)
      : sim(seed),
        fabric(sim, net::FabricConfig{}),
        dfs(sim, fabric),
        registry(sim, fabric, dfs) {
    for (std::size_t i = 0; i < client_nodes; ++i) {
      nodes.push_back(net::NodeId{static_cast<std::uint32_t>(i)});
    }
    dfs::DfsClient admin(sim, dfs, net::NodeId{90'000});
    sim::run_task(sim, [](dfs::DfsClient& io) -> Task<> {
      (void)co_await io.mkdir(Path::parse("/app"), fs::FileMode{0x7, 0x7, 0x7});
    }(admin));
  }

  std::unique_ptr<Pacon> make_client(std::uint32_t node) {
    RegionConfig cfg;
    cfg.root = Path::parse("/app");
    cfg.nodes = nodes;
    return std::make_unique<Pacon>(registry, net::NodeId{node}, cfg);
  }

  /// Lazily installs a link-targeted fault topology on the fabric (same
  /// stream name as TestBed::link_faults, so scenarios port both ways).
  sim::LinkFaultMatrix& link_faults() {
    if (!faults) {
      faults = std::make_unique<sim::LinkFaultMatrix>(sim.rng().fork("link-faults"));
      faults->bind_metrics(sim.metrics().scoped("fault"));
      fabric.set_fault_matrix(faults.get());
    }
    return *faults;
  }

  Simulation sim;
  net::Fabric fabric;
  dfs::DfsCluster dfs;
  RegionRegistry registry;
  std::vector<net::NodeId> nodes;
  std::unique_ptr<sim::LinkFaultMatrix> faults;
};

TEST(Failure, DeadCacheNodeFailsOverWithoutClientVisibleErrors) {
  World w;
  auto c = w.make_client(0);
  w.fabric.set_node_down(net::NodeId{1}, true);
  // Cache keys hashing to node 1 hit a dead server: after repeated RPC
  // failures the ring marks it suspect and routes its keyspace to the
  // clockwise successor, so every create still succeeds -- no exception
  // ever reaches the application.
  int created = 0;
  sim::run_task(w.sim, [](Pacon& p, int& ok) -> Task<> {
    for (int i = 0; i < 32; ++i) {
      auto r = co_await p.create(Path::parse("/app/f" + std::to_string(i)),
                                 fs::FileMode::file_default());
      if (r) ++ok;
    }
    co_await p.drain();
  }(*c, created));
  EXPECT_EQ(created, 32);
  EXPECT_GE(c->region().cache().failovers(), 1u);
  EXPECT_TRUE(c->region().cache().ring().is_suspect(net::NodeId{1}));
  EXPECT_EQ(c->region().pending_commits(), 0u);
}

TEST(Failure, DetachedNodeStopsBlockingDrain) {
  World w;
  auto c0 = w.make_client(0);
  auto c1 = w.make_client(1);
  sim::run_task(w.sim, [](World& world, Pacon& a, Pacon& b) -> Task<> {
    // Both clients publish work; node 1 dies before its queue drains.
    for (int i = 0; i < 10; ++i) {
      (void)co_await a.create(Path::parse("/app/a" + std::to_string(i)),
                              fs::FileMode::file_default());
      (void)co_await b.create(Path::parse("/app/b" + std::to_string(i)),
                              fs::FileMode::file_default());
    }
    world.fabric.set_node_down(net::NodeId{1}, true);
    a.region().detach_failed_node(net::NodeId{1});
    // drain() must complete: lost operations are accounted out.
    co_await a.drain();
    EXPECT_EQ(a.region().pending_commits(), 0u);
  }(w, *c0, *c1));
}

TEST(Failure, SurvivorsContinueAfterDetach) {
  World w;
  auto c0 = w.make_client(0);
  auto c2 = w.make_client(2);
  sim::run_task(w.sim, [](World& world, Pacon& a, Pacon& b) -> Task<> {
    (void)co_await a.create(Path::parse("/app/before"), fs::FileMode::file_default());
    co_await a.drain();
    world.fabric.set_node_down(net::NodeId{1}, true);
    a.region().detach_failed_node(net::NodeId{1});
    // Keys on the dead cache server remap to survivors when it is detached
    // from the ring: every post-detach create must succeed.
    int created = 0;
    for (int i = 0; i < 16; ++i) {
      auto r = co_await b.create(Path::parse("/app/after" + std::to_string(i)),
                                 fs::FileMode::file_default());
      if (r) ++created;
    }
    EXPECT_EQ(created, 16);
    co_await b.drain();
    EXPECT_EQ(a.region().pending_commits(), 0u);
  }(w, *c0, *c2));
}

TEST(Failure, CheckpointRestoreAfterCrashIsComplete) {
  World w;
  auto c0 = w.make_client(0);
  auto c1 = w.make_client(1);
  sim::run_task(w.sim, [](World& world, Pacon& a, Pacon& b) -> Task<> {
    // A deep, mixed workspace at checkpoint time.
    (void)co_await a.mkdir(Path::parse("/app/dirs"), fs::FileMode::dir_default());
    for (int i = 0; i < 20; ++i) {
      (void)co_await a.create(Path::parse("/app/dirs/f" + std::to_string(i)),
                              fs::FileMode::file_default());
    }
    (void)co_await b.create(Path::parse("/app/data"), fs::FileMode::file_default());
    (void)co_await b.write(Path::parse("/app/data"), 0, 2048);
    auto ckpt = co_await a.checkpoint();
    EXPECT_TRUE(ckpt.has_value());
    if (!ckpt) co_return;

    // Post-checkpoint damage, then crash.
    (void)co_await b.remove(Path::parse("/app/dirs/f3"));
    (void)co_await b.create(Path::parse("/app/garbage"), fs::FileMode::file_default());
    world.fabric.set_node_down(net::NodeId{1}, true);
    a.region().detach_failed_node(net::NodeId{1});

    EXPECT_TRUE((co_await a.restore(*ckpt)).has_value());
    // The checkpointed state is back in full.
    for (int i = 0; i < 20; ++i) {
      auto got = co_await a.getattr(Path::parse("/app/dirs/f" + std::to_string(i)));
      EXPECT_TRUE(got.has_value()) << i;
    }
    auto data = co_await a.getattr(Path::parse("/app/data"));
    EXPECT_TRUE(data.has_value());
    if (data) { EXPECT_EQ(data->size, 2048u); }
    EXPECT_EQ((co_await a.getattr(Path::parse("/app/garbage"))).error(), FsError::not_found);
  }(w, *c0, *c1));
}

TEST(Failure, CommitRetriesSurviveTransientMdsOutage) {
  World w;
  auto c = w.make_client(0);
  sim::run_task(w.sim, [](World& world, Pacon& p) -> Task<> {
    (void)co_await p.create(Path::parse("/app/f"), fs::FileMode::file_default());
    // MDS node goes dark before the commit lands, then returns.
    world.fabric.set_node_down(world.dfs.config().mds_node, true);
    co_await world.sim.delay(5_ms);
    world.fabric.set_node_down(world.dfs.config().mds_node, false);
    co_await p.drain();
    // The op was eventually applied despite the outage.
    dfs::DfsClient probe(world.sim, world.dfs, net::NodeId{90'001});
    EXPECT_TRUE((co_await probe.getattr(Path::parse("/app/f"))).has_value());
  }(w, *c));
  EXPECT_GT(c->region().commit_retries(), 0u);
}

TEST(Failure, MultipleCheckpointsSelectable) {
  World w;
  auto c = w.make_client(0);
  sim::run_task(w.sim, [](Pacon& p) -> Task<> {
    (void)co_await p.create(Path::parse("/app/v1"), fs::FileMode::file_default());
    auto ckpt1 = co_await p.checkpoint();
    (void)co_await p.create(Path::parse("/app/v2"), fs::FileMode::file_default());
    auto ckpt2 = co_await p.checkpoint();
    (void)co_await p.create(Path::parse("/app/v3"), fs::FileMode::file_default());
    co_await p.drain();

    // Roll back to the middle state.
    EXPECT_TRUE((co_await p.restore(*ckpt2)).has_value());
    EXPECT_TRUE((co_await p.getattr(Path::parse("/app/v1"))).has_value());
    EXPECT_TRUE((co_await p.getattr(Path::parse("/app/v2"))).has_value());
    EXPECT_FALSE((co_await p.getattr(Path::parse("/app/v3"))).has_value());
    // And further back.
    EXPECT_TRUE((co_await p.restore(*ckpt1)).has_value());
    EXPECT_TRUE((co_await p.getattr(Path::parse("/app/v1"))).has_value());
    EXPECT_FALSE((co_await p.getattr(Path::parse("/app/v2"))).has_value());
    // Restoring an unknown checkpoint fails cleanly.
    EXPECT_EQ((co_await p.restore(999)).error(), FsError::not_found);
  }(*c));
}

// A commit-process crash while a barrier epoch is in flight aborts the
// barrier; the dependent op (rmdir) completes the poisoned epoch, replays
// the barrier, and eventually succeeds once the MDS returns and the commit
// process restarts with its WAL backlog redelivered.
TEST(Failure, BarrierAbortMidRmdirReplaysCleanly) {
  World w;
  auto c = w.make_client(0);
  bool rmdir_ok = false;
  sim::run_task(w.sim, [](World& world, Pacon& p, bool& ok) -> Task<> {
    (void)co_await p.mkdir(Path::parse("/app/d"), fs::FileMode::dir_default());
    co_await p.drain();
    // MDS goes dark: subsequent commits park in the retry worker, so the
    // upcoming barrier can never be reported by node 0's commit process.
    world.fabric.set_node_down(world.dfs.config().mds_node, true);
    for (int i = 0; i < 4; ++i) {
      auto r = co_await p.create(Path::parse("/app/g" + std::to_string(i)),
                                 fs::FileMode::file_default());
      EXPECT_TRUE(r.has_value());  // client-side create is async-commit
    }
    std::vector<Task<>> tasks;
    tasks.push_back([](Pacon& pac, bool& out) -> Task<> {
      auto r = co_await pac.rmdir(Path::parse("/app/d"));
      out = r.has_value();
    }(p, ok));
    tasks.push_back([](World& wld, Pacon& pac) -> Task<> {
      // Crash the commit process mid-barrier, then bring everything back.
      co_await wld.sim.delay(300_us);
      pac.region().crash_commit_process(net::NodeId{0});
      co_await wld.sim.delay(1'200_us);
      wld.fabric.set_node_down(wld.dfs.config().mds_node, false);
      pac.region().restart_commit_process(net::NodeId{0});
    }(world, p));
    co_await sim::when_all(world.sim, std::move(tasks));
    co_await p.drain();
    EXPECT_EQ(p.region().pending_commits(), 0u);
    // Every parked create reached the DFS exactly once; the directory fell.
    dfs::DfsClient probe(world.sim, world.dfs, net::NodeId{90'001});
    for (int i = 0; i < 4; ++i) {
      EXPECT_TRUE((co_await probe.getattr(Path::parse("/app/g" + std::to_string(i)))).has_value())
          << i;
    }
    auto dgone = co_await probe.getattr(Path::parse("/app/d"));
    EXPECT_FALSE(dgone.has_value());
    if (!dgone) {
      EXPECT_EQ(dgone.error(), FsError::not_found);
    }
  }(w, *c, rmdir_ok));
  EXPECT_TRUE(rmdir_ok);
  EXPECT_EQ(c->region().commit_crashes(), 1u);
  EXPECT_GE(c->region().barrier_aborts(), 1u);
  EXPECT_GE(c->region().redelivered_ops(), 4u);
}

// At-least-once + idempotent replay: a commit-process crash with a full
// backlog loses nothing, and the acked-set dedup means nothing is applied
// to the DFS twice.
TEST(Failure, CommitCrashRedeliversEveryOpExactlyOnce) {
  World w;
  auto c = w.make_client(0);
  sim::run_task(w.sim, [](World& world, Pacon& p) -> Task<> {
    // Warm the parent-dir cache entry while the MDS is reachable (a cold
    // check_parent consults the DFS synchronously), then park every commit
    // (MDS down), so the whole workload is in the WAL and unacknowledged
    // when the commit process dies.
    EXPECT_TRUE((co_await p.create(Path::parse("/app/warm"),
                                   fs::FileMode::file_default())).has_value());
    co_await p.drain();
    world.fabric.set_node_down(world.dfs.config().mds_node, true);
    for (int i = 0; i < 30; ++i) {
      auto r = co_await p.create(Path::parse("/app/r" + std::to_string(i)),
                                 fs::FileMode::file_default());
      EXPECT_TRUE(r.has_value());
    }
    p.region().crash_commit_process(net::NodeId{0});
    EXPECT_FALSE(p.region().commit_process_running(net::NodeId{0}));
    co_await world.sim.delay(500_us);
    world.fabric.set_node_down(world.dfs.config().mds_node, false);
    p.region().restart_commit_process(net::NodeId{0});
    EXPECT_TRUE(p.region().commit_process_running(net::NodeId{0}));
    co_await p.drain();
    EXPECT_EQ(p.region().pending_commits(), 0u);
    // Exactly the 30 created files -- none lost, none doubled.
    dfs::DfsClient probe(world.sim, world.dfs, net::NodeId{90'001});
    auto listing = co_await probe.readdir(Path::parse("/app"));
    EXPECT_TRUE(listing.has_value());
    if (listing) {
      EXPECT_EQ(listing->size(), 31u);  // warm + r0..r29
    }
  }(w, *c));
  EXPECT_EQ(c->region().commit_crashes(), 1u);
  EXPECT_EQ(c->region().redelivered_ops(), 30u);
  EXPECT_EQ(c->region().committed_ops(), 31u);
}

// Ops published while the commit process is down reach the committer twice:
// once from the WAL replay at restart, and once more from the queue the
// sorter kept filling. Here the second copies arrive while an older record
// -- a data write waiting for its file's create, which node 1 cannot commit
// while its link to the MDS is down -- keeps the log from compacting, so
// each finds its record acked: an acked duplicate, never applied again.
TEST(Failure, OpsPublishedWhileCommitProcessIsDownCountAsDuplicates) {
  World w;
  auto c0 = w.make_client(0);
  auto c1 = w.make_client(1);
  sim::run_task(w.sim, [](World& world, Pacon& p0, Pacon& p1) -> Task<> {
    EXPECT_TRUE((co_await p0.create(Path::parse("/app/warm"),
                                    fs::FileMode::file_default())).has_value());
    co_await p0.drain();
    const std::uint32_t mds = world.dfs.config().mds_node.value;
    world.link_faults().set_partition({1}, {mds}, true);
    EXPECT_TRUE((co_await p1.create(Path::parse("/app/w"),
                                    fs::FileMode::file_default())).has_value());
    EXPECT_TRUE((co_await p0.write(Path::parse("/app/w"), 0, 100)).has_value());
    co_await world.sim.delay(300_us);
    p0.region().crash_commit_process(net::NodeId{0});
    for (int i = 0; i < 12; ++i) {
      EXPECT_TRUE((co_await p0.create(Path::parse("/app/b" + std::to_string(i)),
                                      fs::FileMode::file_default())).has_value());
    }
    co_await world.sim.delay(500_us);
    p0.region().restart_commit_process(net::NodeId{0});
    co_await world.sim.delay(5'000_us);
    world.link_faults().set_partition({1}, {mds}, false);
    co_await p0.drain();
    EXPECT_EQ(p0.region().pending_commits(), 0u);
    dfs::DfsClient probe(world.sim, world.dfs, net::NodeId{90'001});
    auto listing = co_await probe.readdir(Path::parse("/app"));
    EXPECT_TRUE(listing.has_value());
    if (listing) {
      EXPECT_EQ(listing->size(), 14u);  // warm + w + b0..b11
    }
  }(w, *c0, *c1));
  EXPECT_EQ(c0->region().commit_crashes(), 1u);
  // The replay carries the data write and b0..b11; the queue's copies of
  // b0..b11 are the duplicates.
  EXPECT_EQ(c0->region().redelivered_ops(), 13u);
  EXPECT_EQ(c0->region().duplicate_deliveries(), 12u);
  // warm, w, its data write and b0..b11, each applied once.
  EXPECT_EQ(c0->region().committed_ops(), 15u);
}

// As above, but nothing holds the log back: the replay acks every record
// and compaction drops them before the queued second copies reach the
// committer. A compacted record is an acked duplicate too, so the DFS sees
// each op once and the commit accounting stays exact however long the
// region keeps running.
TEST(Failure, CompactedRecordsRedeliveredFromTheQueueAreDuplicates) {
  World w;
  auto c = w.make_client(0);
  sim::run_task(w.sim, [](World& world, Pacon& p) -> Task<> {
    EXPECT_TRUE((co_await p.create(Path::parse("/app/warm"),
                                   fs::FileMode::file_default())).has_value());
    co_await p.drain();
    for (int i = 0; i < 8; ++i) {
      EXPECT_TRUE((co_await p.create(Path::parse("/app/a" + std::to_string(i)),
                                     fs::FileMode::file_default())).has_value());
    }
    p.region().crash_commit_process(net::NodeId{0});
    for (int i = 0; i < 12; ++i) {
      EXPECT_TRUE((co_await p.create(Path::parse("/app/b" + std::to_string(i)),
                                     fs::FileMode::file_default())).has_value());
    }
    co_await world.sim.delay(500_us);
    p.region().restart_commit_process(net::NodeId{0});
    co_await p.drain();
    // Let the committer work through everything still queued.
    co_await world.sim.delay(20'000_us);
    EXPECT_EQ(p.region().pending_commits(), 0u);
    dfs::DfsClient probe(world.sim, world.dfs, net::NodeId{90'001});
    auto listing = co_await probe.readdir(Path::parse("/app"));
    EXPECT_TRUE(listing.has_value());
    if (listing) {
      EXPECT_EQ(listing->size(), 21u);  // warm + a0..a7 + b0..b11
    }
  }(w, *c));
  EXPECT_EQ(c->region().commit_crashes(), 1u);
  EXPECT_EQ(c->region().redelivered_ops(), 18u);
  EXPECT_EQ(c->region().duplicate_deliveries(), 13u);
  EXPECT_EQ(c->region().committed_ops(), 21u);
}

// A cache node that flaps (down, then back) must rejoin cold: the entry it
// held from before the outage was superseded on the failover successor and
// must not resurrect.
TEST(Failure, CacheNodeFlapDoesNotResurrectStaleEntries) {
  World w;
  auto c = w.make_client(0);
  // Pick a path whose cache entry lives on node 1.
  std::string victim;
  for (int i = 0; i < 4096 && victim.empty(); ++i) {
    std::string cand = "/app/flap" + std::to_string(i);
    if (c->region().cache().ring().node_for(cand) == net::NodeId{1}) victim = cand;
  }
  ASSERT_FALSE(victim.empty());
  sim::run_task(w.sim, [](World& world, Pacon& p, const std::string& victim) -> Task<> {
    const Path vpath = Path::parse(victim);
    EXPECT_TRUE((co_await p.create(vpath, fs::FileMode::file_default())).has_value());
    co_await p.drain();
    // Node 1 goes dark with the victim's entry in its table. The remove
    // fails over to the ring successor (where the removed-marker lands).
    world.fabric.set_node_down(net::NodeId{1}, true);
    EXPECT_TRUE((co_await p.remove(vpath)).has_value());
    co_await p.drain();
    EXPECT_GE(p.region().cache().failovers(), 1u);
    // Node 1 returns. Rejoin must cold-flush it, or its pre-failover copy
    // of the victim's metadata would serve a file that no longer exists.
    world.fabric.set_node_down(net::NodeId{1}, false);
    p.region().node_recovered(net::NodeId{1});
    EXPECT_FALSE(p.region().cache().ring().is_suspect(net::NodeId{1}));
    auto got = co_await p.getattr(vpath);
    EXPECT_FALSE(got.has_value());
    if (!got) {
      EXPECT_EQ(got.error(), FsError::not_found);
    }
    // A barrier-forcing readdir with the full ring healthy agrees.
    auto listing = co_await p.readdir(Path::parse("/app"));
    EXPECT_TRUE(listing.has_value());
    if (listing) {
      EXPECT_TRUE(listing->empty());
    }
  }(w, *c, victim));
}

// With the whole cache plane fenced (no live server for any key), ops
// degrade to synchronous DFS pass-through instead of failing: slower, but
// correct -- the paper's weak-consistency fallback.
TEST(Failure, FencedCachePlaneDegradesToDfsPassThrough) {
  World w;
  auto c = w.make_client(0);
  sim::run_task(w.sim, [](World& world, Pacon& p) -> Task<> {
    for (std::uint32_t n = 0; n < 3; ++n) p.region().cache().fence_server(net::NodeId{n});
    EXPECT_EQ(p.region().cache().ring().live_node_count(), 0u);
    int created = 0;
    for (int i = 0; i < 8; ++i) {
      auto r = co_await p.create(Path::parse("/app/deg" + std::to_string(i)),
                                 fs::FileMode::file_default());
      if (r) ++created;
    }
    EXPECT_EQ(created, 8);
    EXPECT_GT(p.region().degraded_ops(), 0u);
    // Degraded ops are synchronous: already durable on the DFS, no drain.
    dfs::DfsClient probe(world.sim, world.dfs, net::NodeId{90'001});
    for (int i = 0; i < 8; ++i) {
      EXPECT_TRUE(
          (co_await probe.getattr(Path::parse("/app/deg" + std::to_string(i)))).has_value())
          << i;
    }
    // Unfencing restores cached operation.
    for (std::uint32_t n = 0; n < 3; ++n) p.region().node_recovered(net::NodeId{n});
    EXPECT_EQ(p.region().cache().ring().live_node_count(), 3u);
    EXPECT_TRUE((co_await p.create(Path::parse("/app/back"), fs::FileMode::file_default()))
                    .has_value());
    co_await p.drain();
  }(w, *c));
}

// Retry exhaustion against dead servers surfaces KvStatus::unreachable (the
// cluster client's terminal status for failed calls), and recovery restores
// the original key placement.
TEST(Failure, CacheClusterRetryExhaustionReturnsUnreachable) {
  sim::Simulation sim;
  net::Fabric fabric(sim, net::FabricConfig{});
  kv::MemCacheCluster cluster(sim, fabric, kv::KvConfig{});
  cluster.add_server(net::NodeId{5});
  cluster.add_server(net::NodeId{6});
  fabric.set_node_down(net::NodeId{5}, true);
  fabric.set_node_down(net::NodeId{6}, true);
  const auto resp = sim::run_task(sim, cluster.set(net::NodeId{7}, "k", "v"));
  EXPECT_EQ(resp.status, kv::KvStatus::unreachable);
  EXPECT_GE(cluster.unreachable_requests(), 1u);
  EXPECT_EQ(cluster.ring().live_node_count(), 0u);
  fabric.set_node_down(net::NodeId{5}, false);
  fabric.set_node_down(net::NodeId{6}, false);
  cluster.server_recovered(net::NodeId{5});
  cluster.server_recovered(net::NodeId{6});
  const auto ok = sim::run_task(sim, cluster.set(net::NodeId{7}, "k", "v"));
  EXPECT_EQ(ok.status, kv::KvStatus::ok);
}

// ---- Asymmetric fault topology (shared scenarios, failure_suite_common.h) --
//
// The same lossy-link / partition / flapping-link scenarios the DFS and
// IndexFS suites run, on the same seeds. Pacon differs from the baselines in
// that its cache cluster retries and fails over internally, so a targeted
// link fault must never surface as an application error -- only as failovers
// and commit retries.

// A lossy link between client 0 and cache node 1: every create still
// succeeds (retry + failover absorb the loss), and no fault verdict ever
// lands on another client's links.
TEST(FailureAsym, LossyCacheLinkAbsorbedWithoutAppErrors) {
  for (const std::uint64_t seed : ftest::kSuiteSeeds) {
    World w(3, seed);
    w.link_faults().set_link(0, 1, ftest::lossy_link_profile());
    w.link_faults().set_link(1, 0, ftest::lossy_link_profile());
    auto c = w.make_client(0);
    int created = 0;
    sim::run_task(w.sim, [](Pacon& p, int& ok) -> Task<> {
      for (int i = 0; i < 24; ++i) {
        auto r = co_await p.create(Path::parse("/app/f" + std::to_string(i)),
                                   fs::FileMode::file_default());
        if (r) ++ok;
      }
      co_await p.drain();
    }(*c, created));
    EXPECT_EQ(created, 24) << "seed " << seed;
    EXPECT_EQ(c->region().pending_commits(), 0u);

    // The targeted link took damage; every other inter-client link is clean.
    std::uint64_t targeted = 0;
    if (const auto* l = w.faults->lane_model(0, 1)) targeted += l->drops() + l->delays();
    if (const auto* l = w.faults->lane_model(1, 0)) targeted += l->drops() + l->delays();
    EXPECT_GT(targeted, 0u) << "seed " << seed << ": workload never used the lossy link";
    const std::pair<std::uint32_t, std::uint32_t> other_lanes[] = {
        {0, 2}, {2, 0}, {1, 2}, {2, 1}};
    for (const auto& [s, d] : other_lanes) {
      if (const auto* lane = w.faults->lane_model(s, d)) {
        EXPECT_EQ(lane->drops(), 0u) << "seed " << seed << " lane " << s << "->" << d;
        EXPECT_EQ(lane->delays(), 0u);
      }
    }
    // Everything landed on the DFS.
    sim::run_task(w.sim, [](World& world) -> Task<> {
      dfs::DfsClient probe(world.sim, world.dfs, net::NodeId{90'001});
      auto listing = co_await probe.readdir(Path::parse("/app"));
      EXPECT_TRUE(listing.has_value());
      if (listing) {
        EXPECT_EQ(listing->size(), 24u);
      }
    }(w));
  }
}

// Cache node 1 partitioned from the rest of the cluster mid-run, then
// healed and rejoined: creates keep succeeding throughout (failover), and
// the partition window provably ate messages.
TEST(FailureAsym, SingleNodePartitionDegradesAndRejoins) {
  for (const std::uint64_t seed : ftest::kSuiteSeeds) {
    World w(3, seed);
    sim::LinkFaultMatrix& faults = w.link_faults();
    sim::FaultPlan plan;
    const std::uint32_t mds = w.dfs.config().mds_node.value;
    plan.partition(2_ms, {1}, {0, 2, mds});
    plan.heal_partition(30_ms, {1}, {0, 2, mds});
    plan.arm(
        w.sim,
        [&w](std::uint32_t node, bool down) { w.fabric.set_node_down(net::NodeId{node}, down); },
        [&faults](std::uint32_t s, std::uint32_t d, bool down) {
          faults.set_link_down(s, d, down);
        });

    auto c = w.make_client(0);
    int created = 0;
    sim::run_task(w.sim, [](World& world, Pacon& p, int& ok) -> Task<> {
      for (int i = 0; i < 32; ++i) {
        auto r = co_await p.create(Path::parse("/app/p" + std::to_string(i)),
                                   fs::FileMode::file_default());
        if (r) ++ok;
        co_await world.sim.delay(500_us);
      }
      co_await p.drain();
      // Past the heal point: let node 1 rejoin the ring and prove the
      // cluster is whole again.
      if (world.sim.now() < 31_ms) {
        co_await world.sim.delay(31_ms - world.sim.now());
      }
      p.region().node_recovered(net::NodeId{1});
      EXPECT_TRUE((co_await p.create(Path::parse("/app/rejoined"),
                                     fs::FileMode::file_default())).has_value());
      co_await p.drain();
    }(w, *c, created));
    EXPECT_EQ(created, 32) << "seed " << seed << ": partition leaked into app errors";
    EXPECT_GT(faults.partition_drops(), 0u)
        << "seed " << seed << ": no message ever hit the partition";
    EXPECT_GE(c->region().cache().failovers(), 1u) << "seed " << seed;
    EXPECT_EQ(c->region().pending_commits(), 0u);
  }
}

// The commit path's MDS link flaps: commits park and retry through the dark
// windows, and after the last flap the full workload is durable on the DFS.
TEST(FailureAsym, FlappingMdsLinkCommitsEventuallyLand) {
  for (const std::uint64_t seed : ftest::kSuiteSeeds) {
    World w(3, seed);
    sim::LinkFaultMatrix& faults = w.link_faults();
    sim::FaultPlan plan;
    const std::uint32_t mds = w.dfs.config().mds_node.value;
    ftest::flap_link(plan, 0, mds, 500_us, 2_ms, 1_ms, 5);
    ftest::flap_link(plan, mds, 0, 500_us, 2_ms, 1_ms, 5);
    plan.arm(
        w.sim, [](std::uint32_t, bool) {},
        [&faults](std::uint32_t s, std::uint32_t d, bool down) {
          faults.set_link_down(s, d, down);
        });

    auto c = w.make_client(0);
    int created = 0;
    sim::run_task(w.sim, [](World& world, Pacon& p, int& ok) -> Task<> {
      for (int i = 0; i < 30; ++i) {
        auto r = co_await p.create(Path::parse("/app/m" + std::to_string(i)),
                                   fs::FileMode::file_default());
        if (r) ++ok;
        co_await world.sim.delay(200_us);
      }
      co_await p.drain();
      // The whole workload is durable despite the flapping commit link.
      dfs::DfsClient probe(world.sim, world.dfs, net::NodeId{90'001});
      auto listing = co_await probe.readdir(Path::parse("/app"));
      EXPECT_TRUE(listing.has_value());
      if (listing) {
        EXPECT_EQ(listing->size(), 30u);
      }
    }(w, *c, created));
    EXPECT_EQ(created, 30) << "seed " << seed;
    EXPECT_GT(faults.partition_drops(), 0u)
        << "seed " << seed << ": no commit traffic ever hit a dark window";
    EXPECT_EQ(c->region().pending_commits(), 0u);
  }
}

}  // namespace
}  // namespace pacon::core
