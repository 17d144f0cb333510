// End-to-end tracing tests: span trees produced by real Pacon operations.
//
// The headline assertions mirror the acceptance criteria for the tracing
// subsystem: a single create yields one tree covering client -> cache ->
// commit -> DFS apply, and a commit-process crash with WAL redelivery hangs
// the replayed apply under the *original* operation's span tree.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/pacon.h"
#include "obs/trace.h"
#include "sim/combinators.h"
#include "sim/simulation.h"

namespace pacon::core {
namespace {

using fs::Path;
using sim::Task;

struct World {
  explicit World(std::size_t client_nodes = 3)
      : fabric(sim, net::FabricConfig{}),
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

  sim::Simulation sim;
  net::Fabric fabric;
  dfs::DfsCluster dfs;
  RegionRegistry registry;
  std::vector<net::NodeId> nodes;
};

std::vector<obs::SpanId> spans_named(const obs::Tracer& t, std::string_view name) {
  std::vector<obs::SpanId> out;
  for (const auto& rec : t.spans()) {
    if (rec.name == name) out.push_back(rec.id);
  }
  return out;
}

bool subtree_contains(const obs::Tracer& t, obs::SpanId root, std::string_view name) {
  for (const obs::SpanId id : t.subtree(root)) {
    if (t.span(id).name == name) return true;
  }
  return false;
}

TEST(Tracing, UntracedRunCreatesNoSpans) {
  World w;
  auto c = w.make_client(0);
  sim::run_task(w.sim, [](Pacon& p) -> Task<> {
    (void)co_await p.create(Path::parse("/app/f"), fs::FileMode::file_default());
    co_await p.drain();
  }(*c));
  EXPECT_EQ(w.sim.tracer(), nullptr);
}

TEST(Tracing, CreateSpanTreeNestsClientCacheCommitDfs) {
  World w;
  obs::Tracer tracer(w.sim);
  w.sim.set_tracer(&tracer);
  auto c = w.make_client(0);
  sim::run_task(w.sim, [](Pacon& p) -> Task<> {
    auto r = co_await p.create(Path::parse("/app/file"), fs::FileMode::file_default());
    EXPECT_TRUE(r.has_value());
    co_await p.drain();
  }(*c));
  w.sim.set_tracer(nullptr);

  const obs::SpanId root = tracer.find("pacon.create");
  ASSERT_NE(root, obs::kNoSpan);
  EXPECT_EQ(tracer.span(root).parent, obs::kNoSpan);
  EXPECT_EQ(tracer.span(root).status, "ok");

  // One tree: cache write, async commit, and the DFS apply all descend from
  // the client-facing create span.
  EXPECT_TRUE(subtree_contains(tracer, root, "kv.add"));
  EXPECT_TRUE(subtree_contains(tracer, root, "commit"));
  EXPECT_TRUE(subtree_contains(tracer, root, "dfs.apply"));
  EXPECT_TRUE(subtree_contains(tracer, root, "dfs.create"));
  EXPECT_TRUE(subtree_contains(tracer, root, "rpc.call"));

  // The commit span outlives the client call (async commit): it closes with
  // the terminal "committed" status and parents the DFS-side apply.
  const auto commits = spans_named(tracer, "commit");
  ASSERT_EQ(commits.size(), 1u);
  EXPECT_EQ(tracer.span(commits[0]).status, "committed");
  EXPECT_FALSE(tracer.span(commits[0]).open);
  EXPECT_EQ(tracer.root_of(commits[0]), root);
  const auto applies = spans_named(tracer, "dfs.apply");
  ASSERT_EQ(applies.size(), 1u);
  EXPECT_EQ(tracer.span(applies[0]).parent, commits[0]);
  EXPECT_EQ(tracer.span(applies[0]).status, "ok");

  // Every span closed by the time the run drained.
  for (const auto& rec : tracer.spans()) {
    EXPECT_FALSE(rec.open) << rec.name;
    EXPECT_GE(rec.end, rec.begin) << rec.name;
  }
}

TEST(Tracing, SpanIdsAreSequentialAndStable) {
  World w;
  obs::Tracer tracer(w.sim);
  w.sim.set_tracer(&tracer);
  auto c = w.make_client(0);
  sim::run_task(w.sim, [](Pacon& p) -> Task<> {
    (void)co_await p.mkdir(Path::parse("/app/d"), fs::FileMode::dir_default());
    (void)co_await p.getattr(Path::parse("/app/d"));
    co_await p.drain();
  }(*c));
  w.sim.set_tracer(nullptr);
  ASSERT_GT(tracer.span_count(), 0u);
  for (std::size_t i = 0; i < tracer.span_count(); ++i) {
    EXPECT_EQ(tracer.spans()[i].id, i + 1);
    // Parents are created before their children (ids ascend down the tree).
    EXPECT_LT(tracer.spans()[i].parent, tracer.spans()[i].id);
  }
}

// The satellite scenario: crash the commit process with a full WAL backlog,
// restart, and require every redelivered op's replay to appear *inside* the
// original operation's span tree -- "wal.replay" parented under the op's
// still-open "commit" span, with the replayed "dfs.apply" beneath it.
TEST(Tracing, WalRedeliveryParentsReplayUnderOriginalOpSpan) {
  World w;
  obs::Tracer tracer(w.sim);
  w.sim.set_tracer(&tracer);
  auto c = w.make_client(0);
  sim::run_task(w.sim, [](World& world, Pacon& p) -> Task<> {
    // Warm the parent-dir cache entry while the MDS is reachable, then park
    // every commit (MDS down) so the workload sits unacknowledged in the WAL
    // when the commit process dies.
    EXPECT_TRUE(
        (co_await p.create(Path::parse("/app/warm"), fs::FileMode::file_default())).has_value());
    co_await p.drain();
    world.fabric.set_node_down(world.dfs.config().mds_node, true);
    for (int i = 0; i < 30; ++i) {
      auto r = co_await p.create(Path::parse("/app/r" + std::to_string(i)),
                                 fs::FileMode::file_default());
      EXPECT_TRUE(r.has_value());
    }
    p.region().crash_commit_process(net::NodeId{0});
    co_await world.sim.delay(500_us);
    world.fabric.set_node_down(world.dfs.config().mds_node, false);
    p.region().restart_commit_process(net::NodeId{0});
    co_await p.drain();
    EXPECT_EQ(p.region().pending_commits(), 0u);
  }(w, *c));
  w.sim.set_tracer(nullptr);
  ASSERT_EQ(c->region().redelivered_ops(), 30u);

  const auto replays = spans_named(tracer, "wal.replay");
  ASSERT_EQ(replays.size(), 30u);
  for (const obs::SpanId replay : replays) {
    const obs::SpanRecord& rec = tracer.span(replay);
    // Parented under the original op's commit span, which roots back to the
    // client-facing create that issued it before the crash.
    ASSERT_NE(rec.parent, obs::kNoSpan);
    EXPECT_EQ(tracer.span(rec.parent).name, "commit");
    EXPECT_EQ(tracer.span(tracer.root_of(replay)).name, "pacon.create");
    EXPECT_EQ(rec.status, "ok");
    // The replayed DFS apply hangs under the replay span, not the commit.
    const auto kids = tracer.children(replay);
    const bool has_apply = std::any_of(kids.begin(), kids.end(), [&](obs::SpanId k) {
      return tracer.span(k).name == "dfs.apply";
    });
    EXPECT_TRUE(has_apply);
  }
  // Every parked commit span eventually closed as committed (dedup'd or
  // applied after redelivery) -- none dangle open after the drain.
  for (const obs::SpanId id : spans_named(tracer, "commit")) {
    EXPECT_FALSE(tracer.span(id).open);
    EXPECT_EQ(tracer.span(id).status, "committed");
  }
}

// Regression: the tracer may be destroyed before the Simulation (paconsim_cli
// holds it in a local unique_ptr). Teardown destroys still-suspended commit
// coroutines whose RAII spans then finish -- after set_tracer(nullptr) those
// finishes must be inert, not calls into a freed tracer. Run without drain()
// so committer processes sit mid-RPC with open spans when the World dies.
// The sanitizer matrix (scripts/check.sh) turns any regression here into an
// ASan use-after-free failure.
TEST(Tracing, TracerDestroyedBeforeSimulationIsSafe) {
  World w;
  auto tracer = std::make_unique<obs::Tracer>(w.sim);
  w.sim.set_tracer(tracer.get());
  auto c = w.make_client(0);
  sim::run_task(w.sim, [](Pacon& p) -> Task<> {
    for (int i = 0; i < 8; ++i) {
      (void)co_await p.create(Path::parse("/app/t" + std::to_string(i)),
                              fs::FileMode::file_default());
    }
    // No drain: async commits are still in flight with open spans.
  }(*c));
  EXPECT_GT(tracer->span_count(), 0u);
  w.sim.set_tracer(nullptr);
  tracer.reset();
  // World (and the suspended commit coroutines holding spans) destructs here.
}

TEST(Tracing, ChromeExportIsWellFormed) {
  World w;
  obs::Tracer tracer(w.sim);
  w.sim.set_tracer(&tracer);
  auto c = w.make_client(0);
  sim::run_task(w.sim, [](Pacon& p) -> Task<> {
    (void)co_await p.create(Path::parse("/app/x"), fs::FileMode::file_default());
    co_await p.drain();
  }(*c));
  w.sim.set_tracer(nullptr);

  const std::string json = tracer.export_chrome_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"pacon.create\""), std::string::npos);
  // Balanced nestable-async begin/end records.
  auto count = [&](const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t pos = json.find(needle); pos != std::string::npos;
         pos = json.find(needle, pos + needle.size())) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(count("\"ph\":\"b\""), tracer.span_count());
  EXPECT_EQ(count("\"ph\":\"e\""), tracer.span_count());
}

}  // namespace
}  // namespace pacon::core
