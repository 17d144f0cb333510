// Tests for the BeeGFS-like DFS: namespace semantics on the MDS, client
// path resolution with dentry caching, permission enforcement, data striping,
// and the path-traversal cost behaviour the paper measures.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dfs/client.h"
#include "dfs/cluster.h"
#include "obs/trace.h"
#include "sim/combinators.h"
#include "sim/random.h"
#include "sim/simulation.h"

namespace pacon::dfs {
namespace {

using fs::FsError;
using fs::Path;
using sim::Simulation;
using sim::Task;

struct Fixture {
  explicit Fixture(DfsClusterConfig cfg = {}, DfsClientConfig client_cfg = {})
      : fabric(sim, net::FabricConfig{}),
        cluster(sim, fabric, std::move(cfg)),
        client(sim, cluster, net::NodeId{0}, client_cfg) {}
  Simulation sim;
  net::Fabric fabric;
  DfsCluster cluster;
  DfsClient client;
};

TEST(DfsMeta, MkdirThenGetattr) {
  Fixture f;
  sim::run_task(f.sim, [](DfsClient& c) -> Task<> {
    auto made = co_await c.mkdir(Path::parse("/a"), fs::FileMode::dir_default());
    EXPECT_TRUE(made.has_value());
    EXPECT_TRUE(made->is_dir());
    auto got = co_await c.getattr(Path::parse("/a"));
    EXPECT_TRUE(got.has_value());
    EXPECT_EQ(got->ino, made->ino);
  }(f.client));
}

TEST(DfsMeta, CreateRequiresExistingParent) {
  Fixture f;
  sim::run_task(f.sim, [](DfsClient& c) -> Task<> {
    auto r = co_await c.create(Path::parse("/no/such/file"), fs::FileMode::file_default());
    EXPECT_FALSE(r.has_value());
    EXPECT_EQ(r.error(), FsError::not_found);
  }(f.client));
}

TEST(DfsMeta, DuplicateCreateIsExists) {
  Fixture f;
  sim::run_task(f.sim, [](DfsClient& c) -> Task<> {
    (void)co_await c.create(Path::parse("/f"), fs::FileMode::file_default());
    auto again = co_await c.create(Path::parse("/f"), fs::FileMode::file_default());
    EXPECT_FALSE(again.has_value());
    EXPECT_EQ(again.error(), FsError::exists);
  }(f.client));
}

TEST(DfsMeta, CreateUnderFileIsNotADirectory) {
  Fixture f;
  sim::run_task(f.sim, [](DfsClient& c) -> Task<> {
    (void)co_await c.create(Path::parse("/f"), fs::FileMode::file_default());
    auto r = co_await c.create(Path::parse("/f/child"), fs::FileMode::file_default());
    EXPECT_FALSE(r.has_value());
    EXPECT_EQ(r.error(), FsError::not_a_directory);
  }(f.client));
}

TEST(DfsMeta, UnlinkRemovesFileOnly) {
  Fixture f;
  sim::run_task(f.sim, [](DfsClient& c) -> Task<> {
    (void)co_await c.create(Path::parse("/f"), fs::FileMode::file_default());
    (void)co_await c.mkdir(Path::parse("/d"), fs::FileMode::dir_default());
    EXPECT_TRUE((co_await c.unlink(Path::parse("/f"))).has_value());
    auto gone = co_await c.getattr(Path::parse("/f"));
    EXPECT_EQ(gone.error(), FsError::not_found);
    auto dir = co_await c.unlink(Path::parse("/d"));
    EXPECT_EQ(dir.error(), FsError::is_a_directory);
  }(f.client));
}

TEST(DfsMeta, RmdirRequiresEmpty) {
  Fixture f;
  sim::run_task(f.sim, [](DfsClient& c) -> Task<> {
    (void)co_await c.mkdir(Path::parse("/d"), fs::FileMode::dir_default());
    (void)co_await c.create(Path::parse("/d/f"), fs::FileMode::file_default());
    auto full = co_await c.rmdir(Path::parse("/d"));
    EXPECT_EQ(full.error(), FsError::not_empty);
    (void)co_await c.unlink(Path::parse("/d/f"));
    EXPECT_TRUE((co_await c.rmdir(Path::parse("/d"))).has_value());
    EXPECT_EQ((co_await c.getattr(Path::parse("/d"))).error(), FsError::not_found);
  }(f.client));
}

// A directory's entry table exists only once it had a child: a directory
// that never had one still lists empty, fails lookups with not_found, and a
// directory whose last child went away can be removed.
TEST(DfsMeta, DirectoryWithoutEntriesListsEmptyAndRemoves) {
  Fixture f;
  MetaServer& mds = f.cluster.mds();
  const auto run = [&mds](MetaOp op, fs::Ino parent, std::string name,
                          fs::FileType type = fs::FileType::file) {
    MetaRequest req;
    req.op = op;
    req.parent = parent;
    req.ino = parent;
    req.name = std::move(name);
    req.type = type;
    req.mode = type == fs::FileType::directory ? fs::FileMode::dir_default()
                                               : fs::FileMode::file_default();
    return mds.apply(req);
  };
  const std::size_t inodes_before = mds.inode_count();
  const MetaResponse empty = run(MetaOp::create, fs::kRootIno, "empty", fs::FileType::directory);
  ASSERT_EQ(empty.status, FsError::ok);
  const MetaResponse listed = run(MetaOp::readdir, empty.attr.ino, "");
  EXPECT_EQ(listed.status, FsError::ok);
  EXPECT_TRUE(listed.entries.empty());
  EXPECT_EQ(run(MetaOp::lookup, empty.attr.ino, "x").status, FsError::not_found);
  EXPECT_EQ(run(MetaOp::unlink, empty.attr.ino, "x").status, FsError::not_found);
  EXPECT_EQ(run(MetaOp::rmdir, fs::kRootIno, "empty").status, FsError::ok);
  EXPECT_EQ(run(MetaOp::readdir, empty.attr.ino, "").status, FsError::not_found);

  const MetaResponse dir = run(MetaOp::create, fs::kRootIno, "d", fs::FileType::directory);
  ASSERT_EQ(dir.status, FsError::ok);
  ASSERT_EQ(run(MetaOp::create, dir.attr.ino, "f").status, FsError::ok);
  EXPECT_EQ(run(MetaOp::readdir, dir.attr.ino, "").entries.size(), 1u);
  EXPECT_EQ(run(MetaOp::rmdir, fs::kRootIno, "d").status, FsError::not_empty);
  ASSERT_EQ(run(MetaOp::unlink, dir.attr.ino, "f").status, FsError::ok);
  EXPECT_TRUE(run(MetaOp::readdir, dir.attr.ino, "").entries.empty());
  EXPECT_EQ(run(MetaOp::lookup, dir.attr.ino, "f").status, FsError::not_found);
  EXPECT_EQ(run(MetaOp::rmdir, fs::kRootIno, "d").status, FsError::ok);
  EXPECT_EQ(run(MetaOp::getattr, dir.attr.ino, "").status, FsError::not_found);
  EXPECT_EQ(mds.inode_count(), inodes_before);
  // A recreated directory starts with no entries of its own.
  const MetaResponse again = run(MetaOp::create, fs::kRootIno, "d", fs::FileType::directory);
  ASSERT_EQ(again.status, FsError::ok);
  EXPECT_TRUE(run(MetaOp::readdir, again.attr.ino, "").entries.empty());
}

TEST(DfsMeta, ReaddirListsChildrenSorted) {
  Fixture f;
  sim::run_task(f.sim, [](DfsClient& c) -> Task<> {
    (void)co_await c.mkdir(Path::parse("/d"), fs::FileMode::dir_default());
    (void)co_await c.create(Path::parse("/d/b"), fs::FileMode::file_default());
    (void)co_await c.create(Path::parse("/d/a"), fs::FileMode::file_default());
    (void)co_await c.mkdir(Path::parse("/d/c"), fs::FileMode::dir_default());
    auto entries = co_await c.readdir(Path::parse("/d"));
    EXPECT_TRUE(entries.has_value());
    if (!entries) co_return;
    EXPECT_EQ(entries->size(), 3u);
    EXPECT_EQ((*entries)[0].name, "a");
    EXPECT_EQ((*entries)[1].name, "b");
    EXPECT_EQ((*entries)[2].name, "c");
    EXPECT_EQ((*entries)[2].type, fs::FileType::directory);

    // Enough names that a listing in hash or insertion order would differ:
    // 200 created in a seeded shuffled order, some removed again.
    constexpr std::size_t kNames = 200;
    std::vector<std::size_t> order(kNames);
    for (std::size_t i = 0; i < kNames; ++i) order[i] = i;
    sim::Rng rng(23);
    for (std::size_t i = kNames - 1; i > 0; --i) {
      std::swap(order[i], order[static_cast<std::size_t>(rng.uniform(i + 1))]);
    }
    const auto is_dir = [](std::size_t i) { return i % 7 == 0; };
    const auto name_of = [](std::size_t i) { return "f" + std::to_string(i); };
    (void)co_await c.mkdir(Path::parse("/e"), fs::FileMode::dir_default());
    for (const std::size_t i : order) {
      const Path path = Path::parse("/e/" + name_of(i));
      const auto made = is_dir(i) ? co_await c.mkdir(path, fs::FileMode::dir_default())
                                  : co_await c.create(path, fs::FileMode::file_default());
      EXPECT_TRUE(made.has_value()) << path.str();
    }
    std::map<std::string, fs::FileType> expected;
    for (const std::size_t i : order) {
      const Path path = Path::parse("/e/" + name_of(i));
      if (i % 3 == 1) {
        const auto removed = is_dir(i) ? co_await c.rmdir(path) : co_await c.unlink(path);
        EXPECT_TRUE(removed.has_value()) << path.str();
      } else {
        expected.emplace(name_of(i), is_dir(i) ? fs::FileType::directory : fs::FileType::file);
      }
    }
    auto listed = co_await c.readdir(Path::parse("/e"));
    EXPECT_TRUE(listed.has_value());
    if (!listed) co_return;
    std::vector<fs::DirEntry> want;
    for (const auto& [name, type] : expected) want.push_back(fs::DirEntry{name, type});
    EXPECT_EQ(*listed, want);
  }(f.client));
}

TEST(DfsMeta, PermissionDeniedForForeignUser) {
  DfsClientConfig owner_cfg;
  owner_cfg.creds = {100, 100};
  Fixture f({}, owner_cfg);
  // A second client with different credentials on another node.
  DfsClientConfig other_cfg;
  other_cfg.creds = {200, 200};
  DfsClient other(f.sim, f.cluster, net::NodeId{1}, other_cfg);
  sim::run_task(f.sim, [](DfsClient& owner, DfsClient& intruder) -> Task<> {
    // Owner-only directory: rwx------.
    fs::FileMode private_mode{0x7, 0x0, 0x0};
    (void)co_await owner.mkdir(Path::parse("/private"), private_mode);
    auto denied = co_await intruder.create(Path::parse("/private/f"),
                                           fs::FileMode::file_default());
    EXPECT_EQ(denied.error(), FsError::permission);
    auto lookup_denied = co_await intruder.getattr(Path::parse("/private/f"));
    EXPECT_EQ(lookup_denied.error(), FsError::permission);
  }(f.client, other));
}

TEST(DfsClient, DentryCacheAvoidsRepeatLookups) {
  DfsClientConfig cfg;
  cfg.dentry_ttl = 1_s;  // keep the parent valid across the whole loop
  Fixture f({}, cfg);
  sim::run_task(f.sim, [](DfsClient& c) -> Task<> {
    (void)co_await c.mkdir(Path::parse("/dir"), fs::FileMode::dir_default());
    for (int i = 0; i < 10; ++i) {
      (void)co_await c.create(Path::parse("/dir/f" + std::to_string(i)),
                              fs::FileMode::file_default());
    }
  }(f.client));
  // Parent resolution for the 10 creates must be served by the cache; only
  // the creates themselves (and the initial mkdir) hit the MDS.
  EXPECT_EQ(f.client.lookup_rpcs(), 0u);
  EXPECT_EQ(f.client.meta_rpcs(), 11u);
  EXPECT_GT(f.client.dentry_hits(), 0u);
}

TEST(DfsClient, FullDentryCacheEvictsLeastRecentDirectory) {
  DfsClientConfig cfg;
  cfg.dentry_cache_capacity = 2;
  cfg.dentry_ttl = 1_s;
  Fixture f({}, cfg);
  sim::run_task(f.sim, [](DfsClient& c) -> Task<> {
    // A stat of a missing child always looks the leaf up; its parent costs
    // one more lookup only when the parent's dentry is not cached.
    (void)co_await c.mkdir(Path::parse("/a"), fs::FileMode::dir_default());
    (void)co_await c.mkdir(Path::parse("/b"), fs::FileMode::dir_default());
    std::uint64_t before = c.lookup_rpcs();
    (void)co_await c.getattr(Path::parse("/a/missing"));  // a is now more recent than b
    EXPECT_EQ(c.lookup_rpcs() - before, 1u);
    (void)co_await c.mkdir(Path::parse("/c"), fs::FileMode::dir_default());  // evicts b
    before = c.lookup_rpcs();
    (void)co_await c.getattr(Path::parse("/a/missing"));
    EXPECT_EQ(c.lookup_rpcs() - before, 1u);
    before = c.lookup_rpcs();
    (void)co_await c.getattr(Path::parse("/b/missing"));
    EXPECT_EQ(c.lookup_rpcs() - before, 2u);
  }(f.client));
}

TEST(DfsClient, TtlExpiryForcesRevalidation) {
  DfsClientConfig cfg;
  cfg.dentry_ttl = 1_ms;
  Fixture f({}, cfg);
  sim::run_task(f.sim, [](Simulation& s, DfsClient& c) -> Task<> {
    (void)co_await c.mkdir(Path::parse("/dir"), fs::FileMode::dir_default());
    (void)co_await c.getattr(Path::parse("/dir"));
    const auto rpcs_before = c.lookup_rpcs();
    co_await s.delay(10_ms);  // let the entry expire
    (void)co_await c.getattr(Path::parse("/dir"));
    EXPECT_GT(c.lookup_rpcs(), rpcs_before);
  }(f.sim, f.client));
}

// Pins the client's observable behaviour across every operation: the RPC
// counts, the dentry-cache hits and the returned values after each step.
// The cache keeps only {ino, type} of a component, so a cached leaf must
// serve write/read/fsync exactly as a full cached attribute record did.
TEST(DfsClient, DentryCacheScriptedSequenceIsPinned) {
  // The MDS numbers inodes from its node id up; the file is the next one.
  static constexpr fs::Ino kDirIno = 109'952'262'289'227'777ull;
  // {lookup_rpcs, meta_rpcs, data_rpcs, dentry_hits} after each step.
  using Counts = std::array<std::uint64_t, 4>;
  DfsClientConfig cfg;
  cfg.dentry_ttl = 1_s;
  Fixture f({}, cfg);
  std::vector<Counts> counts;
  sim::run_task(f.sim, [](Simulation& s, DfsClient& c, std::vector<Counts>& out) -> Task<> {
    const auto step = [&] {
      out.push_back({c.lookup_rpcs(), c.meta_rpcs(), c.data_rpcs(), c.dentry_hits()});
    };
    const Path a = Path::parse("/a");
    const Path file = Path::parse("/a/f");
    auto dir = co_await c.mkdir(a, fs::FileMode::dir_default());
    EXPECT_TRUE(dir && dir->is_dir());
    EXPECT_EQ(dir ? dir->ino : 0, kDirIno);
    step();
    auto made = co_await c.create(file, fs::FileMode::file_default());
    EXPECT_TRUE(made && !made->is_dir() && made->size == 0u);
    EXPECT_EQ(made ? made->ino : 0, kDirIno + 1);
    step();
    auto written = co_await c.write(file, 0, 1 << 20);
    EXPECT_EQ(written.value_or(0), 1u << 20);
    step();
    auto read = co_await c.read(file, 4096, 8192);
    EXPECT_EQ(read.value_or(0), 8192u);
    step();
    EXPECT_TRUE((co_await c.fsync(file)).has_value());
    step();
    auto attr = co_await c.getattr(file);
    EXPECT_TRUE(attr && attr->size == 1u << 20 && attr->mode == fs::FileMode::file_default());
    EXPECT_EQ(attr ? attr->ino : 0, kDirIno + 1);
    step();
    auto listing = co_await c.readdir(a);
    EXPECT_TRUE((listing && *listing == std::vector<fs::DirEntry>{{"f", fs::FileType::file}}));
    step();
    co_await s.delay(2_s);  // the cached /a and /a/f expire
    auto again = co_await c.write(file, 1 << 20, 4096);
    EXPECT_EQ(again.value_or(0), 4096u);
    step();
    EXPECT_TRUE((co_await c.unlink(file)).has_value());
    step();
    EXPECT_TRUE((co_await c.rmdir(a)).has_value());
    step();
  }(f.sim, f.client, counts));
  const std::vector<Counts> expected = {
      {0, 1, 0, 0},   // mkdir /a
      {0, 2, 0, 1},   // create /a/f: parent cached
      {0, 3, 2, 2},   // write: cached leaf, two chunks, set_size
      {0, 3, 3, 3},   // read: cached leaf
      {0, 4, 3, 4},   // fsync: cached leaf plus a getattr
      {1, 5, 3, 5},   // getattr: cached parent, fresh leaf
      {1, 6, 3, 6},   // readdir: cached dir
      {3, 9, 4, 6},   // write after expiry: both components looked up again
      {3, 10, 4, 7},  // unlink: cached parent
      {3, 11, 4, 7},  // rmdir: root parent needs no cache
  };
  EXPECT_EQ(counts, expected);
  EXPECT_EQ(f.sim.now(), 2'002'432'213u);
}

TEST(DfsClient, EachTracedOpOpensOneOkSpanNamedAfterIt) {
  Fixture f;
  obs::Tracer tracer(f.sim);
  f.sim.set_tracer(&tracer);
  const obs::SpanId root = tracer.begin_span("test");
  // Three chunks' worth, so the data ops fan out to several storage calls.
  const std::uint64_t bytes = 2 * kChunkBytes + 100;
  sim::run_task(f.sim, [](DfsClient& c, obs::SpanId parent, std::uint64_t n) -> Task<> {
    const Path dir = Path::parse("/d");
    const Path file = Path::parse("/d/f");
    EXPECT_TRUE((co_await c.mkdir(dir, fs::FileMode::dir_default(), parent)).has_value());
    EXPECT_TRUE((co_await c.create(file, fs::FileMode::file_default(), parent)).has_value());
    EXPECT_EQ((co_await c.write(file, 0, n, parent)).value_or(0), n);
    EXPECT_EQ((co_await c.read(file, 0, n, parent)).value_or(0), n);
    EXPECT_TRUE((co_await c.unlink(file, parent)).has_value());
    EXPECT_TRUE((co_await c.rmdir(dir, parent)).has_value());
  }(f.client, root, bytes));
  f.sim.set_tracer(nullptr);
  tracer.end_span(root);

  std::vector<std::string> dfs_spans;
  for (const obs::SpanRecord& span : tracer.spans()) {
    if (!span.name.starts_with("dfs.")) continue;
    dfs_spans.push_back(span.name);
    EXPECT_EQ(span.parent, root) << span.name;
    EXPECT_FALSE(span.open) << span.name;
    EXPECT_EQ(span.status, "ok") << span.name;
  }
  const std::vector<std::string> expected = {"dfs.mkdir", "dfs.create", "dfs.write",
                                             "dfs.read",  "dfs.unlink", "dfs.rmdir"};
  EXPECT_EQ(dfs_spans, expected);
}

TEST(DfsClient, DeepPathsCostMoreLookups) {
  DfsClientConfig cfg;
  cfg.dentry_cache_capacity = 0;  // disable caching to expose raw traversal
  Fixture f({}, cfg);
  sim::run_task(f.sim, [](Simulation& s, DfsClient& c) -> Task<> {
    (void)co_await c.mkdir(Path::parse("/a"), fs::FileMode::dir_default());
    (void)co_await c.mkdir(Path::parse("/a/b"), fs::FileMode::dir_default());
    (void)co_await c.mkdir(Path::parse("/a/b/c"), fs::FileMode::dir_default());
    (void)co_await c.mkdir(Path::parse("/a/b/c/d"), fs::FileMode::dir_default());

    const auto t0 = s.now();
    (void)co_await c.getattr(Path::parse("/a"));
    const auto shallow = s.now() - t0;
    const auto t1 = s.now();
    (void)co_await c.getattr(Path::parse("/a/b/c/d"));
    const auto deep = s.now() - t1;
    EXPECT_GT(deep, 3 * shallow);  // 4 component lookups vs 1
  }(f.sim, f.client));
}

TEST(DfsData, WriteStripesAcrossStorageServers) {
  Fixture f;
  sim::run_task(f.sim, [](DfsClient& c) -> Task<> {
    (void)co_await c.create(Path::parse("/big"), fs::FileMode::file_default());
    // 4 MiB spans 8 chunks of 512 KiB over 3 storage servers.
    auto written = co_await c.write(Path::parse("/big"), 0, 4ull << 20);
    EXPECT_TRUE(written.has_value());
    EXPECT_EQ(*written, 4ull << 20);
    auto attr = co_await c.getattr(Path::parse("/big"));
    EXPECT_EQ(attr->size, 4ull << 20);
  }(f.client));
  int busy = 0;
  for (std::size_t i = 0; i < f.cluster.storage_count(); ++i) {
    if (f.cluster.storage(i).bytes_written() > 0) ++busy;
  }
  EXPECT_EQ(busy, 3);
}

TEST(DfsData, ReadBackWrittenRange) {
  Fixture f;
  sim::run_task(f.sim, [](DfsClient& c) -> Task<> {
    (void)co_await c.create(Path::parse("/f"), fs::FileMode::file_default());
    (void)co_await c.write(Path::parse("/f"), 0, 1 << 20);
    auto bytes = co_await c.read(Path::parse("/f"), 0, 1 << 20);
    EXPECT_TRUE(bytes.has_value());
    EXPECT_EQ(*bytes, 1u << 20);
    // Reading past what was written moves nothing.
    auto past = co_await c.read(Path::parse("/f"), 1 << 20, 4096);
    EXPECT_TRUE(past.has_value());
    if (past) { EXPECT_EQ(*past, 0u); }
  }(f.client));
}

TEST(DfsData, ReadCrossingEndOfFileIsShort) {
  Fixture f;
  sim::run_task(f.sim, [](DfsClient& c) -> Task<> {
    const Path big = Path::parse("/big");
    (void)co_await c.create(big, fs::FileMode::file_default());
    (void)co_await c.write(big, 0, 8000);
    auto over = co_await c.read(big, 6000, 4000);
    EXPECT_TRUE(over.has_value());
    if (over) { EXPECT_EQ(*over, 2000u); }
    auto past = co_await c.read(big, 8000, 4000);
    EXPECT_TRUE(past.has_value());
    if (past) { EXPECT_EQ(*past, 0u); }
  }(f.client));
}

TEST(DfsData, FsyncSucceedsOnExistingFile) {
  Fixture f;
  sim::run_task(f.sim, [](DfsClient& c) -> Task<> {
    (void)co_await c.create(Path::parse("/f"), fs::FileMode::file_default());
    EXPECT_TRUE((co_await c.fsync(Path::parse("/f"))).has_value());
    EXPECT_FALSE((co_await c.fsync(Path::parse("/missing"))).has_value());
  }(f.client));
}

TEST(DfsScaling, MdsSaturatesUnderManyClients) {
  // Doubling offered load beyond saturation must not double throughput:
  // the single MDS is the bottleneck (paper Fig. 1 motivation).
  auto throughput_with_clients = [](int n_clients) {
    Simulation sim;
    net::Fabric fabric(sim, net::FabricConfig{});
    DfsCluster cluster(sim, fabric);
    std::vector<std::unique_ptr<DfsClient>> clients;
    std::vector<int> completed(static_cast<std::size_t>(n_clients), 0);
    sim::run_task(sim, [](Simulation& s, DfsCluster& cl,
                          std::vector<std::unique_ptr<DfsClient>>& cs,
                          std::vector<int>& done, int n) -> Task<> {
      auto setup = DfsClient(s, cl, net::NodeId{9999});
      (void)co_await setup.mkdir(Path::parse("/bench"), fs::FileMode::dir_default());
      std::vector<Task<>> procs;
      for (int i = 0; i < n; ++i) {
        cs.push_back(std::make_unique<DfsClient>(s, cl, net::NodeId{static_cast<std::uint32_t>(i)}));
        procs.push_back([](Simulation& sm, DfsClient& c, int id, int& count) -> Task<> {
          const sim::SimTime deadline = 200_ms;
          for (int k = 0; sm.now() < deadline; ++k) {
            auto r = co_await c.create(
                Path::parse("/bench/c" + std::to_string(id) + "_" + std::to_string(k)),
                fs::FileMode::file_default());
            if (r.has_value()) ++count;
          }
        }(s, *cs.back(), i, done[static_cast<std::size_t>(i)]));
      }
      co_await sim::when_all(s, std::move(procs));
    }(sim, cluster, clients, completed, n_clients));
    int total = 0;
    for (const int c : completed) total += c;
    return total;
  };
  const int t8 = throughput_with_clients(8);
  const int t64 = throughput_with_clients(64);
  EXPECT_GT(t64, t8);             // some scaling before the knee
  EXPECT_LT(t64, t8 * 4);         // but far from linear (8x clients)
}

}  // namespace
}  // namespace pacon::dfs
