// Focused tests for the chunk storage servers and the striped data path.
#include <gtest/gtest.h>

#include "dfs/client.h"
#include "dfs/cluster.h"
#include "sim/combinators.h"
#include "sim/simulation.h"

namespace pacon::dfs {
namespace {

using fs::FsError;
using fs::Path;
using sim::Simulation;
using sim::Task;

struct Fixture {
  explicit Fixture(DfsClusterConfig cfg = {})
      : fabric(sim, net::FabricConfig{}),
        cluster(sim, fabric, std::move(cfg)),
        client(sim, cluster, net::NodeId{0}) {}
  Simulation sim;
  net::Fabric fabric;
  DfsCluster cluster;
  DfsClient client;
};

TEST(Storage, ChunkBoundaryWritesLandOnDistinctServers) {
  Fixture f;
  sim::run_task(f.sim, [](DfsClient& c) -> Task<> {
    (void)co_await c.create(Path::parse("/f"), fs::FileMode::file_default());
    // Exactly three chunks: 0, 1, 2 -> servers 0, 1, 2 (round-robin).
    (void)co_await c.write(Path::parse("/f"), 0, 3 * kChunkBytes);
  }(f.client));
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(f.cluster.storage(i).bytes_written(), kChunkBytes) << "server " << i;
    EXPECT_EQ(f.cluster.storage(i).chunks_stored(), 1u) << "server " << i;
  }
}

TEST(Storage, UnalignedWriteSplitsAtChunkBoundary) {
  Fixture f;
  sim::run_task(f.sim, [](DfsClient& c) -> Task<> {
    (void)co_await c.create(Path::parse("/f"), fs::FileMode::file_default());
    // Straddles the chunk 0 / chunk 1 boundary.
    auto w = co_await c.write(Path::parse("/f"), kChunkBytes - 1000, 2000);
    EXPECT_TRUE(w.has_value());
    EXPECT_EQ(*w, 2000u);
  }(f.client));
  EXPECT_EQ(f.cluster.storage(0).bytes_written(), 1000u);
  EXPECT_EQ(f.cluster.storage(1).bytes_written(), 1000u);
}

TEST(Storage, ReadWithinWrittenRangeIsWholeBeyondIsShort) {
  Fixture f;
  sim::run_task(f.sim, [](DfsClient& c) -> Task<> {
    (void)co_await c.create(Path::parse("/f"), fs::FileMode::file_default());
    (void)co_await c.write(Path::parse("/f"), 0, 10'000);
    EXPECT_EQ((co_await c.read(Path::parse("/f"), 5'000, 5'000)).value_or(0), 5'000u);
    EXPECT_EQ((co_await c.read(Path::parse("/f"), 5'000, 6'000)).value_or(0), 5'000u);
  }(f.client));
  // The disk moved only the bytes returned.
  EXPECT_EQ(f.cluster.storage(0).bytes_read(), 10'000u);
}

TEST(Storage, SparseWriteLeavesHole) {
  Fixture f;
  sim::run_task(f.sim, [](DfsClient& c) -> Task<> {
    (void)co_await c.create(Path::parse("/f"), fs::FileMode::file_default());
    // Write only the second chunk's range.
    const std::uint64_t chunk = 512 << 10;
    (void)co_await c.write(Path::parse("/f"), chunk, 1000);
    auto attr = co_await c.getattr(Path::parse("/f"));
    EXPECT_EQ(attr->size, chunk + 1000);
    // The hole (chunk 0) was never written: it lies inside the file, so a
    // read there returns zeros for the whole range.
    auto hole = co_await c.read(Path::parse("/f"), 0, 100);
    EXPECT_TRUE(hole.has_value());
    if (hole) { EXPECT_EQ(*hole, 100u); }
    EXPECT_EQ((co_await c.read(Path::parse("/f"), chunk, 1000)).value_or(0), 1000u);
  }(f.client));
  // Storage moved only the bytes written; the hole cost no disk read.
  EXPECT_EQ(f.cluster.storage(0).bytes_read(), 0u);
}

TEST(Storage, HoleInMiddleChunkReadsAsContiguousCount) {
  Fixture f;
  sim::run_task(f.sim, [](DfsClient& c) -> Task<> {
    const Path p = Path::parse("/f");
    (void)co_await c.create(p, fs::FileMode::file_default());
    // Chunk 0 holds [0, 1000), chunk 1 is never written, chunk 2 holds its
    // first 1000 bytes: the tail of chunk 0 and all of chunk 1 are holes.
    (void)co_await c.write(p, 0, 1000);
    (void)co_await c.write(p, 2 * kChunkBytes, 1000);
    const std::uint64_t size = 2 * kChunkBytes + 1000;
    EXPECT_EQ((co_await c.read(p, 0, size)).value_or(0), size);
    EXPECT_EQ((co_await c.read(p, 500, kChunkBytes)).value_or(0), kChunkBytes);
    // Crossing end of file stays short; past it reads nothing.
    EXPECT_EQ((co_await c.read(p, size - 500, 1000)).value_or(0), 500u);
    auto past = co_await c.read(p, size, 1000);
    EXPECT_TRUE(past.has_value());
    if (past) { EXPECT_EQ(*past, 0u); }
    // A read the chunks fill completely asks the MDS for nothing more; a
    // short one asks for the size once. Both resolve the path afresh.
    c.invalidate_cache();
    std::uint64_t before = c.meta_rpcs();
    EXPECT_EQ((co_await c.read(p, 0, 1000)).value_or(0), 1000u);
    const std::uint64_t full_rpcs = c.meta_rpcs() - before;
    c.invalidate_cache();
    before = c.meta_rpcs();
    EXPECT_EQ((co_await c.read(p, 0, 2000)).value_or(0), 2000u);
    EXPECT_EQ(c.meta_rpcs() - before, full_rpcs + 1);
  }(f.client));
}

TEST(Storage, ParallelChunkTransfersOverlapInTime) {
  // An 8-chunk write across 3 servers must take far less than 8 serialized
  // transfers (the client issues chunk RPCs concurrently).
  Fixture f;
  sim::SimTime elapsed = 0;
  sim::run_task(f.sim, [](Simulation& s, DfsClient& c, std::uint64_t bytes,
                          sim::SimTime& out) -> Task<> {
    (void)co_await c.create(Path::parse("/f"), fs::FileMode::file_default());
    const auto t0 = s.now();
    (void)co_await c.write(Path::parse("/f"), 0, bytes);
    out = s.now() - t0;
  }(f.sim, f.client, 8 * kChunkBytes, elapsed));
  // One 512 KiB transfer at ~1.2 GB/s is ~430us on the disk plus wire time;
  // 8 of them serialized would exceed 3.5ms. Parallel across 3 servers with
  // overlapping wire/disk stages should land well under 2.5ms.
  EXPECT_LT(elapsed, 2'500'000u);
}

TEST(Storage, WriteToMissingFileFails) {
  Fixture f;
  sim::run_task(f.sim, [](DfsClient& c) -> Task<> {
    auto w = co_await c.write(Path::parse("/nope"), 0, 100);
    EXPECT_FALSE(w.has_value());
    EXPECT_EQ(w.error(), FsError::not_found);
  }(f.client));
}

TEST(Storage, SizePropagatesToMds) {
  Fixture f;
  sim::run_task(f.sim, [](DfsClient& c) -> Task<> {
    (void)co_await c.create(Path::parse("/f"), fs::FileMode::file_default());
    (void)co_await c.write(Path::parse("/f"), 0, 4096);
    (void)co_await c.write(Path::parse("/f"), 0, 100);  // shrink must not regress size
    auto attr = co_await c.getattr(Path::parse("/f"));
    EXPECT_EQ(attr->size, 4096u);
  }(f.client));
}

TEST(Storage, SingleStorageServerConfig) {
  DfsClusterConfig cfg;
  cfg.storage_nodes = {net::NodeId{100'001}};
  Fixture f(cfg);
  sim::run_task(f.sim, [](DfsClient& c) -> Task<> {
    (void)co_await c.create(Path::parse("/f"), fs::FileMode::file_default());
    auto w = co_await c.write(Path::parse("/f"), 0, 2ull << 20);
    EXPECT_TRUE(w.has_value());
  }(f.client));
  EXPECT_EQ(f.cluster.storage(0).bytes_written(), 2ull << 20);
}

}  // namespace
}  // namespace pacon::dfs
