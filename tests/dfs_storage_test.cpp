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
  const std::uint64_t chunk = f.cluster.config().chunk_bytes;
  sim::run_task(f.sim, [](DfsClient& c, std::uint64_t chunk_bytes) -> Task<> {
    (void)co_await c.create(Path::parse("/f"), fs::FileMode::file_default());
    // Exactly three chunks: 0, 1, 2 -> servers 0, 1, 2 (round-robin).
    (void)co_await c.write(Path::parse("/f"), 0, 3 * chunk_bytes);
  }(f.client, chunk));
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(f.cluster.storage(i).bytes_written(), chunk) << "server " << i;
    EXPECT_EQ(f.cluster.storage(i).chunks_stored(), 1u) << "server " << i;
  }
}

TEST(Storage, UnalignedWriteSplitsAtChunkBoundary) {
  Fixture f;
  const std::uint64_t chunk = f.cluster.config().chunk_bytes;
  sim::run_task(f.sim, [](DfsClient& c, std::uint64_t chunk_bytes) -> Task<> {
    (void)co_await c.create(Path::parse("/f"), fs::FileMode::file_default());
    // Straddles the chunk 0 / chunk 1 boundary.
    auto w = co_await c.write(Path::parse("/f"), chunk_bytes - 1000, 2000);
    EXPECT_TRUE(w.has_value());
    EXPECT_EQ(*w, 2000u);
  }(f.client, chunk));
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
    // The hole (chunk 0) was never written: a read there moves nothing.
    auto hole = co_await c.read(Path::parse("/f"), 0, 100);
    EXPECT_TRUE(hole.has_value());
    if (hole) { EXPECT_EQ(*hole, 0u); }
    EXPECT_EQ((co_await c.read(Path::parse("/f"), chunk, 1000)).value_or(0), 1000u);
  }(f.client));
}

TEST(Storage, ParallelChunkTransfersOverlapInTime) {
  // An 8-chunk write across 3 servers must take far less than 8 serialized
  // transfers (the client issues chunk RPCs concurrently).
  Fixture f;
  const std::uint64_t chunk = f.cluster.config().chunk_bytes;
  sim::SimTime elapsed = 0;
  sim::run_task(f.sim, [](Simulation& s, DfsClient& c, std::uint64_t bytes,
                          sim::SimTime& out) -> Task<> {
    (void)co_await c.create(Path::parse("/f"), fs::FileMode::file_default());
    const auto t0 = s.now();
    (void)co_await c.write(Path::parse("/f"), 0, bytes);
    out = s.now() - t0;
  }(f.sim, f.client, 8 * chunk, elapsed));
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
