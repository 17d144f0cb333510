// Cross-workspace data sharing (paper use case 2): a producer application
// writes results in its own consistent region; a consumer application merges
// that region for a strongly-consistent read-only view, without touching the
// slow path through the central MDS.
//
// Build & run:  ./build/examples/data_sharing
#include <iostream>

#include "core/pacon.h"
#include "dfs/client.h"
#include "sim/simulation.h"

using namespace pacon;
using fs::Path;

int main() {
  sim::Simulation sim;
  net::Fabric fabric(sim, net::FabricConfig{});
  dfs::DfsCluster beegfs(sim, fabric);
  core::RegionRegistry registry(sim, fabric, beegfs);

  dfs::DfsClient admin(sim, beegfs, net::NodeId{999});
  sim::run_task(sim, [](dfs::DfsClient& io) -> sim::Task<> {
    (void)co_await io.mkdir(Path::parse("/producer"), fs::FileMode{0x7, 0x7, 0x7});
    (void)co_await io.mkdir(Path::parse("/consumer"), fs::FileMode{0x7, 0x7, 0x7});
  }(admin));

  // Two applications on disjoint node sets and workspaces.
  core::RegionConfig producer_cfg;
  producer_cfg.root = Path::parse("/producer");
  producer_cfg.nodes = {net::NodeId{0}, net::NodeId{1}};
  producer_cfg.creds = {1001, 1001};
  core::Pacon producer(registry, net::NodeId{0}, producer_cfg);

  core::RegionConfig consumer_cfg;
  consumer_cfg.root = Path::parse("/consumer");
  consumer_cfg.nodes = {net::NodeId{2}, net::NodeId{3}};
  consumer_cfg.creds = {1002, 1002};
  core::Pacon consumer(registry, net::NodeId{2}, consumer_cfg);

  sim::run_task(sim, [](core::Pacon& prod, core::Pacon& cons) -> sim::Task<> {
    // Producer emits a batch of small result files (metadata + inline data).
    (void)co_await prod.mkdir(Path::parse("/producer/batch0"), fs::FileMode::dir_default());
    for (int i = 0; i < 16; ++i) {
      const Path f = Path::parse("/producer/batch0").child("part" + std::to_string(i));
      (void)co_await prod.create(f, fs::FileMode::file_default());
      (void)co_await prod.write(f, 0, 1024);
    }
    std::cout << "producer wrote 16 parts into /producer/batch0\n";

    // Without a merge, the consumer would read via the DFS and could miss
    // uncommitted results. With the merge it reads the producer's cache.
    auto merged = co_await cons.merge_region(Path::parse("/producer"));
    std::cout << "consumer merged /producer region: "
              << (merged.has_value() ? "ok" : "failed") << '\n';

    int visible = 0;
    std::uint64_t bytes = 0;
    for (int i = 0; i < 16; ++i) {
      const Path f = Path::parse("/producer/batch0").child("part" + std::to_string(i));
      auto attr = co_await cons.getattr(f);
      if (attr) {
        ++visible;
        auto got = co_await cons.read(f, 0, attr->size);
        if (got) bytes += *got;
      }
    }
    std::cout << "consumer sees " << visible << "/16 parts, read " << bytes
              << " bytes straight from the producer's cache\n";

    // Read-only: the consumer may not mutate the merged workspace.
    auto denied = co_await cons.create(Path::parse("/producer/batch0/rogue"),
                                       fs::FileMode::file_default());
    std::cout << "consumer write into merged region rejected: "
              << (denied ? "NO (bug)" : "yes") << '\n';

    // The consumer's own workspace is fully writable, of course.
    (void)co_await cons.create(Path::parse("/consumer/summary"), fs::FileMode::file_default());
    (void)co_await cons.write(Path::parse("/consumer/summary"), 0, 512);
    std::cout << "consumer wrote its own /consumer/summary\n";
  }(producer, consumer));

  std::cout << "data_sharing done.\n";
  return 0;
}
