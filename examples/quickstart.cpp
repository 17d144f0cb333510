// Quickstart: bring up a DFS, attach Pacon to an application workspace, and
// walk through the basic file interfaces.
//
// Build & run:  ./build/examples/quickstart
#include <iostream>

#include "core/pacon.h"
#include "dfs/client.h"
#include "sim/simulation.h"

using namespace pacon;
using fs::Path;

int main() {
  // 1. The environment: a simulation, a cluster fabric, and the underlying
  //    centralized DFS (1 metadata server + 3 storage servers).
  sim::Simulation sim;
  net::Fabric fabric(sim, net::FabricConfig{});
  dfs::DfsCluster beegfs(sim, fabric);
  core::RegionRegistry registry(sim, fabric, beegfs);

  // 2. The administrator provisions a workspace for the application.
  dfs::DfsClient admin(sim, beegfs, net::NodeId{999});
  sim::run_task(sim, [](dfs::DfsClient& io) -> sim::Task<> {
    (void)co_await io.mkdir(Path::parse("/scratch"), fs::FileMode{0x7, 0x7, 0x7});
  }(admin));

  // 3. The application initializes Pacon with its workspace and nodes
  //    (paper Section III.B); here: one region over two client nodes.
  core::RegionConfig cfg;
  cfg.root = Path::parse("/scratch");
  cfg.nodes = {net::NodeId{0}, net::NodeId{1}};
  cfg.creds = {1000, 1000};
  core::Pacon rank0(registry, net::NodeId{0}, cfg);
  core::Pacon rank1(registry, net::NodeId{1}, cfg);

  // 4. Metadata operations inside the workspace run at cache speed and are
  //    strongly consistent between the two ranks.
  sim::run_task(sim, [](sim::Simulation& s, core::Pacon& a, core::Pacon& b,
                        dfs::DfsCluster&) -> sim::Task<> {
    (void)co_await a.mkdir(Path::parse("/scratch/results"), fs::FileMode::dir_default());
    (void)co_await a.create(Path::parse("/scratch/results/run0.dat"),
                            fs::FileMode::file_default());

    auto seen = co_await b.getattr(Path::parse("/scratch/results/run0.dat"));
    std::cout << "rank1 sees rank0's file immediately: "
              << (seen.has_value() ? "yes" : "no") << '\n';

    // Small files live inline in the distributed cache.
    (void)co_await b.write(Path::parse("/scratch/results/run0.dat"), 0, 2048);
    auto attr = co_await a.getattr(Path::parse("/scratch/results/run0.dat"));
    std::cout << "file size after rank1's 2 KiB write: " << attr->size << " bytes\n";

    // The backup copy converges asynchronously.
    std::cout << "operations still queued toward the DFS: "
              << a.region().pending_commits() << '\n';
    co_await a.drain();
    std::cout << "after drain, queued operations: " << a.region().pending_commits() << '\n';

    // A directory listing is barrier-consistent with everything above.
    auto listing = co_await b.readdir(Path::parse("/scratch/results"));
    std::cout << "readdir(/scratch/results): " << listing->size() << " entry(ies)\n";
    (void)s;
  }(sim, rank0, rank1, beegfs));

  std::cout << "virtual time elapsed: " << sim::to_micros(sim.now()) << " us\n";
  std::cout << "quickstart done.\n";
  return 0;
}
