// N-N checkpoint: the HPC pattern that motivated BatchFS/DeltaFS, run on
// Pacon instead. Every rank writes its own checkpoint file each timestep;
// metadata creation is absorbed by the distributed cache, the region
// checkpoint gives rollback, and a simulated node crash is recovered.
//
// Build & run:  ./build/examples/nn_checkpoint
#include <iostream>
#include <memory>
#include <vector>

#include "core/pacon.h"
#include "dfs/client.h"
#include "sim/combinators.h"
#include "sim/simulation.h"

using namespace pacon;
using fs::Path;

namespace {

constexpr int kNodes = 4;
constexpr int kRanksPerNode = 8;
constexpr int kTimesteps = 3;

sim::Task<> rank_step(core::Pacon& pacon, int rank, int step) {
  const Path file =
      Path::parse("/ckpt").child("step" + std::to_string(step))
          .child("rank" + std::to_string(rank) + ".chk");
  (void)co_await pacon.create(file, fs::FileMode::file_default());
  (void)co_await pacon.write(file, 0, 2048);  // small checkpoint record
  (void)co_await pacon.fsync(file);
}

}  // namespace

int main() {
  sim::Simulation sim;
  net::Fabric fabric(sim, net::FabricConfig{});
  dfs::DfsCluster beegfs(sim, fabric);
  core::RegionRegistry registry(sim, fabric, beegfs);

  dfs::DfsClient admin(sim, beegfs, net::NodeId{999});
  sim::run_task(sim, [](dfs::DfsClient& io) -> sim::Task<> {
    (void)co_await io.mkdir(Path::parse("/ckpt"), fs::FileMode{0x7, 0x7, 0x7});
  }(admin));

  core::RegionConfig cfg;
  cfg.root = Path::parse("/ckpt");
  for (int n = 0; n < kNodes; ++n) cfg.nodes.push_back(net::NodeId{static_cast<uint32_t>(n)});
  cfg.creds = {1000, 1000};

  std::vector<std::unique_ptr<core::Pacon>> ranks;
  for (int r = 0; r < kNodes * kRanksPerNode; ++r) {
    ranks.push_back(std::make_unique<core::Pacon>(
        registry, net::NodeId{static_cast<uint32_t>(r % kNodes)}, cfg));
  }

  std::uint64_t good_ckpt = 0;
  sim::run_task(sim, [](sim::Simulation& s, std::vector<std::unique_ptr<core::Pacon>>& rs,
                        std::uint64_t& ckpt_id) -> sim::Task<> {
    for (int step = 0; step < kTimesteps; ++step) {
      (void)co_await rs[0]->mkdir(Path::parse("/ckpt/step" + std::to_string(step)),
                                  fs::FileMode::dir_default());
      std::vector<sim::Task<>> work;
      for (std::size_t r = 0; r < rs.size(); ++r) {
        work.push_back(rank_step(*rs[r], static_cast<int>(r), step));
      }
      const auto t0 = s.now();
      co_await sim::when_all(s, std::move(work));
      std::cout << "timestep " << step << ": " << rs.size() << " ranks checkpointed in "
                << sim::to_micros(s.now() - t0) << " us of virtual time\n";
    }
    // Region checkpoint after a known-good state (drains the queues first).
    auto id = co_await rs[0]->checkpoint();
    ckpt_id = *id;
    std::cout << "region checkpoint " << ckpt_id << " taken\n";
  }(sim, ranks, good_ckpt));

  // A client node crashes mid-run; roll back to the checkpoint and resume.
  sim::run_task(sim, [](sim::Simulation& s, net::Fabric& fab,
                        std::vector<std::unique_ptr<core::Pacon>>& rs,
                        std::uint64_t ckpt_id) -> sim::Task<> {
    (void)co_await rs[0]->mkdir(Path::parse("/ckpt/step99"), fs::FileMode::dir_default());
    (void)co_await rs[1]->create(Path::parse("/ckpt/step99/rank1.chk"),
                                 fs::FileMode::file_default());
    std::cout << "simulating crash of node 3...\n";
    fab.set_node_down(net::NodeId{3}, true);
    rs[0]->region().detach_failed_node(net::NodeId{3});
    (void)co_await rs[0]->restore(ckpt_id);
    std::cout << "restored to checkpoint " << ckpt_id << "\n";
    auto lost = co_await rs[0]->getattr(Path::parse("/ckpt/step99/rank1.chk"));
    std::cout << "post-crash file rolled back: " << (lost ? "NO (bug)" : "yes") << '\n';
    auto kept = co_await rs[0]->getattr(Path::parse("/ckpt/step2/rank5.chk"));
    std::cout << "pre-checkpoint file survives: " << (kept ? "yes" : "NO (bug)") << '\n';
    (void)s;
  }(sim, fabric, ranks, good_ckpt));

  std::cout << "nn_checkpoint done; commit retries observed: "
            << ranks[0]->region().commit_retries() << "\n";
  return 0;
}
