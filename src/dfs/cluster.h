// Assembly of one DFS deployment: a metadata server with its own disk plus
// a set of chunk storage servers (the paper's testbed: 1 MDS + 3 storage).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "dfs/meta_server.h"
#include "dfs/storage_server.h"
#include "net/fabric.h"
#include "sim/disk.h"
#include "sim/simulation.h"

namespace pacon::dfs {

/// Stripe unit for file data.
inline constexpr std::uint64_t kChunkBytes = 512ull << 10;

/// Deployment addresses. Every server runs on its own NVMe device.
struct DfsClusterConfig {
  net::NodeId mds_node{100'000};
  std::vector<net::NodeId> storage_nodes{net::NodeId{100'001}, net::NodeId{100'002},
                                         net::NodeId{100'003}};
};

class DfsCluster {
 public:
  DfsCluster(sim::Simulation& sim, net::Fabric& fabric, DfsClusterConfig config = {});
  DfsCluster(const DfsCluster&) = delete;
  DfsCluster& operator=(const DfsCluster&) = delete;

  MetaServer& mds() { return *mds_; }
  const DfsClusterConfig& config() const { return config_; }

  std::size_t storage_count() const { return storage_.size(); }
  StorageServer& storage(std::size_t i) { return *storage_[i]; }

  /// Storage server holding chunk `chunk` of any file (round-robin stripe).
  StorageServer& storage_for_chunk(std::uint64_t chunk) {
    return *storage_[chunk % storage_.size()];
  }

  sim::SimDisk& mds_disk() { return *mds_disk_; }

 private:
  DfsClusterConfig config_;
  std::unique_ptr<sim::SimDisk> mds_disk_;
  std::unique_ptr<MetaServer> mds_;
  std::vector<std::unique_ptr<sim::SimDisk>> storage_disks_;
  std::vector<std::unique_ptr<StorageServer>> storage_;
};

}  // namespace pacon::dfs
