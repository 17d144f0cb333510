#include "dfs/cluster.h"

#include <cassert>

namespace pacon::dfs {

DfsCluster::DfsCluster(sim::Simulation& sim, net::Fabric& fabric, DfsClusterConfig config)
    : config_(std::move(config)) {
  assert(!config_.storage_nodes.empty());
  mds_disk_ = std::make_unique<sim::SimDisk>(sim, sim::DiskConfig::nvme());
  mds_ = std::make_unique<MetaServer>(sim, fabric, config_.mds_node, *mds_disk_);
  mds_->install_root();
  for (const auto node : config_.storage_nodes) {
    storage_disks_.push_back(std::make_unique<sim::SimDisk>(sim, sim::DiskConfig::nvme()));
    storage_.push_back(std::make_unique<StorageServer>(sim, fabric, node, *storage_disks_.back()));
  }
}

}  // namespace pacon::dfs
