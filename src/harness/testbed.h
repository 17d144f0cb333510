// Experiment testbed: assembles a full deployment (simulation, fabric, DFS
// cluster, metadata system under test, client processes) behind the
// MetaClient facade so a workload runs unchanged on BeeGFS, IndexFS or
// Pacon.
//
// The paper's experiments ran on TIANHE-II: a 16-node client cluster
// (2x Xeon E5, 64 GB each, 20 mdtest clients per node) against BeeGFS with
// 1 MDS (Intel P3600 NVMe) + 3 storage servers. The simulated testbed's
// constants are not fitted to the paper's absolute numbers; they are
// plausible hardware/software figures chosen once, from which the *shapes*
// of the paper's figures emerge. Each sits beside its reader with its
// provenance note (net/fabric.h, dfs/meta_server.cpp, kv/memcache.cpp, ...).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/pacon.h"
#include "dfs/client.h"
#include "dfs/cluster.h"
#include "indexfs/client.h"
#include "indexfs/indexfs.h"
#include "net/fabric.h"
#include "obs/recorder.h"
#include "sim/simulation.h"
#include "workload/meta_client.h"

namespace pacon::harness {

enum class SystemKind { beegfs, indexfs, pacon };

constexpr const char* to_string(SystemKind k) {
  switch (k) {
    case SystemKind::beegfs: return "BeeGFS";
    case SystemKind::indexfs: return "IndexFS";
    case SystemKind::pacon: return "Pacon";
  }
  return "?";
}

struct TestBedConfig {
  SystemKind kind = SystemKind::beegfs;
  std::size_t client_nodes = 16;
  std::uint64_t seed = 1;
  /// Pacon region tuning overrides (root/nodes/creds filled per client).
  core::RegionConfig pacon_region{};
  /// IndexFS tuning overrides.
  indexfs::IndexFsConfig indexfs_cfg{};
};

/// One assembled deployment. Owns everything; create clients per workspace.
class TestBed {
 public:
  explicit TestBed(TestBedConfig config);
  /// Contributes a labelled metric snapshot to the global run report -- and,
  /// with the timeline enabled, this bed's flight-recorder ring to the
  /// global timeline -- when a bench enabled them (harness/run_report.h);
  /// otherwise does nothing extra.
  ~TestBed();
  TestBed(const TestBed&) = delete;
  TestBed& operator=(const TestBed&) = delete;

  sim::Simulation& sim() { return *sim_; }
  net::Fabric& fabric() { return *fabric_; }
  dfs::DfsCluster& dfs() { return *dfs_; }
  net::NodeId client_node(std::size_t i) const {
    return net::NodeId{static_cast<std::uint32_t>(i)};
  }

  /// Creates the workspace directory on the DFS (admin action).
  void provision_workspace(const std::string& path, fs::Credentials creds);

  /// Client for the system under test, homed on client node `node_index`.
  /// For Pacon, `workspace` and `region_nodes` define/join the consistent
  /// region (region_nodes empty = all client nodes).
  std::unique_ptr<wl::MetaClient> make_client(std::size_t node_index,
                                              const std::string& workspace,
                                              fs::Credentials creds,
                                              std::vector<std::size_t> region_nodes = {});

  /// Direct handle to the Pacon region of `workspace` (Pacon testbeds only).
  core::ConsistentRegion* pacon_region(const std::string& workspace);

  /// Lazily creates a LinkFaultMatrix (stream "link-faults" forked off this
  /// bed's seed), binds its per-link counters under the "fault" metric scope
  /// and installs it on the fabric. `global` applies on first call only;
  /// later calls return the same matrix for adding rules or link flips.
  sim::LinkFaultMatrix& link_faults(sim::MessageFaultConfig global = {});

  /// This bed's flight recorder, or nullptr when the timeline is off.
  obs::FlightRecorder* recorder() { return recorder_.get(); }

 private:
  TestBedConfig config_;
  std::unique_ptr<sim::Simulation> sim_;
  std::unique_ptr<net::Fabric> fabric_;
  std::unique_ptr<dfs::DfsCluster> dfs_;
  std::unique_ptr<indexfs::IndexFsCluster> indexfs_;
  std::unique_ptr<core::RegionRegistry> registry_;
  std::unique_ptr<sim::LinkFaultMatrix> link_faults_;
  // Declared after sim_ so it is destroyed first; a recorder must never
  // outlive the simulation it is installed on.
  std::unique_ptr<obs::FlightRecorder> recorder_;
};

}  // namespace pacon::harness
