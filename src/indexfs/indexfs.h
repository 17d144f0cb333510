// IndexFS-like metadata middleware (the paper's main baseline).
//
// Architecture reproduced from Ren et al., SC'14, at the level the paper's
// comparison depends on:
//   * one metadata server per client node, each storing flattened
//     (directory-ino, name) -> attributes rows in its own LSM store whose
//     "disk" is BeeGFS-backed (higher latency than a local device);
//   * GIGA+-style incremental directory partitioning: a directory starts in
//     one partition on one server and splits (doubling its partition count,
//     moving half the rows) as it grows, so a create storm on a fresh shared
//     directory first hammers one server and spreads out over time;
//   * clients resolve paths component by component with a lease-style
//     lookup cache, and every mutation is a synchronous RPC (strong
//     consistency at the server);
//   * optional bulk-insertion mode (the BatchFS/DeltaFS ancestor feature):
//     creates buffer client-side and land as one ingested SSTable.
//
// Simplifications vs the real system (documented in DESIGN.md): the GIGA+
// partition maps live in a cluster-shared registry instead of being gossiped
// through client redirects, and permission checks ride on the client's
// cached attributes rather than server-side lease state.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "fs/error.h"
#include "fs/path.h"
#include "fs/types.h"
#include "lsm/lsm.h"
#include "net/fabric.h"
#include "net/rpc.h"
#include "sim/disk.h"
#include "sim/simulation.h"
#include "sim/sync.h"

namespace pacon::indexfs {

using namespace sim::literals;

struct IndexFsConfig {
  /// Rows in one GIGA+ partition before it splits.
  std::uint64_t split_threshold = 512;
  /// Client-side bulk insertion (BatchFS approximation).
  bool bulk_insertion = false;
  std::size_t bulk_batch_size = 512;
};

/// Operations of the metadata protocol.
enum class IfsOp : std::uint8_t { lookup, create, unlink, scan_partition, ingest_rows };

struct IfsRequest {
  IfsOp op = IfsOp::lookup;
  fs::Ino dir = fs::kInvalidIno;
  std::uint32_t partition = 0;
  std::string name;
  fs::FileType type = fs::FileType::file;
  fs::FileMode mode{};
  fs::Credentials creds{};
  /// ingest_rows payload: pre-encoded (key, value) rows.
  std::vector<std::pair<std::string, std::string>> rows;
};

struct IfsResponse {
  fs::FsError status = fs::FsError::ok;
  fs::InodeAttr attr{};
  std::vector<std::pair<std::string, fs::InodeAttr>> entries{};
};

/// GIGA+ partition tree of one directory.
class PartitionMap {
 public:
  explicit PartitionMap(std::uint32_t max_depth);

  /// Partition owning `name_hash` under the current tree.
  std::uint32_t partition_of(std::uint64_t name_hash) const;

  /// Ancestor chain of partition `p` (p itself first, then the partitions a
  /// stale writer might have used), for straggler lookups.
  std::vector<std::uint32_t> fallback_chain(std::uint32_t p) const;

  bool exists(std::uint32_t p) const { return exists_[p]; }
  std::uint32_t depth_of(std::uint32_t p) const { return depths_[p]; }
  std::uint64_t count_of(std::uint32_t p) const { return counts_[p]; }
  std::uint32_t partition_count() const { return live_; }
  std::vector<std::uint32_t> live_partitions() const;

  void note_insert(std::uint32_t p) { ++counts_[p]; }
  void note_remove(std::uint32_t p) {
    if (counts_[p] > 0) --counts_[p];
  }

  /// True when partition `p` should split now.
  bool should_split(std::uint32_t p, std::uint64_t threshold, std::uint32_t max_depth) const;

  /// Registers the split of `source`; returns the new partition index.
  std::uint32_t apply_split(std::uint32_t source, std::uint64_t moved);

 private:
  std::uint32_t max_depth_;
  std::vector<bool> exists_;
  std::vector<std::uint32_t> depths_;
  std::vector<std::uint64_t> counts_;
  std::uint32_t live_ = 1;
};

class IndexFsCluster;

/// One metadata server co-located with a client node.
class IndexFsServer {
 public:
  IndexFsServer(sim::Simulation& sim, net::Fabric& fabric, net::NodeId node,
                IndexFsCluster& cluster);
  IndexFsServer(const IndexFsServer&) = delete;
  IndexFsServer& operator=(const IndexFsServer&) = delete;

  net::NodeId node() const { return node_; }
  lsm::LsmStore& store() { return *store_; }

  sim::Task<net::RpcResult<IfsResponse>> call(net::NodeId from, IfsRequest req) {
    return rpc_->call(from, std::move(req));
  }

  std::uint64_t ops_served() const { return ops_served_; }

 private:
  friend class IndexFsCluster;
  sim::Task<IfsResponse> handle(IfsRequest req);
  sim::Task<IfsResponse> do_lookup(const IfsRequest& req);
  sim::Task<IfsResponse> do_create(const IfsRequest& req);
  sim::Task<IfsResponse> do_unlink(const IfsRequest& req);
  sim::Task<IfsResponse> do_scan(const IfsRequest& req);

  sim::Simulation& sim_;
  net::NodeId node_;
  IndexFsCluster& cluster_;
  std::unique_ptr<sim::SimDisk> disk_;
  std::unique_ptr<lsm::LsmStore> store_;
  fs::Ino next_ino_;
  std::uint64_t ops_served_ = 0;
  std::unique_ptr<net::RpcService<IfsRequest, IfsResponse>> rpc_;
};

/// The deployment: servers on every client node plus the partition registry.
class IndexFsCluster {
 public:
  IndexFsCluster(sim::Simulation& sim, net::Fabric& fabric, IndexFsConfig config = {});
  IndexFsCluster(const IndexFsCluster&) = delete;
  IndexFsCluster& operator=(const IndexFsCluster&) = delete;

  IndexFsServer& add_server(net::NodeId node);
  std::size_t server_count() const { return servers_.size(); }
  IndexFsServer& server(std::size_t i) { return *servers_[i]; }
  const IndexFsConfig& config() const { return config_; }
  sim::Simulation& simulation() { return sim_; }

  /// Server hosting partition `p` of directory `dir`.
  IndexFsServer& server_for(fs::Ino dir, std::uint32_t partition);

  /// Partition map of `dir` (created on first touch).
  PartitionMap& map_of(fs::Ino dir);

  /// Blocks while `dir` has a split in flight (called on the op path).
  sim::Task<> wait_for_split(fs::Ino dir);

  /// True when a split of `dir` is active and `partition` is its source or
  /// target. Mutations of affected partitions must wait (wait_for_split);
  /// reads never wait -- the fallback chain finds rows mid-move.
  bool partition_splitting(fs::Ino dir, std::uint32_t partition) const;

  /// Called by servers after inserts; may spawn a background split.
  void note_insert(fs::Ino dir, std::uint32_t partition);
  void note_remove(fs::Ino dir, std::uint32_t partition);

  /// LSM row-key prefix of (dir, partition).
  static std::string partition_prefix(fs::Ino dir, std::uint32_t partition);
  static std::string row_key(fs::Ino dir, std::uint32_t partition, std::string_view name);
  static std::uint64_t name_hash(std::string_view name);

  std::uint64_t splits_completed() const { return splits_completed_; }

 private:
  struct DirState {
    PartitionMap map;
    bool splitting = false;
    std::uint32_t split_source = 0;
    std::uint32_t split_target = 0;
    std::unique_ptr<sim::Gate> split_gate;
    explicit DirState(std::uint32_t max_depth) : map(max_depth) {}
  };

  sim::Task<> run_split(fs::Ino dir, std::uint32_t source);

  sim::Simulation& sim_;
  net::Fabric& fabric_;
  IndexFsConfig config_;
  std::vector<std::unique_ptr<IndexFsServer>> servers_;
  std::unordered_map<fs::Ino, std::unique_ptr<DirState>> dirs_;
  std::uint64_t splits_completed_ = 0;
};

}  // namespace pacon::indexfs
