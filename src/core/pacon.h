// Pacon public API: the library an HPC application links against
// (paper Section III.B).
//
// An application configures Pacon with its workspace path and the nodes it
// runs on; Pacon launches (or joins) the workspace's consistent region --
// distributed metadata cache, commit queues, permission table -- and then
// serves basic file interfaces. Operations on paths inside the workspace go
// through the region (strong consistency); operations on merged regions are
// served read-only from their caches; anything else is redirected to the
// underlying DFS (weak consistency), subject to the DFS's own checks.
//
// Every operation reports failure as an errno-style FsError (Table I). A
// downed node or a lost message is FsError::io: each RPC client maps a
// transport failure into its response status, so nothing below this API
// throws.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <variant>
#include <vector>

#include "core/region.h"
#include "dfs/client.h"
#include "fs/lru_cache.h"

namespace pacon::core {

/// Owns every consistent region of the deployment and resolves which region
/// (if any) governs a path. In the prototype this is the directory service
/// applications query when merging regions.
class RegionRegistry {
 public:
  RegionRegistry(sim::Simulation& sim, net::Fabric& fabric, dfs::DfsCluster& dfs)
      : sim_(sim), fabric_(fabric), dfs_(dfs) {}
  RegionRegistry(const RegionRegistry&) = delete;
  RegionRegistry& operator=(const RegionRegistry&) = delete;

  sim::Simulation& sim() { return sim_; }
  net::Fabric& fabric() { return fabric_; }
  dfs::DfsCluster& dfs() { return dfs_; }

  /// Returns the region rooted at `config.root`, creating it on first use.
  /// Overlapping workspaces resolve to the enclosing region (paper use case
  /// 3: treat both applications as running in the larger region).
  ConsistentRegion& get_or_create(const RegionConfig& config);

  /// Region rooted exactly at `root`, or nullptr.
  ConsistentRegion* by_root(const fs::Path& root);

  /// Deepest region whose workspace contains `path`, or nullptr.
  ConsistentRegion* containing(const fs::Path& path);

  std::size_t region_count() const { return regions_.size(); }

 private:
  sim::Simulation& sim_;
  net::Fabric& fabric_;
  dfs::DfsCluster& dfs_;
  // lint-allow: path-key-map cold registry (one entry per workspace, ordered prefix walks)
  std::map<fs::Path, std::unique_ptr<ConsistentRegion>> regions_;
};

class Pacon {
 public:
  /// Initializes Pacon for one application process on `node`, launching
  /// the region of workspace `config.root` or joining it if it runs already.
  Pacon(RegionRegistry& registry, net::NodeId node, const RegionConfig& config);
  Pacon(const Pacon&) = delete;
  Pacon& operator=(const Pacon&) = delete;

  net::NodeId node() const { return node_; }
  ConsistentRegion& region() { return *region_; }

  // ---- Basic file interfaces (paper Table I) ------------------------------

  sim::Task<fs::FsResult<void>> mkdir(const fs::Path& path, fs::FileMode mode);
  sim::Task<fs::FsResult<void>> create(const fs::Path& path, fs::FileMode mode);
  sim::Task<fs::FsResult<fs::InodeAttr>> getattr(const fs::Path& path);
  sim::Task<fs::FsResult<void>> remove(const fs::Path& path);
  sim::Task<fs::FsResult<void>> rmdir(const fs::Path& path);
  sim::Task<fs::FsResult<std::vector<fs::DirEntry>>> readdir(const fs::Path& path);
  sim::Task<fs::FsResult<std::uint64_t>> write(const fs::Path& path, std::uint64_t offset,
                                               std::uint64_t length);
  sim::Task<fs::FsResult<std::uint64_t>> read(const fs::Path& path, std::uint64_t offset,
                                              std::uint64_t length);
  sim::Task<fs::FsResult<void>> fsync(const fs::Path& path);

  // ---- Consistent-region operations (paper Section III.D.4, III.G) --------

  /// Grants this application a consistent read-only view of another
  /// workspace by connecting to its region (merge interface).
  sim::Task<fs::FsResult<void>> merge_region(const fs::Path& other_root);

  /// Checkpoints the workspace subtree; returns the checkpoint id.
  sim::Task<fs::FsResult<std::uint64_t>> checkpoint();

  /// Rolls the workspace back to a checkpoint and rebuilds the cache.
  sim::Task<fs::FsResult<void>> restore(std::uint64_t id);

  /// Client-node failure handling (paper Section III): detaches `failed`
  /// from the region and rolls the workspace back to the newest checkpoint.
  sim::Task<fs::FsResult<void>> recover_node_failure(net::NodeId failed);

  /// Waits until every queued operation reached the DFS.
  sim::Task<> drain();

 private:
  /// Where `path` is served: the own region, a merged region (reads only),
  /// or nullptr for the DFS. A mutation under a merged region is
  /// FsError::permission (Section III.D.4: merged regions are read-only).
  fs::FsResult<ConsistentRegion*> region_for(const fs::Path& path, bool mutates);

  void refresh_hints();

  RegionRegistry& registry_;
  net::NodeId node_;
  ConsistentRegion* region_;
  std::uint32_t client_id_;
  std::vector<ConsistentRegion*> merged_;
  std::unique_ptr<dfs::DfsClient> dfs_fallback_;
  // Parents this client recently confirmed: they save the cache round trip
  // on back-to-back creates in one directory. Invalidated region-wide
  // whenever anything is removed (hints_valid_at_). Keyed by the
  // Path-cached parent hash: hints are probed per create, and the hash key
  // skips the per-op string copy/compare. A hash collision (~2^-64 per
  // resident pair) yields a wrong hint, which callers already tolerate as a
  // stale one.
  fs::LruTtlCache<std::uint64_t, std::monostate> parent_hints_;
  std::uint64_t hints_valid_at_;  // region invalidation counter snapshot
};

}  // namespace pacon::core
