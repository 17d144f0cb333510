// IndexFS client: lease-cached path resolution over partitioned servers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fs/error.h"
#include "fs/lru_cache.h"
#include "fs/path.h"
#include "fs/types.h"
#include "indexfs/indexfs.h"

namespace pacon::indexfs {

class IndexFsClient {
 public:
  IndexFsClient(sim::Simulation& sim, IndexFsCluster& cluster, net::NodeId node,
                fs::Credentials creds = {});
  IndexFsClient(const IndexFsClient&) = delete;
  IndexFsClient& operator=(const IndexFsClient&) = delete;

  net::NodeId node() const { return node_; }

  sim::Task<fs::FsResult<fs::InodeAttr>> mkdir(const fs::Path& path, fs::FileMode mode);
  sim::Task<fs::FsResult<fs::InodeAttr>> create(const fs::Path& path, fs::FileMode mode);
  sim::Task<fs::FsResult<fs::InodeAttr>> getattr(const fs::Path& path);
  sim::Task<fs::FsResult<void>> unlink(const fs::Path& path);
  sim::Task<fs::FsResult<void>> rmdir(const fs::Path& path);
  sim::Task<fs::FsResult<std::vector<fs::DirEntry>>> readdir(const fs::Path& path);

  /// Bulk-insertion mode: pending creates buffered client-side; flush() sends
  /// them as ingested SSTable rows (BatchFS-style). No-op otherwise.
  sim::Task<fs::FsResult<void>> flush();

  std::uint64_t rpcs_sent() const { return rpcs_; }
  std::uint64_t lease_hits() const { return cache_.hits(); }
  void invalidate_cache() { cache_.clear(); }

 private:
  struct PendingRow {
    fs::Ino dir;
    std::uint32_t partition;
    std::string name;
    fs::InodeAttr attr;
  };

  sim::Task<fs::FsResult<fs::InodeAttr>> resolve(const fs::Path& path);
  sim::Task<fs::FsResult<fs::InodeAttr>> lookup_component(fs::Ino dir,
                                                          const fs::InodeAttr& dir_attr,
                                                          const std::string& name);
  sim::Task<fs::FsResult<fs::InodeAttr>> create_common(const fs::Path& path, fs::FileMode mode,
                                                       fs::FileType type);
  static fs::InodeAttr root_attr();

  sim::Simulation& sim_;
  IndexFsCluster& cluster_;
  net::NodeId node_;
  fs::Credentials creds_;
  fs::PathCache<fs::InodeAttr> cache_;
  std::vector<PendingRow> pending_;
  fs::Ino next_bulk_ino_;
  std::uint64_t rpcs_ = 0;
};

}  // namespace pacon::indexfs
