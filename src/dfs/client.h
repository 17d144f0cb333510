// DFS client (BeeGFS-client substitute).
//
// Resolves paths against the MDS one component at a time -- the network cost
// that makes deep namespaces slow (paper Fig. 2) -- through a TTL'd LRU
// dentry cache that models the kernel-client cache: helpful for a hot shared
// parent directory, useless for random access over a large namespace. File
// data is striped over the storage servers in fixed-size chunks.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dfs/cluster.h"
#include "fs/error.h"
#include "fs/lru_cache.h"
#include "fs/path.h"
#include "fs/types.h"
#include "net/fabric.h"
#include "obs/span_id.h"
#include "sim/simulation.h"

namespace pacon::dfs {

struct DfsClientConfig {
  fs::Credentials creds{};
  std::size_t dentry_cache_capacity = 4096;
  /// Cached dentries are revalidated after this long -- the BeeGFS client's
  /// (short) entry-validity window under its strong-consistency contract.
  sim::SimDuration dentry_ttl = 2_ms;
};

class DfsClient {
 public:
  DfsClient(sim::Simulation& sim, DfsCluster& cluster, net::NodeId node,
            DfsClientConfig config = {});
  DfsClient(const DfsClient&) = delete;
  DfsClient& operator=(const DfsClient&) = delete;

  net::NodeId node() const { return node_; }

  // Metadata operations (all paths absolute & canonical). The optional
  // trailing `span` is the caller's tracing context: traced ops get a
  // "dfs.<op>" child span covering resolution + the MDS round trips.
  // lint-allow: coro-param-ref plain function: copies the path into make_entry before returning
  sim::Task<fs::FsResult<fs::InodeAttr>> mkdir(const fs::Path& path, fs::FileMode mode,
                                               obs::SpanId span = obs::kNoSpan);
  // lint-allow: coro-param-ref plain function: copies the path into make_entry before returning
  sim::Task<fs::FsResult<fs::InodeAttr>> create(const fs::Path& path, fs::FileMode mode,
                                                obs::SpanId span = obs::kNoSpan);
  sim::Task<fs::FsResult<fs::InodeAttr>> getattr(const fs::Path& path,
                                                 obs::SpanId span = obs::kNoSpan);
  // lint-allow: coro-param-ref plain function: copies the path into remove_entry before returning
  sim::Task<fs::FsResult<void>> unlink(const fs::Path& path, obs::SpanId span = obs::kNoSpan);
  // lint-allow: coro-param-ref plain function: copies the path into remove_entry before returning
  sim::Task<fs::FsResult<void>> rmdir(const fs::Path& path, obs::SpanId span = obs::kNoSpan);
  sim::Task<fs::FsResult<std::vector<fs::DirEntry>>> readdir(const fs::Path& path,
                                                             obs::SpanId span = obs::kNoSpan);

  // Data operations; payloads are sizes (contents are not simulated).
  sim::Task<fs::FsResult<std::uint64_t>> write(const fs::Path& path, std::uint64_t offset,
                                               std::uint64_t length,
                                               obs::SpanId span = obs::kNoSpan);
  sim::Task<fs::FsResult<std::uint64_t>> read(const fs::Path& path, std::uint64_t offset,
                                              std::uint64_t length,
                                              obs::SpanId span = obs::kNoSpan);
  /// Durability barrier; our writes are write-through, so this only verifies
  /// the file still exists (one MDS round trip, as the real client fsync
  /// costs at least that).
  sim::Task<fs::FsResult<void>> fsync(const fs::Path& path, obs::SpanId span = obs::kNoSpan);

  /// Drops every cached dentry (tests and failure handling).
  void invalidate_cache() { dentries_.clear(); }

  std::uint64_t lookup_rpcs() const { return lookup_rpcs_; }
  std::uint64_t meta_rpcs() const { return meta_rpcs_; }
  std::uint64_t data_rpcs() const { return data_rpcs_; }
  std::uint64_t dentry_hits() const { return dentries_.hits(); }

 private:
  /// What the dentry cache keeps of a resolved component: all that path
  /// walking and the data ops read from it.
  struct Dentry {
    fs::Ino ino = fs::kInvalidIno;
    fs::FileType type = fs::FileType::file;
  };
  static Dentry dentry_of(const fs::InodeAttr& attr) { return {attr.ino, attr.type}; }

  /// Resolves `path` to its attributes via cached prefixes + lookup RPCs.
  /// A leaf served from the cache carries only its ino and type.
  /// `fresh_leaf` forces the final component over the wire even when cached:
  /// stat must return current attributes, so only intermediate directories
  /// benefit from the dentry cache (matching the real client).
  sim::Task<fs::FsResult<fs::InodeAttr>> resolve(const fs::Path& path, bool fresh_leaf = false,
                                                 obs::SpanId span = obs::kNoSpan);
  /// Resolve, requiring the result to be a directory.
  sim::Task<fs::FsResult<fs::InodeAttr>> resolve_dir(const fs::Path& path,
                                                     obs::SpanId span = obs::kNoSpan);

  /// mkdir and create: one MDS create of `type` under the resolved parent.
  sim::Task<fs::FsResult<fs::InodeAttr>> make_entry(fs::Path path, fs::FileType type,
                                                    fs::FileMode mode, obs::SpanId span);
  /// unlink and rmdir (`op_kind`): one MDS removal under the resolved parent.
  sim::Task<fs::FsResult<void>> remove_entry(fs::Path path, MetaOp op_kind, obs::SpanId span);

  /// read and write: one data_call per chunk that [offset, offset + length)
  /// touches.
  std::vector<sim::Task<DataResponse>> chunk_calls(DataOp kind, fs::Ino ino, std::uint64_t offset,
                                                   std::uint64_t length, obs::SpanId span);

  /// The file's size from one MDS getattr of `ino`: what tells a short read
  /// at end of file from one over a hole, and fsync's existence check.
  sim::Task<fs::FsResult<std::uint64_t>> size_of(fs::Ino ino, obs::SpanId span);

  /// The client's two RPC helpers: a transport failure comes back as a
  /// response with status FsError::io (the MDS and storage servers never
  /// answer io themselves).
  sim::Task<MetaResponse> meta_call(MetaRequest req, obs::SpanId span = obs::kNoSpan);
  sim::Task<DataResponse> data_call(DataRequest req, obs::SpanId span);

  sim::Simulation& sim_;
  DfsCluster& cluster_;
  net::NodeId node_;
  DfsClientConfig config_;

  fs::PathCache<Dentry> dentries_;
  std::uint64_t lookup_rpcs_ = 0;
  std::uint64_t meta_rpcs_ = 0;
  std::uint64_t data_rpcs_ = 0;
};

}  // namespace pacon::dfs
