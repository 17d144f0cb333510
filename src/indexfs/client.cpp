#include "indexfs/client.h"

#include <algorithm>
#include <map>

#include "indexfs/codec.h"

namespace pacon::indexfs {

using fs::FsError;
using fs::FsResult;

namespace {

/// Client lookup-cache (lease) duration and capacity.
constexpr sim::SimDuration kLeaseTtl = 1_s;
constexpr std::size_t kLeaseCacheCapacity = 1024;

/// A transport failure reads as an io status, like any server-side error.
IfsResponse or_io(net::RpcResult<IfsResponse> r) {
  return r ? std::move(*r) : IfsResponse{.status = FsError::io};
}

}  // namespace

IndexFsClient::IndexFsClient(sim::Simulation& sim, IndexFsCluster& cluster, net::NodeId node,
                             fs::Credentials creds)
    : sim_(sim),
      cluster_(cluster),
      node_(node),
      creds_(creds),
      cache_(kLeaseCacheCapacity, kLeaseTtl) {
  // Bulk-minted inode numbers carry the client node in the high bits, offset
  // away from the server ranges.
  next_bulk_ino_ = (static_cast<fs::Ino>(node.value + 1) << 40) + (1ull << 39);
}

fs::InodeAttr IndexFsClient::root_attr() {
  fs::InodeAttr root;
  root.ino = fs::kRootIno;
  root.type = fs::FileType::directory;
  root.mode = fs::FileMode{0x7, 0x7, 0x7};
  root.nlink = 2;
  return root;
}

sim::Task<FsResult<fs::InodeAttr>> IndexFsClient::lookup_component(
    fs::Ino dir, const fs::InodeAttr& dir_attr, const std::string& name) {
  if (!fs::permits(dir_attr.mode, dir_attr.uid, dir_attr.gid, creds_, fs::Access::execute)) {
    co_return fs::fail(FsError::permission);
  }
  const std::uint64_t h = IndexFsCluster::name_hash(name);
  // A concurrent split can move the row between two probes of the fallback
  // chain; when that happened, walk the (updated) chain again.
  for (int attempt = 0; attempt < 4; ++attempt) {
    const std::uint64_t splits_before = cluster_.splits_completed();
    PartitionMap& map = cluster_.map_of(dir);
    // Try the owning partition, then the chain a stale writer may have used.
    for (const std::uint32_t p : map.fallback_chain(map.partition_of(h))) {
      if (!map.exists(p)) continue;
      IfsRequest req;
      req.op = IfsOp::lookup;
      req.dir = dir;
      req.partition = p;
      req.name = name;
      req.creds = creds_;
      ++rpcs_;
      const IfsResponse resp =
          or_io(co_await cluster_.server_for(dir, p).call(node_, std::move(req)));
      if (resp.status == FsError::ok) co_return resp.attr;
      if (resp.status != FsError::not_found) co_return fs::fail(resp.status);
    }
    if (cluster_.splits_completed() == splits_before) break;  // clean miss
    co_await cluster_.wait_for_split(dir);
  }
  co_return fs::fail(FsError::not_found);
}

sim::Task<FsResult<fs::InodeAttr>> IndexFsClient::resolve(const fs::Path& path) {
  fs::InodeAttr current = root_attr();
  if (path.is_root()) co_return current;
  const auto comps = path.components();

  std::size_t start = 0;
  {
    fs::Path probe = path;
    std::size_t remaining = comps.size();
    while (!probe.is_root()) {
      if (const fs::InodeAttr* hit = cache_.find(probe, sim_.now())) {
        current = *hit;
        start = remaining;
        break;
      }
      probe = probe.parent();
      --remaining;
    }
  }

  fs::Path walked;
  for (std::size_t i = 0; i < start; ++i) walked = walked.child(comps[i]);
  for (std::size_t i = start; i < comps.size(); ++i) {
    if (!current.is_dir()) co_return fs::fail(FsError::not_a_directory);
    auto next = co_await lookup_component(current.ino, current, std::string(comps[i]));
    if (!next) co_return next;
    current = *next;
    walked = walked.child(comps[i]);
    cache_.insert(walked, current, sim_.now());
  }
  co_return current;
}

sim::Task<FsResult<fs::InodeAttr>> IndexFsClient::create_common(const fs::Path& path,
                                                                fs::FileMode mode,
                                                                fs::FileType type) {
  if (!path.valid() || path.is_root()) co_return fs::fail(FsError::invalid);
  auto parent = co_await resolve(path.parent());
  if (!parent) co_return parent;
  if (!parent->is_dir()) co_return fs::fail(FsError::not_a_directory);
  if (!fs::permits(parent->mode, parent->uid, parent->gid, creds_, fs::Access::write)) {
    co_return fs::fail(FsError::permission);
  }
  const std::string name(path.name());
  PartitionMap& map = cluster_.map_of(parent->ino);
  std::uint32_t p = map.partition_of(IndexFsCluster::name_hash(name));
  while (cluster_.partition_splitting(parent->ino, p)) {
    co_await cluster_.wait_for_split(parent->ino);
    p = map.partition_of(IndexFsCluster::name_hash(name));
  }

  if (cluster_.config().bulk_insertion && type == fs::FileType::file) {
    fs::InodeAttr attr;
    attr.ino = next_bulk_ino_++;
    attr.type = type;
    attr.mode = mode;
    attr.uid = creds_.uid;
    attr.gid = creds_.gid;
    attr.ctime = sim_.now();
    attr.mtime = sim_.now();
    pending_.push_back(PendingRow{parent->ino, p, name, attr});
    cache_.insert(path, attr, sim_.now());
    if (pending_.size() >= cluster_.config().bulk_batch_size) {
      auto flushed = co_await flush();
      if (!flushed) co_return fs::fail(flushed.error());
    }
    co_return attr;
  }

  IfsRequest req;
  req.op = IfsOp::create;
  req.dir = parent->ino;
  req.partition = p;
  req.name = name;
  req.type = type;
  req.mode = mode;
  req.creds = creds_;
  ++rpcs_;
  const IfsResponse resp =
      or_io(co_await cluster_.server_for(parent->ino, p).call(node_, std::move(req)));
  if (resp.status != FsError::ok) co_return fs::fail(resp.status);
  cache_.insert(path, resp.attr, sim_.now());
  co_return resp.attr;
}

sim::Task<FsResult<fs::InodeAttr>> IndexFsClient::mkdir(const fs::Path& path,
                                                        fs::FileMode mode) {
  return create_common(path, mode, fs::FileType::directory);
}

sim::Task<FsResult<fs::InodeAttr>> IndexFsClient::create(const fs::Path& path,
                                                         fs::FileMode mode) {
  return create_common(path, mode, fs::FileType::file);
}

sim::Task<FsResult<fs::InodeAttr>> IndexFsClient::getattr(const fs::Path& path) {
  if (!path.valid()) co_return fs::fail(FsError::invalid);
  if (path.is_root()) co_return root_attr();
  // Lookup state (leases) caches the directory walk; attributes of the leaf
  // are always fetched fresh from the owning server.
  auto parent = co_await resolve(path.parent());
  if (!parent) co_return parent;
  if (!parent->is_dir()) co_return fs::fail(FsError::not_a_directory);
  auto leaf = co_await lookup_component(parent->ino, *parent, std::string(path.name()));
  if (leaf) cache_.insert(path, *leaf, sim_.now());
  co_return leaf;
}

sim::Task<FsResult<void>> IndexFsClient::unlink(const fs::Path& path) {
  if (!path.valid() || path.is_root()) co_return fs::fail(FsError::invalid);
  auto parent = co_await resolve(path.parent());
  if (!parent) co_return fs::fail(parent.error());
  if (!fs::permits(parent->mode, parent->uid, parent->gid, creds_, fs::Access::write)) {
    co_return fs::fail(FsError::permission);
  }
  const std::string name(path.name());
  const std::uint64_t h = IndexFsCluster::name_hash(name);
  for (int attempt = 0; attempt < 4; ++attempt) {
    // Deleting from a partition whose rows are being moved could race the
    // copy (resurrection); wait while the owning partition is in a split.
    while (cluster_.partition_splitting(parent->ino,
                                        cluster_.map_of(parent->ino).partition_of(h))) {
      co_await cluster_.wait_for_split(parent->ino);
    }
    const std::uint64_t splits_before = cluster_.splits_completed();
    PartitionMap& map = cluster_.map_of(parent->ino);
    for (const std::uint32_t p : map.fallback_chain(map.partition_of(h))) {
      if (!map.exists(p)) continue;
      IfsRequest req;
      req.op = IfsOp::unlink;
      req.dir = parent->ino;
      req.partition = p;
      req.name = name;
      req.creds = creds_;
      ++rpcs_;
      const IfsResponse resp =
          or_io(co_await cluster_.server_for(parent->ino, p).call(node_, std::move(req)));
      if (resp.status == FsError::ok) {
        cache_.erase(path);
        co_return FsResult<void>{};
      }
      if (resp.status != FsError::not_found) co_return fs::fail(resp.status);
    }
    if (cluster_.splits_completed() == splits_before) break;  // clean miss
  }
  co_return fs::fail(FsError::not_found);
}

sim::Task<FsResult<std::vector<fs::DirEntry>>> IndexFsClient::readdir(const fs::Path& path) {
  auto dir = co_await resolve(path);
  if (!dir) co_return fs::fail(dir.error());
  if (!dir->is_dir()) co_return fs::fail(FsError::not_a_directory);
  // A split may be mid-move: rows can appear in both source and target, and
  // the name-keyed merge below deduplicates them. Scan source partitions
  // last-ditch via live_partitions(), which always includes them.
  PartitionMap& map = cluster_.map_of(dir->ino);
  std::map<std::string, fs::FileType> merged;  // dedup across partitions
  for (const std::uint32_t p : map.live_partitions()) {
    IfsRequest req;
    req.op = IfsOp::scan_partition;
    req.dir = dir->ino;
    req.partition = p;
    req.creds = creds_;
    ++rpcs_;
    const IfsResponse resp =
        or_io(co_await cluster_.server_for(dir->ino, p).call(node_, std::move(req)));
    if (resp.status != FsError::ok) co_return fs::fail(resp.status);
    for (const auto& [name, attr] : resp.entries) {
      merged.emplace(name, attr.type);
    }
  }
  std::vector<fs::DirEntry> out;
  out.reserve(merged.size());
  for (const auto& [name, type] : merged) out.push_back(fs::DirEntry{name, type});
  co_return out;
}

sim::Task<FsResult<void>> IndexFsClient::rmdir(const fs::Path& path) {
  if (!path.valid() || path.is_root()) co_return fs::fail(FsError::invalid);
  auto dir = co_await resolve(path);
  if (!dir) co_return fs::fail(dir.error());
  if (!dir->is_dir()) co_return fs::fail(FsError::not_a_directory);
  auto entries = co_await readdir(path);
  if (!entries) co_return fs::fail(entries.error());
  if (!entries->empty()) co_return fs::fail(FsError::not_empty);
  // The dentry removal path is shared with unlink (rows are untyped).
  co_return co_await unlink(path);
}

sim::Task<FsResult<void>> IndexFsClient::flush() {
  if (pending_.empty()) co_return FsResult<void>{};
  // Group rows by destination server; one ingest RPC per server.
  std::map<std::size_t, std::vector<std::pair<std::string, std::string>>> by_server;
  std::map<std::size_t, IndexFsServer*> servers;
  for (const auto& row : pending_) {
    IndexFsServer& server = cluster_.server_for(row.dir, row.partition);
    const auto key = reinterpret_cast<std::size_t>(&server);
    by_server[key].emplace_back(
        IndexFsCluster::row_key(row.dir, row.partition, row.name), encode_attr(row.attr));
    servers[key] = &server;
  }
  pending_.clear();
  for (auto& [key, rows] : by_server) {
    IfsRequest req;
    req.op = IfsOp::ingest_rows;
    req.rows = std::move(rows);
    req.creds = creds_;
    ++rpcs_;
    const IfsResponse resp = or_io(co_await servers[key]->call(node_, std::move(req)));
    if (resp.status != FsError::ok) co_return fs::fail(resp.status);
  }
  co_return FsResult<void>{};
}

}  // namespace pacon::indexfs
