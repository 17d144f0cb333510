#include "dfs/meta_server.h"

#include <cassert>

namespace pacon::dfs {

using fs::FsError;

namespace {

// MDS service: BeeGFS meta operations involve locking, dentry + inode
// updates and journaling; tens of kilo-ops/s per MDS is the published
// ballpark for one NVMe-backed MDS. 8 workers x ~95 us per mutation
// saturate near ~80 kops/s of writes; reads are cheaper.

/// CPU service time for a pure-read operation (lookup/getattr/readdir).
constexpr sim::SimDuration kReadCpuTime = 18_us;
/// CPU service time for a namespace mutation: lock acquisition, dentry +
/// inode updates and RPC bookkeeping.
constexpr sim::SimDuration kWriteCpuTime = 95_us;
/// Bytes journaled per mutation.
constexpr std::uint64_t kWalRecordBytes = 192;
/// Extra readdir CPU per directory entry returned.
constexpr sim::SimDuration kPerEntryCpuTime = 150_ns;
/// Server-side metadata cache capacity (inodes); misses read from disk.
constexpr std::size_t kCacheCapacity = 200'000;
/// RPC worker pool (MDS request-handler threads) and its accept queue.
constexpr std::size_t kWorkers = 8;
constexpr std::size_t kQueueCapacity = 4096;

}  // namespace

MetaServer::MetaServer(sim::Simulation& sim, net::Fabric& fabric, net::NodeId node,
                       sim::SimDisk& disk)
    : sim_(sim), node_(node), disk_(disk), cache_(kCacheCapacity) {
  // Inode numbers carry the MDS node id in their high bits.
  next_ino_ = (static_cast<fs::Ino>(node.value + 1) << 40) + 1;
  net::RpcService<MetaRequest, MetaResponse>::Config rpc_cfg;
  rpc_cfg.workers = kWorkers;
  rpc_cfg.queue_capacity = kQueueCapacity;
  rpc_ = std::make_unique<net::RpcService<MetaRequest, MetaResponse>>(
      sim, fabric, node, [this](MetaRequest req) { return handle(std::move(req)); }, rpc_cfg);
}

void MetaServer::install_root() {
  fs::InodeAttr root;
  root.ino = fs::kRootIno;
  root.type = fs::FileType::directory;
  // World-writable scratch root, as HPC shared filesystems are deployed:
  // applications create their own workspace directories under it.
  root.mode = fs::FileMode{0x7, 0x7, 0x7};
  root.nlink = 2;
  inodes_.emplace(fs::kRootIno, root);
}

sim::Task<MetaResponse> MetaServer::handle(MetaRequest req) {
  const bool mutation = req.op == MetaOp::create || req.op == MetaOp::unlink ||
                        req.op == MetaOp::rmdir || req.op == MetaOp::set_size;
  co_await sim_.delay(mutation ? kWriteCpuTime : kReadCpuTime);
  // Charge a disk read if the touched directory inode is cold.
  const fs::Ino hot_ino = req.op == MetaOp::getattr || req.op == MetaOp::readdir ||
                                  req.op == MetaOp::set_size
                              ? req.ino
                              : req.parent;
  co_await charge_cache(hot_ino);
  MetaResponse resp = apply(req);
  if (mutation && resp.status == FsError::ok) {
    co_await disk_.write(kWalRecordBytes);
  }
  if (req.op == MetaOp::readdir && resp.status == FsError::ok) {
    co_await sim_.delay(static_cast<sim::SimDuration>(resp.entries.size()) * kPerEntryCpuTime);
  }
  ++ops_served_;
  co_return resp;
}

sim::Task<> MetaServer::charge_cache(fs::Ino ino) {
  if (ino == fs::kInvalidIno || cache_.find(ino, sim_.now())) co_return;
  co_await disk_.read(4096);
  cache_.insert(ino, {}, sim_.now());
}

MetaResponse MetaServer::apply(const MetaRequest& req) {
  switch (req.op) {
    case MetaOp::lookup: return do_lookup(req);
    case MetaOp::getattr: return do_getattr(req);
    case MetaOp::create: return do_create(req);
    case MetaOp::unlink: return do_unlink(req);
    case MetaOp::rmdir: return do_rmdir(req);
    case MetaOp::readdir: return do_readdir(req);
    case MetaOp::set_size: return do_set_size(req);
  }
  MetaResponse resp;
  resp.status = FsError::unsupported;
  return resp;
}

fs::InodeAttr* MetaServer::find_dir(fs::Ino ino, FsError& err) {
  auto it = inodes_.find(ino);
  if (it == inodes_.end()) {
    err = FsError::not_found;
    return nullptr;
  }
  if (!it->second.is_dir()) {
    err = FsError::not_a_directory;
    return nullptr;
  }
  return &it->second;
}

MetaServer::Dirents* MetaServer::dirents_of(fs::Ino dir) {
  auto it = dirents_.find(dir);
  return it == dirents_.end() ? nullptr : &it->second;
}

MetaResponse MetaServer::do_lookup(const MetaRequest& req) {
  MetaResponse resp;
  fs::InodeAttr* parent = find_dir(req.parent, resp.status);
  if (!parent) return resp;
  if (!fs::permits(parent->mode, parent->uid, parent->gid, req.creds, fs::Access::execute)) {
    resp.status = FsError::permission;
    return resp;
  }
  Dirents* entries = dirents_of(req.parent);
  auto it = entries != nullptr ? entries->find(req.name) : Dirents::iterator{};
  if (entries == nullptr || it == entries->end()) {
    resp.status = FsError::not_found;
    return resp;
  }
  const auto child = inodes_.find(it->second);
  assert(child != inodes_.end());
  resp.attr = child->second;
  return resp;
}

MetaResponse MetaServer::do_getattr(const MetaRequest& req) {
  MetaResponse resp;
  auto it = inodes_.find(req.ino);
  if (it == inodes_.end()) {
    resp.status = FsError::not_found;
    return resp;
  }
  resp.attr = it->second;
  return resp;
}

MetaResponse MetaServer::do_create(const MetaRequest& req) {
  MetaResponse resp;
  fs::InodeAttr* parent = find_dir(req.parent, resp.status);
  if (!parent) return resp;
  if (!fs::permits(parent->mode, parent->uid, parent->gid, req.creds, fs::Access::write) ||
      !fs::permits(parent->mode, parent->uid, parent->gid, req.creds, fs::Access::execute)) {
    resp.status = FsError::permission;
    return resp;
  }
  Dirents& entries = dirents_[req.parent];
  if (entries.contains(req.name)) {
    resp.status = FsError::exists;
    return resp;
  }
  fs::InodeAttr child;
  child.ino = next_ino_++;
  child.type = req.type;
  child.mode = req.mode;
  child.uid = req.creds.uid;
  child.gid = req.creds.gid;
  child.nlink = req.type == fs::FileType::directory ? 2 : 1;
  child.ctime = sim_.now();
  child.mtime = sim_.now();
  resp.attr = child;
  entries.emplace(req.name, child.ino);
  parent->mtime = sim_.now();
  if (req.type == fs::FileType::directory) ++parent->nlink;
  inodes_.emplace(child.ino, child);
  return resp;
}

MetaResponse MetaServer::do_unlink(const MetaRequest& req) {
  MetaResponse resp;
  fs::InodeAttr* parent = find_dir(req.parent, resp.status);
  if (!parent) return resp;
  if (!fs::permits(parent->mode, parent->uid, parent->gid, req.creds, fs::Access::write)) {
    resp.status = FsError::permission;
    return resp;
  }
  Dirents* entries = dirents_of(req.parent);
  auto it = entries != nullptr ? entries->find(req.name) : Dirents::iterator{};
  if (entries == nullptr || it == entries->end()) {
    resp.status = FsError::not_found;
    return resp;
  }
  auto child = inodes_.find(it->second);
  assert(child != inodes_.end());
  if (child->second.is_dir()) {
    resp.status = FsError::is_a_directory;
    return resp;
  }
  inodes_.erase(child);
  entries->erase(it);
  parent->mtime = sim_.now();
  return resp;
}

MetaResponse MetaServer::do_rmdir(const MetaRequest& req) {
  MetaResponse resp;
  fs::InodeAttr* parent = find_dir(req.parent, resp.status);
  if (!parent) return resp;
  if (!fs::permits(parent->mode, parent->uid, parent->gid, req.creds, fs::Access::write)) {
    resp.status = FsError::permission;
    return resp;
  }
  Dirents* entries = dirents_of(req.parent);
  auto it = entries != nullptr ? entries->find(req.name) : Dirents::iterator{};
  if (entries == nullptr || it == entries->end()) {
    resp.status = FsError::not_found;
    return resp;
  }
  auto child = inodes_.find(it->second);
  assert(child != inodes_.end());
  if (!child->second.is_dir()) {
    resp.status = FsError::not_a_directory;
    return resp;
  }
  auto child_entries = dirents_.find(child->first);
  if (child_entries != dirents_.end() && !child_entries->second.empty()) {
    resp.status = FsError::not_empty;
    return resp;
  }
  if (child_entries != dirents_.end()) dirents_.erase(child_entries);
  inodes_.erase(child);
  entries->erase(it);
  parent->mtime = sim_.now();
  --parent->nlink;
  return resp;
}

MetaResponse MetaServer::do_readdir(const MetaRequest& req) {
  MetaResponse resp;
  if (!find_dir(req.ino, resp.status)) return resp;
  const Dirents* entries = dirents_of(req.ino);
  if (entries == nullptr) return resp;
  resp.entries.reserve(entries->size());
  for (const auto& [name, ino] : *entries) {
    const auto child = inodes_.find(ino);
    assert(child != inodes_.end());
    resp.entries.push_back(fs::DirEntry{name, child->second.type});
  }
  return resp;
}

MetaResponse MetaServer::do_set_size(const MetaRequest& req) {
  MetaResponse resp;
  auto it = inodes_.find(req.ino);
  if (it == inodes_.end()) {
    resp.status = FsError::not_found;
    return resp;
  }
  if (it->second.is_dir()) {
    resp.status = FsError::is_a_directory;
    return resp;
  }
  it->second.size = std::max(it->second.size, req.size);
  it->second.mtime = sim_.now();
  resp.attr = it->second;
  return resp;
}

}  // namespace pacon::dfs
