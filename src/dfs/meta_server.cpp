#include "dfs/meta_server.h"

#include <algorithm>

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
  inodes_.emplace(fs::kRootIno, Inode{.attr = root, .name = {}});
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
  if (!it->second.attr.is_dir()) {
    err = FsError::not_a_directory;
    return nullptr;
  }
  return &it->second.attr;
}

MetaServer::Dirents* MetaServer::dirents_of(fs::Ino dir) {
  auto it = dirents_.find(dir);
  return it == dirents_.end() ? nullptr : &it->second;
}

MetaServer::Dirent* MetaServer::find_dirent(Dirents* entries, const std::string& name) {
  if (entries == nullptr) return nullptr;
  return entries->find(sim::Rng::hash(name),
                       [&](const Dirent& d) { return d.inode->name == name; });
}

MetaResponse MetaServer::do_lookup(const MetaRequest& req) {
  MetaResponse resp;
  fs::InodeAttr* parent = find_dir(req.parent, resp.status);
  if (!parent) return resp;
  if (!fs::permits(parent->mode, parent->uid, parent->gid, req.creds, fs::Access::execute)) {
    resp.status = FsError::permission;
    return resp;
  }
  const Dirent* dirent = find_dirent(dirents_of(req.parent), req.name);
  if (dirent == nullptr) {
    resp.status = FsError::not_found;
    return resp;
  }
  resp.attr = dirent->inode->attr;
  return resp;
}

MetaResponse MetaServer::do_getattr(const MetaRequest& req) {
  MetaResponse resp;
  auto it = inodes_.find(req.ino);
  if (it == inodes_.end()) {
    resp.status = FsError::not_found;
    return resp;
  }
  resp.attr = it->second.attr;
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
  const auto [dirent, inserted] = dirents_[req.parent].try_emplace(
      sim::Rng::hash(req.name), [&](const Dirent& d) { return d.inode->name == req.name; },
      [] { return Dirent{}; });
  if (!inserted) {
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
  parent->mtime = sim_.now();
  if (req.type == fs::FileType::directory) ++parent->nlink;
  dirent->inode = &inodes_.emplace(child.ino, Inode{.attr = child, .name = req.name}).first->second;
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
  Dirent* dirent = find_dirent(entries, req.name);
  if (dirent == nullptr) {
    resp.status = FsError::not_found;
    return resp;
  }
  const fs::Ino child = dirent->inode->attr.ino;
  if (dirent->inode->attr.is_dir()) {
    resp.status = FsError::is_a_directory;
    return resp;
  }
  entries->erase(dirent);
  inodes_.erase(child);
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
  Dirent* dirent = find_dirent(entries, req.name);
  if (dirent == nullptr) {
    resp.status = FsError::not_found;
    return resp;
  }
  const fs::Ino child = dirent->inode->attr.ino;
  if (!dirent->inode->attr.is_dir()) {
    resp.status = FsError::not_a_directory;
    return resp;
  }
  auto child_entries = dirents_.find(child);
  if (child_entries != dirents_.end() && !child_entries->second.empty()) {
    resp.status = FsError::not_empty;
    return resp;
  }
  if (child_entries != dirents_.end()) dirents_.erase(child_entries);
  entries->erase(dirent);
  inodes_.erase(child);
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
  entries->for_each([&](const Dirent& d) {
    resp.entries.push_back(fs::DirEntry{d.inode->name, d.inode->attr.type});
  });
  std::ranges::sort(resp.entries, {}, &fs::DirEntry::name);
  return resp;
}

MetaResponse MetaServer::do_set_size(const MetaRequest& req) {
  MetaResponse resp;
  auto it = inodes_.find(req.ino);
  if (it == inodes_.end()) {
    resp.status = FsError::not_found;
    return resp;
  }
  fs::InodeAttr& attr = it->second.attr;
  if (attr.is_dir()) {
    resp.status = FsError::is_a_directory;
    return resp;
  }
  attr.size = std::max(attr.size, req.size);
  attr.mtime = sim_.now();
  resp.attr = attr;
  return resp;
}

}  // namespace pacon::dfs
