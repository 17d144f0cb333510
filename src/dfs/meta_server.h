// Centralized metadata server (one MDS of the BeeGFS-like DFS).
//
// Owns the whole namespace: directory entries and inode attributes, held in
// real maps and persisted through a simulated write-ahead log on the
// MDS disk. Every mutation pays CPU service time plus a WAL write; lookups
// pay CPU plus, for inodes that fell out of the server-side metadata cache,
// a disk read. The bounded RPC worker pool makes an overloaded MDS queue --
// which is exactly the client-scalability wall the paper measures (Fig. 1).
#pragma once

#include <cstdint>
#include <string>
#include <memory>
#include <unordered_map>
#include <variant>

#include "dfs/protocol.h"
#include "fs/flat_table.h"
#include "fs/lru_cache.h"
#include "net/fabric.h"
#include "net/rpc.h"
#include "sim/disk.h"
#include "sim/simulation.h"

namespace pacon::dfs {

using namespace sim::literals;

class MetaServer {
 public:
  MetaServer(sim::Simulation& sim, net::Fabric& fabric, net::NodeId node, sim::SimDisk& disk);
  MetaServer(const MetaServer&) = delete;
  MetaServer& operator=(const MetaServer&) = delete;

  net::NodeId node() const { return node_; }

  sim::Task<net::RpcResult<MetaResponse>> call(net::NodeId from, MetaRequest req,
                                               obs::SpanId parent = obs::kNoSpan) {
    return rpc_->call(from, std::move(req), parent);
  }

  /// Installs the root inode (a cluster's single MDS calls this once).
  void install_root();

  // Introspection.
  std::size_t inode_count() const { return inodes_.size(); }
  std::uint64_t cache_misses() const { return cache_.misses(); }
  std::uint64_t ops_served() const { return ops_served_; }

  /// Applies an operation without RPC or cost charging (test seeding).
  MetaResponse apply(const MetaRequest& req);

 private:
  /// An inode's attributes and the name of the entry that links it (empty
  /// for the root).
  struct Inode {
    fs::InodeAttr attr;
    std::string name;
  };
  /// One directory entry: its name's hash and the inode it links, whose
  /// node in `inodes_` never moves. The name lives in the inode, so the
  /// table stays 16 bytes a bucket.
  struct Dirent {
    std::uint64_t hash = 0;  // sim::Rng::hash(inode->name)
    Inode* inode = nullptr;
  };
  /// A directory's entries; do_readdir sorts them by name.
  using Dirents = fs::FlatTable<Dirent>;

  sim::Task<MetaResponse> handle(MetaRequest req);
  sim::Task<> charge_cache(fs::Ino ino);

  MetaResponse do_lookup(const MetaRequest& req);
  MetaResponse do_getattr(const MetaRequest& req);
  MetaResponse do_create(const MetaRequest& req);
  MetaResponse do_unlink(const MetaRequest& req);
  MetaResponse do_rmdir(const MetaRequest& req);
  MetaResponse do_readdir(const MetaRequest& req);
  MetaResponse do_set_size(const MetaRequest& req);

  fs::InodeAttr* find_dir(fs::Ino ino, fs::FsError& err);
  /// `dir`'s entry table, or nullptr while it never had an entry.
  Dirents* dirents_of(fs::Ino dir);
  /// The entry named `name` in `entries` (which may be null), or nullptr.
  static Dirent* find_dirent(Dirents* entries, const std::string& name);

  sim::Simulation& sim_;
  net::NodeId node_;
  sim::SimDisk& disk_;
  // Every inode is its attributes and its name. Entries live in a
  // per-directory table created with the first entry and erased with the
  // directory, so files and empty directories carry no child table. A
  // dentry and its inode are created and erased together, so every entry's
  // inode is present.
  std::unordered_map<fs::Ino, Inode> inodes_;
  std::unordered_map<fs::Ino, Dirents> dirents_;
  fs::Ino next_ino_ = fs::kRootIno + 1;
  std::uint64_t ops_served_ = 0;

  // Server-side metadata cache model: LRU set of hot inode numbers.
  fs::LruTtlCache<fs::Ino, std::monostate> cache_;

  std::unique_ptr<net::RpcService<MetaRequest, MetaResponse>> rpc_;
};

}  // namespace pacon::dfs
