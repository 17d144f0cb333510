#include "indexfs/indexfs.h"

#include <algorithm>
#include <cassert>
#include <cinttypes>
#include <cstdio>

#include "indexfs/codec.h"
#include "sim/random.h"

namespace pacon::indexfs {

using fs::FsError;

namespace {

/// Maximum partition-tree depth (2^depth partitions per directory).
constexpr std::uint32_t kMaxDepth = 8;
/// Pause between declaring a split and scanning the source partition, so
/// requests already admitted (in flight or queued at the server) land
/// first. Real GIGA+ splits quiesce the partition similarly.
constexpr sim::SimDuration kSplitGrace = 2_ms;
/// Server CPU service time of a lookup or scan.
constexpr sim::SimDuration kReadCpuTime = 12_us;
/// Mutations serialize through LevelDB's single write path; the effective
/// per-insert service time covers WAL append, memtable insert and
/// compaction interference on the BeeGFS-backed tables.
constexpr sim::SimDuration kWriteCpuTime = 55_us;
/// RPC worker pool per server (metadata servers are thin).
constexpr std::size_t kServerWorkers = 2;
/// The LevelDB tables live on BeeGFS in the paper's deployment: charge
/// network-attached latencies on the LSM device.
constexpr sim::DiskConfig kTableDisk{.read_latency = 130_us,
                                     .write_latency = 75_us,
                                     .read_bw_bytes_per_sec = 1.0e9,
                                     .write_bw_bytes_per_sec = 8.0e8,
                                     .queue_depth = 8};

}  // namespace

PartitionMap::PartitionMap(std::uint32_t max_depth)
    : max_depth_(max_depth),
      exists_(1u << max_depth, false),
      depths_(1u << max_depth, 0),
      counts_(1u << max_depth, 0) {
  exists_[0] = true;
}

std::uint32_t PartitionMap::partition_of(std::uint64_t name_hash) const {
  for (std::uint32_t k = max_depth_; k > 0; --k) {
    const std::uint32_t i = static_cast<std::uint32_t>(name_hash) & ((1u << k) - 1);
    if (exists_[i] && depths_[i] == k) return i;
  }
  return 0;
}

std::vector<std::uint32_t> PartitionMap::fallback_chain(std::uint32_t p) const {
  std::vector<std::uint32_t> chain{p};
  // Clearing the top set bit yields the partition p was split from.
  while (p != 0) {
    std::uint32_t top = 1;
    while ((top << 1) <= p) top <<= 1;
    p -= top;
    chain.push_back(p);
  }
  return chain;
}

std::vector<std::uint32_t> PartitionMap::live_partitions() const {
  std::vector<std::uint32_t> out;
  for (std::uint32_t i = 0; i < exists_.size(); ++i) {
    if (exists_[i]) out.push_back(i);
  }
  return out;
}

bool PartitionMap::should_split(std::uint32_t p, std::uint64_t threshold,
                                std::uint32_t max_depth) const {
  return exists_[p] && counts_[p] > threshold && depths_[p] < max_depth;
}

std::uint32_t PartitionMap::apply_split(std::uint32_t source, std::uint64_t moved) {
  const std::uint32_t d = depths_[source];
  const std::uint32_t target = source + (1u << d);
  assert(target < exists_.size());
  assert(!exists_[target]);
  exists_[target] = true;
  depths_[source] = d + 1;
  depths_[target] = d + 1;
  counts_[target] = moved;
  counts_[source] = counts_[source] >= moved ? counts_[source] - moved : 0;
  ++live_;
  return target;
}

IndexFsServer::IndexFsServer(sim::Simulation& sim, net::Fabric& fabric, net::NodeId node,
                             IndexFsCluster& cluster)
    : sim_(sim), node_(node), cluster_(cluster) {
  next_ino_ = (static_cast<fs::Ino>(node.value + 1) << 40) + 1;
  disk_ = std::make_unique<sim::SimDisk>(sim, kTableDisk);
  store_ = std::make_unique<lsm::LsmStore>(sim, *disk_, lsm::LsmConfig{});
  net::RpcService<IfsRequest, IfsResponse>::Config rpc_cfg;
  rpc_cfg.workers = kServerWorkers;
  rpc_ = std::make_unique<net::RpcService<IfsRequest, IfsResponse>>(
      sim, fabric, node, [this](IfsRequest req) { return handle(std::move(req)); }, rpc_cfg);
}

sim::Task<IfsResponse> IndexFsServer::handle(IfsRequest req) {
  const bool mutation = req.op == IfsOp::create || req.op == IfsOp::unlink ||
                        req.op == IfsOp::ingest_rows;
  co_await sim_.delay(mutation ? kWriteCpuTime : kReadCpuTime);
  ++ops_served_;
  switch (req.op) {
    case IfsOp::lookup: co_return co_await do_lookup(req);
    case IfsOp::create: co_return co_await do_create(req);
    case IfsOp::unlink: co_return co_await do_unlink(req);
    case IfsOp::scan_partition: co_return co_await do_scan(req);
    case IfsOp::ingest_rows: {
      IfsResponse resp;
      std::vector<std::pair<std::string, std::string>> rows = std::move(req.rows);
      for (const auto& [key, value] : rows) {
        (void)key;
        (void)value;
      }
      co_await store_->ingest(std::move(rows));
      co_return resp;
    }
  }
  IfsResponse resp;
  resp.status = FsError::unsupported;
  co_return resp;
}

sim::Task<IfsResponse> IndexFsServer::do_lookup(const IfsRequest& req) {
  IfsResponse resp;
  const auto blob =
      co_await store_->get(IndexFsCluster::row_key(req.dir, req.partition, req.name));
  if (!blob) {
    resp.status = FsError::not_found;
    co_return resp;
  }
  const auto attr = decode_attr(*blob);
  if (!attr) {
    resp.status = FsError::io;
    co_return resp;
  }
  resp.attr = *attr;
  co_return resp;
}

sim::Task<IfsResponse> IndexFsServer::do_create(const IfsRequest& req) {
  IfsResponse resp;
  const std::string key = IndexFsCluster::row_key(req.dir, req.partition, req.name);
  if (co_await store_->get(key)) {
    resp.status = FsError::exists;
    co_return resp;
  }
  fs::InodeAttr attr;
  attr.ino = next_ino_++;
  attr.type = req.type;
  attr.mode = req.mode;
  attr.uid = req.creds.uid;
  attr.gid = req.creds.gid;
  attr.nlink = req.type == fs::FileType::directory ? 2 : 1;
  attr.ctime = sim_.now();
  attr.mtime = sim_.now();
  co_await store_->put(key, encode_attr(attr));
  cluster_.note_insert(req.dir, req.partition);
  resp.attr = attr;
  co_return resp;
}

sim::Task<IfsResponse> IndexFsServer::do_unlink(const IfsRequest& req) {
  IfsResponse resp;
  const std::string key = IndexFsCluster::row_key(req.dir, req.partition, req.name);
  const auto blob = co_await store_->get(key);
  if (!blob) {
    resp.status = FsError::not_found;
    co_return resp;
  }
  const auto attr = decode_attr(*blob);
  if (attr) resp.attr = *attr;
  co_await store_->del(key);
  cluster_.note_remove(req.dir, req.partition);
  co_return resp;
}

sim::Task<IfsResponse> IndexFsServer::do_scan(const IfsRequest& req) {
  IfsResponse resp;
  const auto rows =
      co_await store_->scan_prefix(IndexFsCluster::partition_prefix(req.dir, req.partition));
  resp.entries.reserve(rows.size());
  for (const auto& [key, blob] : rows) {
    const auto attr = decode_attr(blob);
    if (!attr) continue;
    const auto sep = key.rfind('/');
    resp.entries.emplace_back(key.substr(sep + 1), *attr);
  }
  co_return resp;
}

IndexFsCluster::IndexFsCluster(sim::Simulation& sim, net::Fabric& fabric, IndexFsConfig config)
    : sim_(sim), fabric_(fabric), config_(std::move(config)) {}

IndexFsServer& IndexFsCluster::add_server(net::NodeId node) {
  servers_.push_back(std::make_unique<IndexFsServer>(sim_, fabric_, node, *this));
  return *servers_.back();
}

IndexFsServer& IndexFsCluster::server_for(fs::Ino dir, std::uint32_t partition) {
  assert(!servers_.empty());
  const std::uint64_t mixed = dir * 0x9E3779B97F4A7C15ull + partition * 2654435761ull;
  return *servers_[mixed % servers_.size()];
}

PartitionMap& IndexFsCluster::map_of(fs::Ino dir) {
  auto it = dirs_.find(dir);
  if (it == dirs_.end()) {
    it = dirs_.emplace(dir, std::make_unique<DirState>(kMaxDepth)).first;
  }
  return it->second->map;
}

sim::Task<> IndexFsCluster::wait_for_split(fs::Ino dir) {
  auto it = dirs_.find(dir);
  while (it != dirs_.end() && it->second->splitting) {
    co_await it->second->split_gate->wait();
    it = dirs_.find(dir);
  }
}

void IndexFsCluster::note_insert(fs::Ino dir, std::uint32_t partition) {
  auto& state = *dirs_.at(dir);
  state.map.note_insert(partition);
  if (!state.splitting &&
      state.map.should_split(partition, config_.split_threshold, kMaxDepth)) {
    state.splitting = true;
    state.split_source = partition;
    state.split_target = partition + (1u << state.map.depth_of(partition));
    state.split_gate = std::make_unique<sim::Gate>(sim_);
    sim_.spawn(run_split(dir, partition));
  }
}

bool IndexFsCluster::partition_splitting(fs::Ino dir, std::uint32_t partition) const {
  auto it = dirs_.find(dir);
  if (it == dirs_.end() || !it->second->splitting) return false;
  return partition == it->second->split_source || partition == it->second->split_target;
}

void IndexFsCluster::note_remove(fs::Ino dir, std::uint32_t partition) {
  map_of(dir).note_remove(partition);
}

sim::Task<> IndexFsCluster::run_split(fs::Ino dir, std::uint32_t source) {
  DirState& state = *dirs_.at(dir);
  // Quiesce: operations that already passed wait_for_split() must land
  // before the move scan, or the split could copy a row an unlink just
  // removed (resurrection) or miss a straggler.
  co_await sim_.delay(kSplitGrace);
  const std::uint32_t depth = state.map.depth_of(source);
  const std::uint32_t target = source + (1u << depth);
  IndexFsServer& src_server = server_for(dir, source);
  IndexFsServer& dst_server = server_for(dir, target);

  // Move rows whose hash selects the new bit. Ops keep landing in `source`
  // while we scan (clients still see the old map); a second pass sweeps the
  // stragglers, and lookup fallback chains cover anything in between.
  std::uint64_t moved_total = 0;
  for (int pass = 0; pass < 2; ++pass) {
    const auto rows = co_await src_server.store().scan_prefix(partition_prefix(dir, source));
    std::vector<std::pair<std::string, std::string>> moving;
    for (const auto& [key, value] : rows) {
      const auto sep = key.rfind('/');
      const std::string name = key.substr(sep + 1);
      if ((name_hash(name) >> depth) & 1u) {
        moving.emplace_back(row_key(dir, target, name), value);
      }
    }
    if (moving.empty()) break;
    std::vector<std::string> old_keys;
    old_keys.reserve(moving.size());
    for (const auto& [new_key, value] : moving) {
      const auto sep = new_key.rfind('/');
      old_keys.push_back(row_key(dir, source, new_key.substr(sep + 1)));
    }
    moved_total += moving.size();
    co_await dst_server.store().ingest(std::move(moving));
    for (auto& key : old_keys) co_await src_server.store().del(std::move(key));
  }

  state.map.apply_split(source, moved_total);
  ++splits_completed_;
  state.splitting = false;
  state.split_gate->open();
}

std::string IndexFsCluster::partition_prefix(fs::Ino dir, std::uint32_t partition) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "D%016" PRIx64 "/P%04u/", dir, partition);
  return buf;
}

std::string IndexFsCluster::row_key(fs::Ino dir, std::uint32_t partition,
                                    std::string_view name) {
  std::string key = partition_prefix(dir, partition);
  key.append(name);
  return key;
}

std::uint64_t IndexFsCluster::name_hash(std::string_view name) {
  return sim::Rng::hash(name);
}

}  // namespace pacon::indexfs
