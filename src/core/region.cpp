#include "core/region.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <set>

#include "net/retry.h"
#include "obs/trace.h"
#include "sim/combinators.h"

namespace pacon::core {

using fs::FsError;
using fs::FsResult;

namespace {

/// Backoff schedule for the commit retry worker: from 200 us, doubling to
/// at most 2 ms, +-25% deterministic jitter from the region's forked rng
/// stream, never giving up (independent commit resubmits until the DFS
/// accepts, Section III.E.1). RetryPolicy::kBaseDelay also paces the
/// fixed-interval waits: a data write waiting for its file's create to reach
/// the DFS, and a barrier waiting for parked resubmissions.
constexpr net::RetryPolicy kCommitRetry{.max_attempts = 0, .max_delay = 2'000_us};
/// Pause before replaying a barrier whose epoch was aborted by a
/// commit-process crash (or whose DFS call hit a transport failure), and
/// how many replays to attempt before the dependent op fails with
/// FsError::io.
constexpr sim::SimDuration kBarrierRetryDelay = 500_us;
constexpr std::size_t kBarrierRetryLimit = 64;
/// Group-commit cadence of the per-node commit WAL.
constexpr sim::SimDuration kWalFlushPeriod = 100_us;
/// CPU cost of a local (client-side) batch permission match.
constexpr sim::SimDuration kPermissionCheckCpu = 400_ns;
/// Caller-side cost of pushing one operation message into the commit
/// queue (serialization + the ZeroMQ-style socket write).
constexpr sim::SimDuration kQueuePublishCpu = 12_us;

/// Key prefix covering the subtree strictly under `dir` plus the dir itself.
std::string subtree_prefix(const fs::Path& dir) {
  return dir.is_root() ? std::string("/") : dir.str() + "/";
}

/// Metric namespace of a region: "region.<root>" with '/' flattened to '_'
/// ('.' is the scope separator, '/' would read as nested scopes).
std::string region_metric_scope(const fs::Path& root) {
  std::string tag = root.str();
  std::replace(tag.begin(), tag.end(), '/', '_');
  return "region." + tag;
}

/// Decodes a get_entry() reply: the cached entry, or nullopt when the key
/// is absent or its server unreachable.
std::optional<CachedMeta> found_meta(const kv::KvResponse& resp) {
  if (resp.status != kv::KvStatus::ok) return std::nullopt;
  return decode_meta(resp.value);
}

}  // namespace

ConsistentRegion::ConsistentRegion(sim::Simulation& sim, net::Fabric& fabric,
                                   dfs::DfsCluster& dfs, RegionConfig config)
    : sim_(sim),
      fabric_(fabric),
      dfs_(dfs),
      config_(std::move(config)),
      permissions_(
          PermissionSpec{fs::FileMode::dir_default(), config_.creds.uid, config_.creds.gid}),
      epochs_(sim, config_.nodes.size()),
      barrier_mutex_(sim),
      rng_(sim.rng().fork("region-retry")),
      drained_gate_(sim),
      queue_depth_gauge_(sim.metrics().scoped(region_metric_scope(config_.root))
                             .gauge("commit_queue_depth")),
      degraded_gauge_(
          sim.metrics().scoped(region_metric_scope(config_.root)).gauge("degraded_latch")),
      committed_ctr_(
          sim.metrics().scoped(region_metric_scope(config_.root)).counter("committed_ops")),
      retries_ctr_(
          sim.metrics().scoped(region_metric_scope(config_.root)).counter("commit_retries")),
      redelivered_ctr_(
          sim.metrics().scoped(region_metric_scope(config_.root)).counter("redelivered_ops")),
      degraded_ctr_(
          sim.metrics().scoped(region_metric_scope(config_.root)).counter("degraded_ops")) {
  if (!config_.root.valid() || config_.nodes.empty()) {
    throw std::invalid_argument("ConsistentRegion: workspace path and nodes are required");
  }

  // The region's evictor owns space management; the cache daemons must not
  // drop entries behind its back (Section III.F).
  kv::KvConfig cache_cfg = config_.cache;
  cache_cfg.lru_eviction = false;
  cache_ = std::make_unique<kv::MemCacheCluster>(sim_, fabric_, cache_cfg);

  sim::MetricScope scope = sim_.metrics().scoped(region_metric_scope(config_.root));
  epochs_.set_state_gauge(&scope.gauge("epoch"));

  for (const auto node : config_.nodes) {
    cache_->add_server(node);
    auto state = std::make_unique<NodeState>(sim_, fabric_, node);
    state->dfs_client = std::make_unique<dfs::DfsClient>(
        sim_, dfs_, node, dfs::DfsClientConfig{.creds = config_.creds});
    state->ordered = std::make_unique<sim::Channel<CommitTicket>>(sim_);
    state->retry_queue = std::make_unique<sim::Channel<CommitTicket>>(sim_);
    state->spill_disk = std::make_unique<sim::SimDisk>(sim_, sim::DiskConfig::nvme());
    state->wal_disk = std::make_unique<sim::SimDisk>(sim_, sim::DiskConfig::nvme());
    state->wal = std::make_unique<CommitWal>(sim_, *state->wal_disk, kWalFlushPeriod);
    state->wal->set_backlog_gauge(
        // lint-allow: metric-hot-loop once-per-node at region construction, not a hot path
        &scope.scoped("n" + std::to_string(node.value)).gauge("wal_backlog"));
    node_states_.push_back(std::move(state));
    sim_.spawn(sorter_loop(*node_states_.back()));
    sim_.spawn(committer_loop(*node_states_.back()));
    sim_.spawn(retry_loop(*node_states_.back()));
    sim_.spawn(node_states_.back()->wal->flusher_loop());
  }
  sim_.spawn(evictor_loop());
}

ConsistentRegion::NodeState* ConsistentRegion::find_state(net::NodeId node) {
  auto it = std::find_if(node_states_.begin(), node_states_.end(),
                         [node](const auto& s) { return s->node == node; });
  return it == node_states_.end() ? nullptr : it->get();
}

ConsistentRegion::NodeState& ConsistentRegion::state_for(net::NodeId node) {
  NodeState* state = find_state(node);
  assert(state != nullptr && "operation issued from a non-member node");
  return *state;
}

dfs::DfsClient& ConsistentRegion::dfs_for(net::NodeId node) {
  if (NodeState* state = find_state(node)) return *state->dfs_client;
  for (const auto& client : reader_dfs_) {
    if (client->node() == node) return *client;
  }
  reader_dfs_.push_back(std::make_unique<dfs::DfsClient>(
      sim_, dfs_, node, dfs::DfsClientConfig{.creds = config_.creds}));
  return *reader_dfs_.back();
}

fs::Path ConsistentRegion::checkpoint_path(std::uint64_t id) const {
  std::string tag = config_.root.str();
  std::replace(tag.begin(), tag.end(), '/', '_');
  return fs::Path::parse("/.pacon").child("ckpt" + tag + "_" + std::to_string(id));
}

void ConsistentRegion::pending_increment(const OpMessage& msg) {
  assert(msg.path_hash == sim::Rng::hash(msg.path) && "message not built by make_op");
  ++pending_by_hash_.try_emplace(msg.path_hash, hash_is_key, [] { return PendingCount{}; })
        .first->count;
  ++pending_total_;
  queue_depth_gauge_.set(static_cast<std::int64_t>(pending_total_));
}

void ConsistentRegion::pending_decrement(const OpMessage& msg) {
  // The hash stamped by make_op rides in the message, so the commit side
  // never rehashes the path.
  if (PendingCount* pending = pending_by_hash_.find(msg.path_hash, hash_is_key)) {
    if (--pending->count == 0) pending_by_hash_.erase(pending);
  }
  if (pending_total_ > 0 && --pending_total_ == 0) drained_gate_.open();
  queue_depth_gauge_.set(static_cast<std::int64_t>(pending_total_));
}

void ConsistentRegion::note_degraded(obs::SpanId span) {
  degraded_ctr_.add();
  degraded_gauge_.set(1);
  if (obs::Tracer* tracer = sim_.tracer(); tracer != nullptr && span != obs::kNoSpan) {
    tracer->event(span, "degraded_passthrough");
  }
}

ConsistentRegion::~ConsistentRegion() {
  stop_evictor_ = true;
  // Shut the commit pipeline down cleanly: closing each stage's queue or
  // channel dequeues the blocked sorter/committer/retry loops, so no
  // loop is left parked in the wait queue of a destructed channel. If the
  // simulation keeps running, the woken loops observe end-of-stream and
  // exit; at teardown the kernel reclaims them either way.
  for (auto& node : node_states_) {
    node->queue.close();
    node->ordered->close();
    node->retry_queue->close();
    node->wal->stop();
  }
}

std::uint32_t ConsistentRegion::register_client(net::NodeId node) {
  NodeState* home = find_state(node);
  assert(home != nullptr && "client node must be a region member");
  const std::uint32_t id = next_client_id_++;
  assert(id == clients_.size() && "client ids are dense indices");
  clients_.push_back(home);
  client_epochs_.push_back(epochs_.current_epoch());
  ++home->client_count;
  return id;
}

// ---- Permission & parent checks -------------------------------------------

sim::Task<FsResult<void>> ConsistentRegion::check_permission(net::NodeId from,
                                                             const fs::Path& path,
                                                             fs::Access access,
                                                             obs::SpanId span) {
  if (config_.batch_permission) {
    // One local match against the predefined table (Section III.C).
    co_await sim_.delay(kPermissionCheckCpu);
    if (!permissions_.check(path, config_.creds, access)) {
      co_return fs::fail(FsError::permission);
    }
    co_return FsResult<void>{};
  }
  // Ablation: hierarchical checking -- walk every ancestor inside the region
  // through the distributed cache (or DFS on miss), the traversal Pacon is
  // designed to avoid.
  std::vector<fs::Path> chain;
  for (fs::Path p = path; contains(p); p = p.parent()) {
    chain.push_back(p);
    if (p == config_.root) break;
  }
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    const bool leaf = (*it == path);
    const fs::Access want = leaf ? access : fs::Access::execute;
    const auto meta = found_meta(co_await get_entry(from, *it, span));
    if (meta) {
      if (!fs::permits(meta->attr.mode, meta->attr.uid, meta->attr.gid, config_.creds, want)) {
        co_return fs::fail(FsError::permission);
      }
      continue;
    }
    // Not cached: consult the DFS (charges full traversal there).
    auto attr = co_await dfs_for(from).getattr(*it, span);
    if (!attr) {
      // The leaf may be about to be created; a transport failure still fails.
      if (leaf && attr.error() != FsError::io) continue;
      co_return fs::fail(attr.error());
    }
    if (!fs::permits(attr->mode, attr->uid, attr->gid, config_.creds, want)) {
      co_return fs::fail(FsError::permission);
    }
  }
  co_return FsResult<void>{};
}

sim::Task<FsResult<void>> ConsistentRegion::check_parent(net::NodeId from,
                                                         const fs::Path& path,
                                                         obs::SpanId span) {
  const fs::Path parent = path.parent();
  if (!contains(parent)) co_return FsResult<void>{};  // workspace root's parent
  const auto meta = found_meta(co_await get_entry(from, parent, span));
  if (meta) {
    if (meta->removed) co_return fs::fail(FsError::not_found);
    if (!meta->attr.is_dir()) co_return fs::fail(FsError::not_a_directory);
    co_return FsResult<void>{};
  }
  if (!config_.parent_check) co_return FsResult<void>{};
  co_return co_await load_parent(from, parent, span);
}

sim::Task<FsResult<void>> ConsistentRegion::load_parent(net::NodeId from, fs::Path parent,
                                                        obs::SpanId span) {
  // Parent exists on the DFS but is not cached: synchronous check + load.
  auto attr = co_await dfs_for(from).getattr(parent, span);
  if (!attr) co_return fs::fail(attr.error());
  if (!attr->is_dir()) co_return fs::fail(FsError::not_a_directory);
  CachedMeta loaded;
  loaded.attr = *attr;
  (void)co_await cache_->add(from, parent.str(), encode_meta(loaded), parent.hash(), span);
  co_return FsResult<void>{};
}

// ---- Cache helpers ----------------------------------------------------------

// lint-allow: coro-param-ref plain function: copies the key into the request before returning
sim::Task<kv::KvResponse> ConsistentRegion::get_entry(net::NodeId from, const fs::Path& path,
                                                      obs::SpanId span) const {
  return cache_->get(from, path.str(), path.hash(), span);
}

void ConsistentRegion::publish(std::uint32_t client, OpMessage msg, obs::SpanId parent) {
  assert(client < clients_.size());
  NodeState* home = clients_[client];
  msg.client_id = client;
  msg.epoch = client_epochs_[client];
  msg.timestamp = sim_.now();
  msg.op_id = ++next_op_id_;
  if (obs::Tracer* tracer = sim_.tracer(); tracer != nullptr && parent != obs::kNoSpan) {
    // The commit span deliberately outlives this call: it rides inside the
    // message across the queue hop (and any WAL redelivery) and closes
    // only when apply_and_account settles the op's fate on the DFS.
    msg.span = tracer->begin_span("commit", parent, home->node.value);
  }
  if (!is_barrier(msg)) pending_increment(msg);
  sim_.trace_note_lazy([&] {
    return "publish op=" + std::to_string(msg.op_id) + " kind=" + to_string(msg.kind) +
           " path=" + msg.path + " epoch=" + std::to_string(msg.epoch) +
           " client=" + std::to_string(client);
  });
  home->queue.push(std::move(msg));
}

// ---- Create / mkdir ----------------------------------------------------------

std::string ConsistentRegion::new_entry_value(fs::FileMode mode, fs::FileType type) const {
  CachedMeta meta;
  meta.attr.ino = 0;  // assigned by the DFS at commit; unused inside the cache
  meta.attr.type = type;
  meta.attr.mode = mode;
  meta.attr.uid = config_.creds.uid;
  meta.attr.gid = config_.creds.gid;
  meta.attr.nlink = type == fs::FileType::directory ? 2 : 1;
  meta.attr.ctime = sim_.now();
  meta.attr.mtime = sim_.now();
  return encode_meta(meta);
}

OpMessage ConsistentRegion::make_op(OpMessage::Kind kind, const fs::Path& path,
                                     fs::FileMode mode) const {
  // Copy-constructing the path sizes its buffer exactly; assigning into an
  // empty string would round it up, and a message can wait in the commit
  // backlog for a long time.
  return OpMessage{.kind = kind,
                   .path = path.str(),
                   .path_hash = path.hash(),
                   .mode = mode,
                   .creds = config_.creds};
}

sim::Task<FsResult<void>> ConsistentRegion::create_common(net::NodeId from,
                                                          std::uint32_t client,
                                                          const fs::Path& path,
                                                          fs::FileMode mode,
                                                          fs::FileType type,
                                                          bool parent_known,
                                                          obs::SpanId parent) {
  // Every cold branch (hierarchical permission walk, DFS parent load,
  // degraded pass-through, synchronous-commit ablation) runs in a coroutine
  // of its own, so this frame -- live across every in-flight create --
  // carries none of their state.
  auto perm = co_await check_permission(from, path.parent(), fs::Access::write, parent);
  if (!perm) co_return perm;
  if (!parent_known) {
    auto parent_ok = co_await check_parent(from, path, parent);
    if (!parent_ok) co_return parent_ok;
  }

  const kv::KvStatus status =
      (co_await cache_->add(from, path.str(), new_entry_value(mode, type), path.hash(), parent))
          .status;
  if (status == kv::KvStatus::ok && config_.async_commit) {
    co_await sim_.delay(kQueuePublishCpu);
    publish(client,
            make_op(type == fs::FileType::directory ? OpMessage::Kind::mkdir
                                                    : OpMessage::Kind::create,
                    path, mode),
            parent);
    co_return FsResult<void>{};
  }
  if (status == kv::KvStatus::exists) {
    // A marked-removed entry may be awaiting its remove commit; replacing it
    // would resurrect ordering problems, so surface EEXIST until then.
    co_return fs::fail(FsError::exists);
  }
  if (status == kv::KvStatus::unreachable) {
    // Degraded pass-through: no live cache server for this key (retries and
    // ring failover exhausted). The entry is not cached, but the namespace
    // still advances via a synchronous DFS commit; cached coverage rebuilds
    // lazily once the node returns.
    note_degraded(parent);
  } else if (status != kv::KvStatus::ok) {
    co_return fs::fail(FsError::no_space);
  }
  // Degraded pass-through, or the synchronous-commit ablation: the create
  // goes straight to the DFS through this node's client.
  co_return co_await commit_on_dfs(from, path, mode, type, parent);
}

sim::Task<FsResult<void>> ConsistentRegion::commit_on_dfs(net::NodeId from, fs::Path path,
                                                          fs::FileMode mode, fs::FileType type,
                                                          obs::SpanId parent) {
  dfs::DfsClient& io = dfs_for(from);
  auto committed = type == fs::FileType::directory ? co_await io.mkdir(path, mode, parent)
                                                   : co_await io.create(path, mode, parent);
  if (!committed) co_return fs::fail(committed.error());
  co_return FsResult<void>{};
}

sim::Task<FsResult<void>> ConsistentRegion::mkdir(net::NodeId from, std::uint32_t client,
                                                  const fs::Path& path, fs::FileMode mode,
                                                  bool parent_known, obs::SpanId parent) {
  return create_common(from, client, path, mode, fs::FileType::directory, parent_known, parent);
}

sim::Task<FsResult<void>> ConsistentRegion::create(net::NodeId from, std::uint32_t client,
                                                   const fs::Path& path, fs::FileMode mode,
                                                   bool parent_known, obs::SpanId parent) {
  return create_common(from, client, path, mode, fs::FileType::file, parent_known, parent);
}

// ---- getattr ------------------------------------------------------------------

sim::Task<FsResult<fs::InodeAttr>> ConsistentRegion::getattr(net::NodeId from,
                                                             const fs::Path& path,
                                                             obs::SpanId parent) {
  auto perm = co_await check_permission(from, path, fs::Access::read, parent);
  if (!perm) co_return fs::fail(perm.error());
  const auto meta = found_meta(co_await get_entry(from, path, parent));
  if (meta) {
    if (meta->removed) co_return fs::fail(FsError::not_found);
    co_return meta->attr;
  }
  co_return co_await load_attr(from, path, parent);
}

sim::Task<FsResult<fs::InodeAttr>> ConsistentRegion::load_attr(net::NodeId from, fs::Path path,
                                                               obs::SpanId span) {
  // Miss: synchronously load from the DFS (Table I: getattr on miss).
  auto attr = co_await dfs_for(from).getattr(path, span);
  if (!attr) co_return fs::fail(attr.error());
  CachedMeta loaded;
  loaded.attr = *attr;
  loaded.large_file = attr->size > config_.small_file_threshold;
  (void)co_await cache_->add(from, path.str(), encode_meta(loaded), path.hash(), span);
  co_return *attr;
}

// ---- remove (rm) ----------------------------------------------------------------

sim::Task<FsResult<void>> ConsistentRegion::remove(net::NodeId from, std::uint32_t client,
                                                   const fs::Path& path, obs::SpanId parent) {
  auto perm = co_await check_permission(from, path.parent(), fs::Access::write, parent);
  if (!perm) co_return perm;

  // CAS loop: mark the entry removed (Table I: rm = update & delete; the
  // cached copy is deleted by the commit process once the DFS applied it).
  for (;;) {
    const auto cur = co_await get_entry(from, path, parent);
    if (cur.status == kv::KvStatus::unreachable) {
      // Degraded pass-through: the key's cache shard is gone; unlink
      // synchronously on the DFS (nothing cached survives to go stale).
      note_degraded(parent);
      auto done = co_await dfs_for(from).unlink(path, parent);
      if (!done) co_return fs::fail(done.error());
      ++invalidation_epoch_;
      co_return FsResult<void>{};
    }
    if (cur.status == kv::KvStatus::not_found) {
      // Not cached: verify against the DFS before queueing the remove.
      auto attr = co_await dfs_for(from).getattr(path, parent);
      if (!attr) co_return fs::fail(attr.error());
      if (attr->is_dir()) co_return fs::fail(FsError::is_a_directory);
      CachedMeta marked;
      marked.attr = *attr;
      marked.removed = true;
      const auto added =
          co_await cache_->add(from, path.str(), encode_meta(marked), path.hash(), parent);
      if (added.status != kv::KvStatus::ok) continue;  // raced (or shard lost); retry
      break;
    }
    auto meta = decode_meta(cur.value);
    if (!meta) co_return fs::fail(FsError::io);
    if (meta->removed) co_return fs::fail(FsError::not_found);
    if (meta->attr.is_dir()) co_return fs::fail(FsError::is_a_directory);
    meta->removed = true;
    const auto swapped = co_await cache_->cas(from, path.str(), encode_meta(*meta), cur.cas,
                                              path.hash(), parent);
    if (swapped.status == kv::KvStatus::ok) break;
    // cas_mismatch or concurrent delete: retry the whole read-modify-write.
  }

  ++invalidation_epoch_;
  if (config_.async_commit) {
    co_await sim_.delay(kQueuePublishCpu);
    publish(client, make_op(OpMessage::Kind::remove, path), parent);
    co_return FsResult<void>{};
  }
  auto done = co_await dfs_for(from).unlink(path, parent);
  if (!done && done.error() == FsError::io) co_return done;  // DFS unreachable
  (void)co_await cache_->del(from, path.str(), path.hash(), parent);
  if (!done) co_return fs::fail(done.error());
  co_return FsResult<void>{};
}

// ---- Dependent operations: rmdir / readdir ------------------------------------

sim::Task<ConsistentRegion::BarrierResult> ConsistentRegion::run_barrier(net::NodeId from,
                                                                         obs::SpanId parent) {
  obs::Span span(parent != obs::kNoSpan ? sim_.tracer() : nullptr, "barrier", parent, from.value);
  co_await barrier_mutex_.lock();
  const std::uint64_t e = epochs_.current_epoch();
  // Only live nodes with a running commit process that actually host clients
  // owe a barrier report; a node without publishers has a trivially drained
  // queue, a crashed node will never report (its queued work is already
  // lost), and a crashed commit process reports only after restart.
  std::size_t participating = 0;
  for (const auto& state : node_states_) {
    if (state->alive && state->commit_running && state->client_count > 0) ++participating;
  }
  epochs_.set_node_count(participating);
  if (participating == 0) {
    ++barriers_run_;
    span.finish("drained");
    co_return BarrierResult{e, true};
  }
  // Broadcast: every client pushes a barrier message and enters epoch e+1.
  // The physical broadcast to remote nodes costs one (parallel) one-way hop.
  co_await sim_.delay(fabric_.one_way(from, node_states_.front()->node, 64));
  for (std::uint32_t cid = 0; cid < clients_.size(); ++cid) {
    NodeState* home = clients_[cid];
    OpMessage b;
    b.kind = OpMessage::Kind::barrier;
    b.path = config_.root.str();
    b.client_id = cid;
    b.epoch = e;
    b.timestamp = sim_.now();
    home->queue.push(std::move(b));
    client_epochs_[cid] = e + 1;
  }
  ++barriers_run_;
  barrier_inflight_epoch_ = e;
  const bool ok = co_await epochs_.wait_all_drained(e);
  barrier_inflight_epoch_.reset();
  sim_.trace_note_lazy([&] {
    return (ok ? "barrier-drained epoch=" : "barrier-aborted epoch=") + std::to_string(e);
  });
  span.finish(ok ? "drained" : "aborted");
  co_return BarrierResult{e, ok};
}

template <typename Op>
std::invoke_result_t<Op&> ConsistentRegion::behind_barrier(net::NodeId from, obs::SpanId parent,
                                                           Op op) {
  for (std::size_t attempt = 0;; ++attempt) {
    const BarrierResult barrier = co_await run_barrier(from, parent);
    if (!barrier.ok) {
      // A participant's commit process crashed mid-epoch. Close the epoch
      // (its surviving ops redeliver from the WAL after restart) and replay
      // the whole barrier; the replayed one covers the redelivered ops.
      epochs_.complete_epoch(barrier.epoch);
      barrier_mutex_.unlock();
      if (attempt + 1 >= kBarrierRetryLimit) co_return fs::fail(FsError::io);
      co_await sim_.delay(kBarrierRetryDelay);
      continue;
    }
    auto result = co_await op();
    epochs_.complete_epoch(barrier.epoch);
    barrier_mutex_.unlock();
    // The MDS never answers io, so io here is a transport failure (MDS down
    // or message lost): replay the barrier and the op after a delay.
    if (!result && result.error() == FsError::io && attempt + 1 < kBarrierRetryLimit) {
      co_await sim_.delay(kBarrierRetryDelay);
      continue;
    }
    co_return result;
  }
}

sim::Task<FsResult<void>> ConsistentRegion::rmdir(net::NodeId from, fs::Path path,
                                                  obs::SpanId parent) {
  auto perm = co_await check_permission(from, path.parent(), fs::Access::write, parent);
  if (!perm) co_return perm;
  co_return co_await behind_barrier(from, parent,
                                    [&] { return rmdir_on_dfs(from, path, parent); });
}

sim::Task<FsResult<void>> ConsistentRegion::rmdir_on_dfs(net::NodeId from, fs::Path path,
                                                         obs::SpanId parent) {
  auto result = co_await dfs_for(from).rmdir(path, parent);  // sync commit (Table I)
  if (!result) co_return result;
  ++invalidation_epoch_;
  // Clean the cached subtree (paper: recursive removing cleans the cache).
  const std::string prefix = subtree_prefix(path);
  for (std::size_t s = 0; s < cache_->server_count(); ++s) {
    auto& server = cache_->server_on(config_.nodes[s]);
    for (const auto& key : server.keys_with_prefix(prefix)) {
      server.apply(kv::KvRequest{kv::KvRequest::Op::del, key, {}, 0, 0});
    }
    server.apply(kv::KvRequest{kv::KvRequest::Op::del, path.str(), {}, 0, 0});
  }
  co_return result;
}

sim::Task<FsResult<std::vector<fs::DirEntry>>> ConsistentRegion::readdir(
    net::NodeId from, fs::Path path, obs::SpanId parent) {
  auto perm = co_await check_permission(from, path, fs::Access::read, parent);
  if (!perm) co_return fs::fail(perm.error());
  // Delegate to the DFS behind a barrier: avoids a full cache-table scan and
  // is correct because all earlier operations have been committed (Table I).
  co_return co_await behind_barrier(from, parent,
                                    [&] { return dfs_for(from).readdir(path, parent); });
}

// ---- File data -------------------------------------------------------------------

sim::Task<FsResult<std::uint64_t>> ConsistentRegion::write(net::NodeId from,
                                                           std::uint32_t client,
                                                           const fs::Path& path,
                                                           std::uint64_t offset,
                                                           std::uint64_t length,
                                                           obs::SpanId parent) {
  auto perm = co_await check_permission(from, path, fs::Access::write, parent);
  if (!perm) co_return fs::fail(perm.error());
  dfs::DfsClient& io = dfs_for(from);

  for (;;) {
    const auto cur = co_await get_entry(from, path, parent);
    if (cur.status == kv::KvStatus::unreachable) {
      // Degraded pass-through: write through to the DFS directly; no cached
      // copy exists to keep coherent while the shard is down.
      note_degraded(parent);
      auto wrote = co_await io.write(path, offset, length, parent);
      if (!wrote) co_return fs::fail(wrote.error());
      co_return length;
    }
    if (cur.status == kv::KvStatus::not_found) {
      // Unknown in cache: fall back to the DFS (load like getattr would).
      auto attr = co_await getattr(from, path, parent);
      if (!attr) co_return fs::fail(attr.error());
      continue;
    }
    auto meta = decode_meta(cur.value);
    if (!meta) co_return fs::fail(FsError::io);
    if (meta->removed) co_return fs::fail(FsError::not_found);
    if (meta->attr.is_dir()) co_return fs::fail(FsError::is_a_directory);

    const std::uint64_t new_size = std::max(meta->attr.size, offset + length);
    if (meta->large_file || new_size > config_.small_file_threshold) {
      // Large-file path: data is not cached (Section III.D.2). Spill any
      // inline bytes, then write through to the DFS; resubmit until the
      // asynchronous create has landed there.
      const std::uint64_t spill = meta->inline_bytes;
      if (!meta->large_file) {
        meta->large_file = true;
        meta->inline_bytes = 0;
        meta->attr.size = new_size;
        meta->attr.mtime = sim_.now();
        const auto swapped = co_await cache_->cas(from, path.str(), encode_meta(*meta), cur.cas,
                                                  path.hash(), parent);
        if (swapped.status != kv::KvStatus::ok) continue;  // raced: retry
      }
      for (;;) {
        if (spill > 0) {
          auto spilled = co_await io.write(path, 0, spill, parent);
          if (!spilled && spilled.error() == FsError::not_found) {
            co_await sim_.delay(net::RetryPolicy::kBaseDelay);
            continue;
          }
          if (!spilled && spilled.error() == FsError::io) co_return fs::fail(FsError::io);
        }
        auto wrote = co_await io.write(path, offset, length, parent);
        if (wrote) break;
        if (wrote.error() != FsError::not_found) co_return fs::fail(wrote.error());
        co_await sim_.delay(net::RetryPolicy::kBaseDelay);  // create not committed yet
      }
      // Reflect the new size for cached readers (best effort, CAS-raced).
      co_return length;
    }

    // Small-file path: metadata and data updated in one CAS.
    meta->inline_bytes = std::max(meta->inline_bytes, offset + length);
    meta->attr.size = new_size;
    meta->attr.mtime = sim_.now();
    const auto swapped = co_await cache_->cas(from, path.str(), encode_meta(*meta), cur.cas,
                                              path.hash(), parent);
    if (swapped.status != kv::KvStatus::ok) continue;  // conflict: re-execute
    if (config_.async_commit) {
      co_await sim_.delay(kQueuePublishCpu);
      OpMessage op = make_op(OpMessage::Kind::write_data, path);
      op.size = new_size;
      publish(client, std::move(op), parent);
    } else {
      auto wrote = co_await io.write(path, 0, new_size, parent);
      if (!wrote) co_return fs::fail(wrote.error());
    }
    co_return length;
  }
}

sim::Task<FsResult<std::uint64_t>> ConsistentRegion::read(net::NodeId from, const fs::Path& path,
                                                          std::uint64_t offset,
                                                          std::uint64_t length,
                                                          obs::SpanId parent) {
  auto perm = co_await check_permission(from, path, fs::Access::read, parent);
  if (!perm) co_return fs::fail(perm.error());
  const auto meta = found_meta(co_await get_entry(from, path, parent));
  if (meta && !meta->removed && !meta->large_file) {
    // Single KV request served both metadata and data (Section III.D.2).
    if (offset >= meta->inline_bytes) co_return 0;
    co_return std::min(length, meta->inline_bytes - offset);
  }
  if (meta && meta->removed) co_return fs::fail(FsError::not_found);
  co_return co_await dfs_for(from).read(path, offset, length, parent);
}

sim::Task<FsResult<void>> ConsistentRegion::fsync(net::NodeId from, const fs::Path& path,
                                                  obs::SpanId parent) {
  const auto cur = co_await get_entry(from, path, parent);
  if (cur.status == kv::KvStatus::unreachable) {
    // Degraded pass-through: delegate durability to the DFS.
    note_degraded(parent);
    co_return co_await dfs_for(from).fsync(path, parent);
  }
  std::optional<CachedMeta> meta;
  if (cur.status == kv::KvStatus::ok) meta = decode_meta(cur.value);
  if (!meta || meta->removed) co_return fs::fail(FsError::not_found);
  if (pending_contains(path.hash())) {
    // The file's create (or data) has not committed yet: durability comes
    // from a direct-I/O write of the inline payload into a node-local cache
    // file; it is written back once the create lands (Section III.D.2).
    co_await state_for(from).spill_disk->write(std::max<std::uint64_t>(meta->inline_bytes, 512));
    co_return FsResult<void>{};
  }
  co_return co_await dfs_for(from).fsync(path, parent);
}

// ---- Commit machinery ------------------------------------------------------------

sim::Task<> ConsistentRegion::sorter_loop(NodeState& node) {
  // Sorter half: consumes the node's commit queue without ever blocking on
  // epoch state, so barrier messages are always seen promptly even while the
  // committer is held at an epoch boundary. The sorter is client-side queue
  // infrastructure: it survives commit-process crashes, and its WAL append
  // is what makes a consumed-but-uncommitted op redeliverable.
  for (;;) {
    auto msg = co_await node.queue.recv();
    if (!msg) break;
    if (is_barrier(*msg)) {
      if (msg->epoch < epochs_.current_epoch()) continue;  // aborted epoch's stragglers
      auto& seen = node.barrier_seen[msg->epoch];
      if (++seen == node.client_count) {
        node.barrier_seen.erase(msg->epoch);
        // Forward a single sentinel; per-publisher FIFO guarantees every
        // epoch-e operation from this node's clients precedes it.
        (void)node.ordered->try_send(CommitTicket{.epoch = msg->epoch, .barrier = true});
      }
      continue;
    }
    // Durable before visible: once logged, a crash between here and the
    // DFS apply replays the op (at-least-once). The log keeps the message;
    // the committer gets its ticket.
    const std::uint64_t epoch = msg->epoch;
    const std::uint64_t seq = node.wal->append(std::move(*msg));
    (void)node.ordered->try_send(CommitTicket{.seq = seq, .epoch = epoch});
  }
  node.ordered->close();
}

sim::Task<> ConsistentRegion::committer_loop(NodeState& node) {
  const std::uint64_t generation = node.commit_generation;
  // Redeliver the WAL backlog first: ops a previous incarnation consumed
  // from the queue but never acknowledged. Their tickets may still be
  // queued too; that second delivery finds the record acked (or compacted)
  // and counts as a duplicate, or is absorbed as an EEXIST replay.
  for (const std::uint64_t seq : node.wal->unacked()) {
    if (node.commit_generation != generation) co_return;
    redelivered_ctr_.add();
    // Still logged: only this loop acks records it has not reached yet (the
    // retry worker holds only records it already passed). Read before the
    // apply suspends; the ack may compact the record away.
    const OpMessage* replay = node.wal->find(seq);
    sim_.trace_note_lazy([&] {
      return "redeliver op=" + std::to_string(replay->op_id) + " path=" + replay->path;
    });
    // The replayed apply nests under a "wal.replay" span which itself hangs
    // off the op's original (still-open) commit span, so a trace shows the
    // crash-and-redeliver detour inside the one logical operation.
    CommitTicket ticket{.seq = seq, .epoch = replay->epoch};
    obs::Span replay_span(replay->span != obs::kNoSpan ? sim_.tracer() : nullptr, "wal.replay",
                          replay->span, node.node.value);
    const bool applied = co_await apply_and_account(node, seq, generation, replay_span.id());
    replay_span.finish(applied ? "ok" : "requeued");
    if (node.commit_generation != generation) co_return;
    if (!applied) {
      ++node.retrying;
      (void)node.retry_queue->try_send(ticket);
    }
  }
  for (;;) {
    auto ticket = co_await node.ordered->recv();
    if (!ticket) break;
    if (node.commit_generation != generation) co_return;  // crashed while parked
    if (ticket->barrier) {
      // A barrier may only be reported once every operation of its epoch --
      // including ones parked for resubmission -- reached the DFS.
      while (node.retrying > 0 && node.alive) {
        co_await sim_.delay(net::RetryPolicy::kBaseDelay);
        if (node.commit_generation != generation) co_return;
      }
      epochs_.node_reached_barrier(ticket->epoch);
      continue;
    }
    if (node.alive) co_await epochs_.wait_epoch_open(ticket->epoch);
    if (node.commit_generation != generation) co_return;
    const bool applied = co_await apply_and_account(node, ticket->seq, generation);
    if (node.commit_generation != generation) co_return;
    if (!applied) {
      // Independent commit: park for resubmission; keep draining the queue
      // (the op this one depends on may be right behind it).
      ++node.retrying;
      (void)node.retry_queue->try_send(*ticket);
    }
  }
}

sim::Task<> ConsistentRegion::retry_loop(NodeState& node) {
  const std::uint64_t generation = node.commit_generation;
  for (;;) {
    auto ticket = co_await node.retry_queue->recv();
    if (!ticket) break;
    if (node.commit_generation != generation) co_return;
    for (std::size_t attempt = 0;; ++attempt) {
      retries_ctr_.add();
      if (obs::Tracer* tracer = sim_.tracer(); tracer != nullptr) {
        if (const OpMessage* msg = node.wal->find(ticket->seq);
            msg != nullptr && msg->span != obs::kNoSpan) {
          tracer->event(msg->span, "commit_retry", "attempt=" + std::to_string(attempt + 1));
        }
      }
      co_await sim_.delay(kCommitRetry.backoff(attempt, rng_));
      if (node.commit_generation != generation) co_return;
      const bool applied = co_await apply_and_account(node, ticket->seq, generation);
      if (node.commit_generation != generation) co_return;
      if (applied) break;
    }
    --node.retrying;
  }
}

// lint-allow: coro-param-ref node_states_ owns every NodeState for the region's life
sim::Task<bool> ConsistentRegion::apply_and_account(NodeState& node, std::uint64_t seq,
                                                    std::uint64_t generation,
                                                    obs::SpanId span_override) {
  obs::Tracer* const tracer = sim_.tracer();
  if (node.wal->acked(seq)) {
    // Idempotency dedup: a redelivered copy of an op that already reached
    // the DFS. Applied exactly once overall; nothing left to account. A
    // compacted record's commit span was closed by its ack.
    ++duplicate_deliveries_;
    if (const OpMessage* done = node.wal->find(seq);
        tracer != nullptr && done != nullptr && done->span != obs::kNoSpan) {
      tracer->end_span(done->span, "committed");
    }
    co_return true;
  }
  // The apply below suspends, and another delivery of the same record may
  // ack it meanwhile, letting compaction drop it: work on a copy.
  const OpMessage msg = *node.wal->find(seq);
  if (!node.alive) {
    // Dead node: the op is lost (restore() repairs); account it out.
    node.wal->ack(seq);
    pending_decrement(msg);
    if (tracer != nullptr && msg.span != obs::kNoSpan) tracer->end_span(msg.span, "discarded");
    co_return true;
  }
  FsError status = FsError::io;
  {
    // The DFS apply is a child of the commit span -- unless this is a WAL
    // redelivery, whose "wal.replay" span takes over as the parent.
    const obs::SpanId apply_parent = span_override != obs::kNoSpan ? span_override : msg.span;
    obs::Span apply_span(apply_parent != obs::kNoSpan ? tracer : nullptr, "dfs.apply",
                         apply_parent, node.node.value);
    status = co_await apply_once(node, msg, apply_span.id());
    apply_span.finish(status == FsError::ok || status == FsError::exists ? "ok" : "error");
  }
  if (node.commit_generation != generation) {
    // Crashed mid-apply: whatever the DFS did is not acknowledged, so the op
    // redelivers on restart -- the at-least-once window idempotent replay
    // absorbs. Report success so the (dead) caller does not re-park it.
    // The commit span stays open; the redelivered copy closes it.
    co_return true;
  }
  if (!node.alive) {
    node.wal->ack(seq);
    pending_decrement(msg);
    if (tracer != nullptr && msg.span != obs::kNoSpan) tracer->end_span(msg.span, "discarded");
    co_return true;
  }
  if (status == FsError::ok || status == FsError::exists) {
    // exists = an idempotent replay (e.g. recovery re-commit); accept.
    committed_ctr_.add();
    node.wal->ack(seq);
    pending_decrement(msg);
    if (tracer != nullptr && msg.span != obs::kNoSpan) tracer->end_span(msg.span, "committed");
    sim_.trace_note_lazy([&] {
      return "commit op=" + std::to_string(msg.op_id) + " kind=" + to_string(msg.kind) +
             " path=" + msg.path + " node=" + std::to_string(node.node.value);
    });
    co_return true;
  }
  sim_.trace_note_lazy([&] {
    return "commit-retry op=" + std::to_string(msg.op_id) + " path=" + msg.path;
  });
  co_return false;
}

sim::Task<FsError> ConsistentRegion::apply_once(NodeState& node, const OpMessage& msg,
                                                obs::SpanId span) {
  dfs::DfsClient& io = *node.dfs_client;
  const fs::Path path = fs::Path::parse(msg.path);
  switch (msg.kind) {
    case OpMessage::Kind::mkdir: {
      auto r = co_await io.mkdir(path, msg.mode, span);
      co_return r ? FsError::ok : r.error();
    }
    case OpMessage::Kind::create: {
      auto r = co_await io.create(path, msg.mode, span);
      co_return r ? FsError::ok : r.error();
    }
    case OpMessage::Kind::remove: {
      auto r = co_await io.unlink(path, span);
      if (r || r.error() == FsError::not_found) {
        // Applied (or already gone): drop the marked cache entry now.
        (void)co_await cache_->del(node.node, msg.path, path.hash(), span);
        co_return FsError::ok;
      }
      co_return r.error();
    }
    case OpMessage::Kind::write_data: {
      auto r = co_await io.write(path, 0, msg.size, span);
      if (!r && r.error() == FsError::not_found) {
        // Either the create has not committed yet (retry) or another node's
        // remove already won (drop: a removed file's backup needs no data).
        const auto meta = found_meta(co_await get_entry(node.node, path, span));
        if (!meta || meta->removed) co_return FsError::ok;
        co_return FsError::not_found;
      }
      co_return r ? FsError::ok : r.error();
    }
    case OpMessage::Kind::barrier:
      co_return FsError::ok;  // handled by the committer directly
  }
  co_return FsError::unsupported;
}

// ---- drain / checkpoint / restore ---------------------------------------------

sim::Task<> ConsistentRegion::drain() {
  while (pending_total_ > 0) {
    drained_gate_.reset();
    co_await drained_gate_.wait();
  }
}

sim::Task<FsResult<std::uint64_t>> ConsistentRegion::checkpoint() {
  co_await drain();
  const std::uint64_t id = next_checkpoint_id_++;
  dfs::DfsClient& io = *node_states_.front()->dfs_client;
  const fs::Path dest = checkpoint_path(id);
  auto parent_made = co_await io.mkdir(fs::Path::parse("/.pacon"), fs::FileMode::dir_default());
  if (!parent_made && parent_made.error() == FsError::io) co_return fs::fail(FsError::io);
  auto copied = co_await copy_subtree(io, config_.root, dest);
  if (!copied) co_return fs::fail(copied.error());
  last_checkpoint_id_ = id;
  co_return id;
}

sim::Task<FsResult<void>> ConsistentRegion::restore(std::uint64_t id) {
  dfs::DfsClient& io = *node_states_.front()->dfs_client;
  const fs::Path src = checkpoint_path(id);
  auto exists = co_await io.getattr(src);
  if (!exists) co_return fs::fail(exists.error() == FsError::io ? FsError::io : FsError::not_found);
  // Roll the workspace subtree back to the checkpoint.
  auto removed = co_await remove_subtree(io, config_.root);
  if (!removed) co_return fs::fail(removed.error());
  auto copied = co_await copy_subtree(io, src, config_.root);
  if (!copied) co_return copied;
  // Rebuild = drop the (possibly inconsistent) cached state; it reloads
  // lazily from the DFS.
  const std::string prefix = subtree_prefix(config_.root);
  for (const auto node : config_.nodes) {
    if (!fabric_.node_up(node)) continue;
    auto& server = cache_->server_on(node);
    for (const auto& key : server.keys_with_prefix(prefix)) {
      server.apply(kv::KvRequest{kv::KvRequest::Op::del, key, {}, 0, 0});
    }
    server.apply(kv::KvRequest{kv::KvRequest::Op::del, config_.root.str(), {}, 0, 0});
  }
  co_return FsResult<void>{};
}

void ConsistentRegion::detach_failed_node(net::NodeId failed) {
  NodeState* const found = find_state(failed);
  if (found == nullptr || !found->alive) return;
  NodeState& state = *found;
  state.alive = false;
  // The node's uncommitted operations are lost (the damage restore()
  // repairs). The commit machinery stays attached and discards everything it
  // drains -- including deliveries still in flight on the wire -- through
  // the dead-node path in apply_and_account, which keeps the pending
  // accounting exact so drain() stays live.
  // Keys the dead cache server held are gone; take it out of the ring so
  // the remaining servers own the keyspace (entries rebuild from the DFS).
  cache_->remove_server(failed);
  // A barrier waiting on this node's report would hang forever: abort it so
  // the dependent op replays against the surviving membership.
  if (barrier_inflight_epoch_ && state.client_count > 0) {
    ++barrier_aborts_;
    epochs_.abort_epoch(*barrier_inflight_epoch_);
  }
}

sim::Task<FsResult<void>> ConsistentRegion::recover_from_node_failure(net::NodeId failed) {
  detach_failed_node(failed);
  sim_.trace_note_lazy([&] {
    return "recover-node node=" + std::to_string(failed.value) +
           " ckpt=" + std::to_string(last_checkpoint_id_);
  });
  if (last_checkpoint_id_ == 0) co_return FsResult<void>{};  // nothing to roll back to
  co_return co_await restore(last_checkpoint_id_);
}

void ConsistentRegion::node_recovered(net::NodeId node) {
  cache_->server_recovered(node);
  // Conservative latch reset: a rejoined cache node ends the degraded
  // window (new ops route to live servers again).
  degraded_gauge_.set(0);
}

void ConsistentRegion::crash_commit_process(net::NodeId node_id) {
  NodeState& node = state_for(node_id);
  if (!node.commit_running || !node.alive) return;
  node.commit_running = false;
  ++node.commit_generation;
  ++commit_crashes_;
  node.retrying = 0;
  node.barrier_seen.clear();
  // The committer and retry worker die with their channels: whatever they
  // held in flight stays unacknowledged in the WAL and redelivers on
  // restart. The channels are closed (waking parked loops, which observe
  // the bumped generation and exit) but parked in a graveyard rather than
  // destructed under a suspended waiter.
  node.ordered->close();
  node.retry_queue->close();
  node.dead_channels.push_back(std::move(node.ordered));
  node.dead_channels.push_back(std::move(node.retry_queue));
  node.ordered = std::make_unique<sim::Channel<CommitTicket>>(sim_);
  node.retry_queue = std::make_unique<sim::Channel<CommitTicket>>(sim_);
  sim_.trace_note_lazy([&] {
    return "commit-crash node=" + std::to_string(node_id.value) +
           " backlog=" + std::to_string(node.wal->backlog());
  });
  // A barrier mid-drain can no longer complete: this node's sentinel (or
  // its report) died with the process.
  if (barrier_inflight_epoch_ && node.client_count > 0) {
    ++barrier_aborts_;
    epochs_.abort_epoch(*barrier_inflight_epoch_);
  }
}

void ConsistentRegion::restart_commit_process(net::NodeId node_id) {
  NodeState& node = state_for(node_id);
  if (node.commit_running || !node.alive) return;
  node.commit_running = true;
  sim_.trace_note_lazy([&] {
    return "commit-restart node=" + std::to_string(node_id.value) +
           " backlog=" + std::to_string(node.wal->backlog());
  });
  sim_.spawn(committer_loop(node));
  sim_.spawn(retry_loop(node));
}

bool ConsistentRegion::commit_process_running(net::NodeId node_id) {
  return state_for(node_id).commit_running;
}

// ---- Eviction ----------------------------------------------------------------------

sim::Task<> ConsistentRegion::evictor_loop() {
  const std::uint64_t capacity =
      static_cast<std::uint64_t>(config_.nodes.size()) * config_.cache.capacity_bytes;
  const auto high = static_cast<std::uint64_t>(config_.eviction_high_water *
                                               static_cast<double>(capacity));
  const auto low = static_cast<std::uint64_t>(config_.eviction_low_water *
                                              static_cast<double>(capacity));
  for (;;) {
    co_await sim_.delay(config_.eviction_period);
    if (stop_evictor_) break;
    if (cache_->total_bytes_used() <= high) continue;

    // Enumerate current children of the region root across all servers.
    const std::string prefix = subtree_prefix(config_.root);
    std::set<std::string> children;
    for (const auto node : config_.nodes) {
      for (const auto& key : cache_->server_on(node).keys_with_prefix(prefix)) {
        std::string rest = key.substr(prefix.size());
        const auto slash = rest.find('/');
        if (slash != std::string::npos) rest.resize(slash);
        if (!rest.empty()) children.insert(std::move(rest));
      }
    }
    if (children.empty()) continue;

    // Victim order: round-robin resumes after the previous victim; the
    // naive fixed order always restarts from the first child (and thrashes
    // hot leading subtrees -- the ablation's point).
    auto cursor = config_.eviction_policy == EvictionPolicy::round_robin
                      ? children.upper_bound(eviction_cursor_)
                      : children.begin();
    std::size_t examined = 0;
    while (cache_->total_bytes_used() > low && examined < children.size()) {
      if (cursor == children.end()) cursor = children.begin();
      eviction_cursor_ = *cursor;
      const std::string victim_prefix = prefix + *cursor;
      (void)co_await evict_subtree(victim_prefix);
      ++cursor;
      ++examined;
    }
  }
}

sim::Task<std::uint64_t> ConsistentRegion::evict_subtree(const std::string& victim) {
  std::uint64_t evicted = 0;
  const std::string sub = victim + "/";
  for (const auto node : config_.nodes) {
    if (!fabric_.node_up(node)) continue;
    auto& server = cache_->server_on(node);
    for (const auto& key : server.keys_with_prefix(sub)) {
      if (pending_contains(sim::Rng::hash(key))) continue;  // only committed entries
      server.apply(kv::KvRequest{kv::KvRequest::Op::del, key, {}, 0, 0});
      ++evicted;
    }
    if (!pending_contains(sim::Rng::hash(victim))) {
      const auto r = server.apply(kv::KvRequest{kv::KvRequest::Op::del, victim, {}, 0, 0});
      if (r.status == kv::KvStatus::ok) ++evicted;
    }
  }
  evicted_entries_ += evicted;
  // Eviction is a background management sweep; charge a nominal CPU cost.
  co_await sim_.delay(1_us + evicted * 200);
  co_return evicted;
}

// ---- Subtree copy / removal on the DFS ------------------------------------------

sim::Task<FsResult<void>> ConsistentRegion::copy_subtree(dfs::DfsClient& io,
                                                         const fs::Path& from,
                                                         const fs::Path& to) {
  auto src = co_await io.getattr(from);
  if (!src) co_return fs::fail(src.error());
  auto made = co_await io.mkdir(to, src->mode);
  if (!made && made.error() != FsError::exists) co_return fs::fail(made.error());
  auto entries = co_await io.readdir(from);
  if (!entries) co_return fs::fail(entries.error());
  for (const auto& entry : *entries) {
    const fs::Path src_child = from.child(entry.name);
    const fs::Path dst_child = to.child(entry.name);
    if (entry.type == fs::FileType::directory) {
      auto sub = co_await copy_subtree(io, src_child, dst_child);
      if (!sub) co_return sub;
      continue;
    }
    auto attr = co_await io.getattr(src_child);
    if (!attr) co_return fs::fail(attr.error());
    auto created = co_await io.create(dst_child, attr->mode);
    if (!created && created.error() != FsError::exists) co_return fs::fail(created.error());
    if (attr->size > 0) {
      auto data = co_await io.read(src_child, 0, attr->size);
      if (!data) co_return fs::fail(data.error());
      auto written = co_await io.write(dst_child, 0, attr->size);
      if (!written) co_return fs::fail(written.error());
    }
  }
  co_return FsResult<void>{};
}

sim::Task<FsResult<void>> ConsistentRegion::remove_subtree(dfs::DfsClient& io,
                                                           const fs::Path& target) {
  auto entries = co_await io.readdir(target);
  if (!entries) co_return fs::fail(entries.error());
  for (const auto& entry : *entries) {
    const fs::Path child = target.child(entry.name);
    if (entry.type == fs::FileType::directory) {
      auto sub = co_await remove_subtree(io, child);
      if (!sub) co_return sub;
      auto rm = co_await io.rmdir(child);
      if (!rm && rm.error() != FsError::not_found) co_return fs::fail(rm.error());
      continue;
    }
    auto rm = co_await io.unlink(child);
    if (!rm && rm.error() != FsError::not_found) co_return fs::fail(rm.error());
  }
  co_return FsResult<void>{};
}

}  // namespace pacon::core
