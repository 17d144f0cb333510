// Consistent region: one application workspace under partial consistency
// (paper Section III).
//
// A region owns:
//   * the distributed in-memory metadata cache (Memcached-like servers on
//     the application's own nodes, keyed by full path over a DHT) -- the
//     strongly-consistent primary copy;
//   * per-node commit queues and commit processes that apply
//     operations to the underlying DFS -- the asynchronously-updated backup
//     copy -- using independent commit with resubmission for non-dependent
//     operations and barrier-epoch commit for dependent ones;
//   * the batch permission table;
//   * round-robin eviction of committed subtrees under cache pressure;
//   * subtree checkpoint / rollback for client-node failure recovery.
//
// Clients (Pacon instances) register with the region and funnel operations
// on paths inside the workspace through it.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "core/commit_queue.h"
#include "core/commit_wal.h"
#include "core/epoch.h"
#include "core/meta_entry.h"
#include "core/op_message.h"
#include "core/permission.h"
#include "dfs/client.h"
#include "dfs/cluster.h"
#include "fs/error.h"
#include "fs/path.h"
#include "kv/memcache.h"
#include "obs/span_id.h"
#include "sim/disk.h"
#include "sim/metrics.h"
#include "sim/random.h"
#include "sim/simulation.h"
#include "sim/sync.h"

namespace pacon::core {

using namespace sim::literals;

/// Victim selection for cache-space eviction (Section III.F: round-robin
/// "can alleviate cache thrashing that may be caused by the simple eviction
/// policy"; fixed_order is that simple policy, kept for the ablation).
enum class EvictionPolicy : std::uint8_t { round_robin, fixed_order };

/// An application's consistent region (Section III.B: a workspace and the
/// nodes it runs on). Read only by the client that launches the region.
struct RegionConfig {
  /// Workspace root (the consistent region's subtree).
  fs::Path root;
  /// Nodes the application runs on; cache servers and commit processes are
  /// launched on each (paper: Pacon services start with the application).
  std::vector<net::NodeId> nodes;
  /// The application's system user. The workspace's normal batch permission
  /// is creator-private rwx for it (Section III.C's Linux-like default).
  fs::Credentials creds{};
  /// Small-file threshold: files up to this size (metadata + data) live
  /// inline in the cache (4 KB in the paper's prototype).
  std::uint64_t small_file_threshold = 4096;
  /// Check parent existence on create (applications that guarantee their own
  /// creation order can turn this off; Section III.C).
  bool parent_check = true;
  /// Batch permission management; off = hierarchical ancestor checks through
  /// the cache (ablation of Section III.C).
  bool batch_permission = true;
  /// Asynchronous commit; off = every mutation applied to the DFS inline
  /// (ablation of Benefit 3).
  bool async_commit = true;
  /// Per-node cache-server tuning. lru_eviction is forced off: the region's
  /// own evictor manages space (Section III.F).
  kv::KvConfig cache{};
  /// Evict when used bytes exceed this fraction of total cache capacity...
  double eviction_high_water = 0.90;
  /// ...down to this fraction.
  double eviction_low_water = 0.75;
  /// How often the evictor checks pressure.
  sim::SimDuration eviction_period = 50_ms;
  EvictionPolicy eviction_policy = EvictionPolicy::round_robin;
};

class ConsistentRegion {
 public:
  ConsistentRegion(sim::Simulation& sim, net::Fabric& fabric, dfs::DfsCluster& dfs,
                   RegionConfig config);
  ~ConsistentRegion();
  ConsistentRegion(const ConsistentRegion&) = delete;
  ConsistentRegion& operator=(const ConsistentRegion&) = delete;

  const RegionConfig& config() const { return config_; }
  const fs::Path& root() const { return config_.root; }
  PermissionTable& permissions() { return permissions_; }
  kv::MemCacheCluster& cache() { return *cache_; }

  /// True when `path` lies inside this region's workspace.
  bool contains(const fs::Path& path) const { return config_.root.is_prefix_of(path); }

  /// Registers a client process running on `node`; returns its region-wide
  /// client id (used for barrier accounting).
  std::uint32_t register_client(net::NodeId node);

  // ---- Metadata operations (invoked by Pacon clients) -------------------
  //
  // The trailing `parent` on every op is the caller's tracing context
  // (obs/trace.h): traced ops hang their cache lookups, commit-queue spans
  // and DFS round trips under it; untraced callers pay nothing.

  /// `parent_known` skips the parent-existence probe (the caller recently
  /// confirmed the parent; see Pacon's hint cache and Section III.C).
  sim::Task<fs::FsResult<void>> mkdir(net::NodeId from, std::uint32_t client,
                                      const fs::Path& path, fs::FileMode mode,
                                      bool parent_known = false,
                                      obs::SpanId parent = obs::kNoSpan);
  sim::Task<fs::FsResult<void>> create(net::NodeId from, std::uint32_t client,
                                       const fs::Path& path, fs::FileMode mode,
                                       bool parent_known = false,
                                       obs::SpanId parent = obs::kNoSpan);
  sim::Task<fs::FsResult<fs::InodeAttr>> getattr(net::NodeId from, const fs::Path& path,
                                                 obs::SpanId parent = obs::kNoSpan);
  sim::Task<fs::FsResult<void>> remove(net::NodeId from, std::uint32_t client,
                                       const fs::Path& path,
                                       obs::SpanId parent = obs::kNoSpan);
  sim::Task<fs::FsResult<void>> rmdir(net::NodeId from, fs::Path path,
                                      obs::SpanId parent = obs::kNoSpan);
  sim::Task<fs::FsResult<std::vector<fs::DirEntry>>> readdir(net::NodeId from, fs::Path path,
                                                             obs::SpanId parent = obs::kNoSpan);

  // ---- File data operations ---------------------------------------------

  sim::Task<fs::FsResult<std::uint64_t>> write(net::NodeId from, std::uint32_t client,
                                               const fs::Path& path, std::uint64_t offset,
                                               std::uint64_t length,
                                               obs::SpanId parent = obs::kNoSpan);
  sim::Task<fs::FsResult<std::uint64_t>> read(net::NodeId from, const fs::Path& path,
                                              std::uint64_t offset, std::uint64_t length,
                                              obs::SpanId parent = obs::kNoSpan);
  sim::Task<fs::FsResult<void>> fsync(net::NodeId from, const fs::Path& path,
                                      obs::SpanId parent = obs::kNoSpan);

  // ---- Region management --------------------------------------------------

  /// Waits until every operation published so far is applied to the DFS.
  sim::Task<> drain();

  /// Copies the workspace subtree on the DFS into a checkpoint; returns its
  /// id (paper Section III.G). Implies a drain.
  sim::Task<fs::FsResult<std::uint64_t>> checkpoint();

  /// Rolls the workspace back to checkpoint `id` and clears the cache
  /// (client-node failure recovery).
  sim::Task<fs::FsResult<void>> restore(std::uint64_t id);

  /// Drops node `failed` from the region (cache ring) after a crash. Entries
  /// it held are lost; uncommitted operations from its queue are lost too --
  /// exactly the damage restore() repairs.
  void detach_failed_node(net::NodeId failed);

  /// §III failure recovery in one call: detaches `failed` and rolls the
  /// workspace back to the newest checkpoint. With no checkpoint taken yet
  /// the detach still happens and the call succeeds (nothing to roll back).
  sim::Task<fs::FsResult<void>> recover_from_node_failure(net::NodeId failed);

  /// A transiently-down cache node rejoined (it was never detached): clears
  /// its suspect flag so its keyspace routes home, cold-flushing the server.
  void node_recovered(net::NodeId node);

  // ---- Commit-process fault injection -------------------------------------

  /// Kills node `node`'s commit process (committer + retry worker). Ops it
  /// held die with it; the sorter and WAL survive (client-side queue
  /// infrastructure), so everything unacknowledged replays on restart. An
  /// in-flight barrier this node participates in is aborted.
  void crash_commit_process(net::NodeId node);

  /// Restarts a crashed commit process. It first redelivers the WAL backlog
  /// (at-least-once; already-acked ops are skipped), then resumes draining
  /// the queue.
  void restart_commit_process(net::NodeId node);

  /// True while `node`'s commit process is running.
  bool commit_process_running(net::NodeId node);

  // ---- Introspection -------------------------------------------------------

  std::uint64_t pending_commits() const { return pending_total_; }
  std::uint64_t committed_ops() const { return committed_ctr_.value(); }
  std::uint64_t commit_retries() const { return retries_ctr_.value(); }
  std::uint64_t evicted_entries() const { return evicted_entries_; }
  std::uint64_t barriers_run() const { return barriers_run_; }
  std::uint64_t commit_crashes() const { return commit_crashes_; }
  std::uint64_t barrier_aborts() const { return barrier_aborts_; }
  /// Ops replayed from a WAL after a commit-process restart.
  std::uint64_t redelivered_ops() const { return redelivered_ctr_.value(); }
  /// Redelivered ops that were already acknowledged (idempotency-id dedup
  /// hits: the op reached the committer twice but the DFS only once... or
  /// twice with EEXIST absorbed -- either way applied effectively once).
  std::uint64_t duplicate_deliveries() const { return duplicate_deliveries_; }
  /// Ops that fell back to synchronous DFS commit because the cache was
  /// unreachable (degraded pass-through mode).
  std::uint64_t degraded_ops() const { return degraded_ctr_.value(); }
  /// Newest checkpoint id, or 0 when none was taken yet.
  std::uint64_t latest_checkpoint() const { return last_checkpoint_id_; }

  /// Bumped whenever anything is removed from the region; clients gate their
  /// local parent-existence hints on it.
  std::uint64_t invalidation_epoch() const { return invalidation_epoch_; }

  /// True while `path` has at least one queued-but-uncommitted operation.
  bool has_pending(const std::string& path) const {
    return pending_contains(sim::Rng::hash(path));
  }

  /// Distinct path hashes with queued-but-uncommitted operations
  /// (diagnostics / tests; bounded by in-flight ops, not namespace size).
  std::size_t pending_paths() const { return pending_by_hash_.size(); }

 private:
  struct NodeState {
    NodeState(sim::Simulation& sim, net::Fabric& fabric, net::NodeId id)
        : node(id), queue(sim, fabric, id) {}

    net::NodeId node;
    /// Ops pushed by this node's clients, drained by its sorter.
    CommitQueue queue;
    std::unique_ptr<dfs::DfsClient> dfs_client;
    /// Sorted operation stream between the sorter and committer halves of
    /// the commit process (barrier sentinels included). Tickets name WAL
    /// records; the WAL owns the messages.
    std::unique_ptr<sim::Channel<CommitTicket>> ordered;
    /// Failed commits awaiting resubmission; a separate worker retries them
    /// so one rejected operation never head-of-line blocks the queue.
    std::unique_ptr<sim::Channel<CommitTicket>> retry_queue;
    std::uint64_t retrying = 0;
    /// Node-local device for direct-I/O spill files (fsync of files whose
    /// create has not committed; Section III.D.2).
    std::unique_ptr<sim::SimDisk> spill_disk;
    /// Commit WAL and its dedicated device (modelled separately from the
    /// spill disk so log flushes never queue behind spill I/O).
    std::unique_ptr<sim::SimDisk> wal_disk;
    std::unique_ptr<CommitWal> wal;
    std::uint32_t client_count = 0;
    std::unordered_map<std::uint64_t, std::size_t> barrier_seen;  // epoch -> count
    bool alive = true;
    /// Commit-process incarnation. Bumped on crash; the committer and retry
    /// loops capture it at spawn and exit as soon as it moves on, so a loop
    /// woken from a pre-crash channel never applies post-crash work.
    std::uint64_t commit_generation = 0;
    bool commit_running = true;
    /// Channels closed by a crash are parked here, not destructed: loops may
    /// still be suspended in their wait queues until the close wakes them.
    std::vector<std::unique_ptr<sim::Channel<CommitTicket>>> dead_channels;
  };

  /// Permission check dispatch: batch (local) or hierarchical (ablation).
  sim::Task<fs::FsResult<void>> check_permission(net::NodeId from, const fs::Path& path,
                                                 fs::Access access,
                                                 obs::SpanId span = obs::kNoSpan);
  sim::Task<fs::FsResult<void>> check_parent(net::NodeId from, const fs::Path& path,
                                             obs::SpanId span = obs::kNoSpan);
  /// check_parent's cold branch: loads an uncached parent from the DFS.
  sim::Task<fs::FsResult<void>> load_parent(net::NodeId from, fs::Path parent, obs::SpanId span);

  /// getattr's cold branch: loads an uncached entry from the DFS and caches it.
  sim::Task<fs::FsResult<fs::InodeAttr>> load_attr(net::NodeId from, fs::Path path,
                                                   obs::SpanId span);

  /// Inserts a new entry and publishes its commit message.
  sim::Task<fs::FsResult<void>> create_common(net::NodeId from, std::uint32_t client,
                                              const fs::Path& path, fs::FileMode mode,
                                              fs::FileType type, bool parent_known,
                                              obs::SpanId parent);
  /// create_common's cold branches (degraded pass-through and the
  /// synchronous-commit ablation): the create applied straight to the DFS.
  sim::Task<fs::FsResult<void>> commit_on_dfs(net::NodeId from, fs::Path path, fs::FileMode mode,
                                              fs::FileType type, obs::SpanId parent);
  /// Encoded cache entry of a freshly created file or directory. Plain
  /// helpers like this one and make_op keep their temporaries out of the
  /// calling coroutine's frame.
  std::string new_entry_value(fs::FileMode mode, fs::FileType type) const;
  /// Commit message for `kind` on `path`, its path hash stamped from the
  /// path's cached one.
  OpMessage make_op(OpMessage::Kind kind, const fs::Path& path, fs::FileMode mode = {}) const;

  /// The kv get of `path`'s cache entry; decode the reply with
  /// found_meta(). A plain function: the request copies the key before it
  /// returns, so the awaiting frame holds no copy of it. The path's cached
  /// hash rides along so the cluster router and server skip rehashing.
  // lint-allow: coro-param-ref plain function: copies the key into the request before returning
  sim::Task<kv::KvResponse> get_entry(net::NodeId from, const fs::Path& path,
                                      obs::SpanId span) const;

  /// Publishes `msg` on `client`'s node queue. A traced caller (`parent`)
  /// gets a "commit" span opened here and carried inside the message; it
  /// stays open across the queue hop (and any WAL redelivery) until
  /// apply_and_account closes it with the op's fate.
  void publish(std::uint32_t client, OpMessage msg, obs::SpanId parent = obs::kNoSpan);

  /// Degraded pass-through bookkeeping: counter + latch gauge + a tagged
  /// event on the traced caller's span.
  void note_degraded(obs::SpanId span);

  struct BarrierResult {
    std::uint64_t epoch = 0;
    /// False when the barrier was aborted (commit-process crash mid-epoch):
    /// the caller must complete the epoch and replay the barrier before
    /// running its dependent op.
    bool ok = true;
  };

  /// Runs one barrier: all clients emit barrier messages; waits until every
  /// commit process drained the epoch (or the epoch aborts).
  sim::Task<BarrierResult> run_barrier(net::NodeId from, obs::SpanId parent = obs::kNoSpan);

  /// Runs the dependent op `op()` (a sim::Task<fs::FsResult<T>>) behind a
  /// barrier, then completes the epoch. An aborted barrier and an io
  /// (transport) failure of the op both replay barrier and op after
  /// kBarrierRetryDelay; the two share one budget of kBarrierRetryLimit
  /// attempts, after which the result is FsError::io.
  template <typename Op>
  std::invoke_result_t<Op&> behind_barrier(net::NodeId from, obs::SpanId parent, Op op);
  /// rmdir's dependent op: the DFS rmdir, then the cached subtree's cleanup.
  sim::Task<fs::FsResult<void>> rmdir_on_dfs(net::NodeId from, fs::Path path, obs::SpanId parent);

  sim::Task<> sorter_loop(NodeState& node);
  sim::Task<> committer_loop(NodeState& node);
  sim::Task<> retry_loop(NodeState& node);
  /// One commit attempt of WAL record `seq` incl. bookkeeping; false = needs
  /// resubmission. A record already acked (or compacted away) is an acked
  /// duplicate. `generation` is the commit-process incarnation the caller
  /// belongs to: a crash mid-apply means the result is neither acked nor
  /// accounted (the op redelivers -- the at-least-once window).
  /// `span_override` re-parents the "dfs.apply" child span (WAL redelivery
  /// hangs the replayed apply under its "wal.replay" span instead of
  /// directly under the commit span).
  // lint-allow: coro-param-ref node_states_ owns every NodeState for the region's life
  sim::Task<bool> apply_and_account(NodeState& node, std::uint64_t seq,
                                    std::uint64_t generation,
                                    obs::SpanId span_override = obs::kNoSpan);
  sim::Task<fs::FsError> apply_once(NodeState& node, const OpMessage& msg,
                                    obs::SpanId span = obs::kNoSpan);

  /// The member node's state, or nullptr for a node outside the region.
  NodeState* find_state(net::NodeId node);
  /// A member node's state (commit side, spill disk); asserts membership.
  NodeState& state_for(net::NodeId node);
  /// The DFS client a request from `node` goes through: the member node's
  /// own, or -- for a merged reader on a node outside the region -- one the
  /// region makes for that node on first use, with the region's creds.
  dfs::DfsClient& dfs_for(net::NodeId node);
  fs::Path checkpoint_path(std::uint64_t id) const;
  /// Pending-commit bookkeeping keyed by the path hash make_op stamped into
  /// the message; the commit side reuses it and never rehashes the path.
  void pending_increment(const OpMessage& msg);
  void pending_decrement(const OpMessage& msg);
  bool pending_contains(std::uint64_t hash) const {
    return pending_by_hash_.find(hash) != pending_by_hash_.end();
  }

  sim::Task<> evictor_loop();
  sim::Task<std::uint64_t> evict_subtree(const std::string& prefix);

  /// Recursive DFS subtree copy (checkpoint) and removal (restore).
  sim::Task<fs::FsResult<void>> copy_subtree(dfs::DfsClient& io, const fs::Path& from,
                                             const fs::Path& to);
  sim::Task<fs::FsResult<void>> remove_subtree(dfs::DfsClient& io, const fs::Path& target);

  sim::Simulation& sim_;
  net::Fabric& fabric_;
  dfs::DfsCluster& dfs_;
  RegionConfig config_;
  PermissionTable permissions_;

  std::unique_ptr<kv::MemCacheCluster> cache_;
  std::vector<std::unique_ptr<NodeState>> node_states_;
  /// dfs_for's clients on non-member nodes (merged readers), one per node.
  std::vector<std::unique_ptr<dfs::DfsClient>> reader_dfs_;
  // Client ids are dense (next_client_id_++), so the per-client tables are
  // plain vectors indexed by id: no hashing on the publish path, and the
  // barrier broadcast iterates in deterministic id order for free.
  std::vector<NodeState*> clients_;            // client id -> home node
  std::vector<std::uint64_t> client_epochs_;   // client id -> current epoch

  EpochCoordinator epochs_;
  sim::Mutex barrier_mutex_;
  /// Epoch of the barrier currently between broadcast and drained (guarded
  /// by barrier_mutex_); crash paths abort it so the waiter can replay.
  std::optional<std::uint64_t> barrier_inflight_epoch_;
  /// Jitter stream for commit-retry backoff.
  sim::Rng rng_;

  // Pending-commit bookkeeping: paths with queued-but-uncommitted ops are
  // protected from eviction; the drain() primitive waits on the total.
  // Keyed by the path's 64-bit hash (stamped into the message at publish,
  // reused on the commit side) and erased at zero, so the table stays
  // bounded by in-flight ops and cache-hot regardless of namespace size --
  // a create storm over millions of distinct paths never grows it. A hash
  // collision between two concurrently-pending paths (~2^-64 per pair)
  // only over-protects an entry from eviction; totals stay exact.
  std::unordered_map<std::uint64_t, std::uint32_t> pending_by_hash_;
  std::uint64_t pending_total_ = 0;
  sim::Gate drained_gate_;

  // Round-robin eviction cursor (name of the last evicted root child).
  std::string eviction_cursor_;
  bool stop_evictor_ = false;

  std::uint64_t next_checkpoint_id_ = 1;
  std::uint64_t last_checkpoint_id_ = 0;
  std::uint64_t next_op_id_ = 0;
  std::uint32_t next_client_id_ = 0;
  std::uint64_t invalidation_epoch_ = 0;
  std::uint64_t evicted_entries_ = 0;
  std::uint64_t barriers_run_ = 0;
  std::uint64_t commit_crashes_ = 0;
  std::uint64_t barrier_aborts_ = 0;
  std::uint64_t duplicate_deliveries_ = 0;

  // Scoped metric handles under "region.<root>" (see DESIGN.md section 11),
  // resolved once at construction: registry lookups are string-keyed map
  // walks, too slow for the per-op paths that update these. The counters
  // are the only record of the statistics their accessors report; a
  // RegionRegistry holds one region per root, so no two regions of one
  // simulation share them.
  sim::Gauge& queue_depth_gauge_;   // commit_queue_depth: queued-not-committed ops
  sim::Gauge& degraded_gauge_;      // degraded_latch: 1 after any pass-through op
  sim::Counter& committed_ctr_;
  sim::Counter& retries_ctr_;
  sim::Counter& redelivered_ctr_;
  sim::Counter& degraded_ctr_;
};

}  // namespace pacon::core
