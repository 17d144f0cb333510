// In-memory KV cache server and cluster client (Memcached substitute).
//
// Implements the Memcached semantics this repo uses: get / add / del and
// versioned compare-and-swap (CAS) for Pacon (paper Table I), set for the
// memaslap-style load, byte-accurate memory accounting, optional LRU
// eviction.
// Every server is reachable over the simulated fabric through an RPC service
// whose worker pool and service time model a real cache daemon.
//
// MemCacheCluster spreads keys over many servers with a consistent-hash ring
// -- the "Memcached + DHT" construction of the paper (Section III.A).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "kv/hash_ring.h"
#include "net/fabric.h"
#include "obs/span_id.h"
#include "net/rpc.h"
#include "sim/random.h"
#include "sim/simulation.h"

namespace pacon::kv {

using namespace sim::literals;

enum class KvStatus : std::uint8_t {
  ok,
  not_found,      // get/del/cas on a missing key
  exists,         // add on a present key
  cas_mismatch,   // cas with a stale version
  no_space,       // store full and eviction disabled
  unreachable,    // retries + failover exhausted: no live server for the key
};

struct KvConfig {
  /// Memory capacity in bytes (key + value + per-item overhead).
  std::uint64_t capacity_bytes = 512ull << 20;
  /// Per-item metadata overhead, mirroring memcached's item header.
  std::uint64_t item_overhead_bytes = 56;
  /// Evict least-recently-used items when full (memcached default). Pacon
  /// turns this off and drives eviction itself (Section III.F).
  bool lru_eviction = true;
};

struct KvRequest {
  enum class Op : std::uint8_t { get, set, add, del, cas } op = Op::get;
  std::string key;
  std::string value;
  std::uint64_t cas = 0;
  /// Pre-computed sim::Rng::hash(key), or 0 for "unknown". Callers that hold
  /// a fs::Path pass its cached hash so neither the ring router nor the
  /// server's item table rehashes the key string.
  std::uint64_t key_hash = 0;
};

/// Item-table probe: a key and its sim::Rng::hash, computed once per
/// request (or carried in from the caller's fs::Path).
struct PrehashedKey {
  std::string_view key;
  std::uint64_t hash;  // == sim::Rng::hash(key)
};

struct KvResponse {
  KvStatus status = KvStatus::ok;
  std::string value;
  std::uint64_t cas = 0;
};

/// One cache daemon on one node.
class MemCacheServer {
 public:
  MemCacheServer(sim::Simulation& sim, net::Fabric& fabric, net::NodeId node,
                 KvConfig config = {});
  MemCacheServer(const MemCacheServer&) = delete;
  MemCacheServer& operator=(const MemCacheServer&) = delete;

  net::NodeId node() const { return node_; }

  /// RPC entry point used by clients.
  sim::Task<net::RpcResult<KvResponse>> call(net::NodeId from, KvRequest req,
                                             obs::SpanId parent = obs::kNoSpan) {
    return rpc_->call(from, std::move(req), parent);
  }

  /// Direct (local, zero-cost) application of a request; used by the RPC
  /// handler and by tests that probe semantics without wire time.
  KvResponse apply(const KvRequest& req);

  std::uint64_t bytes_used() const { return bytes_used_; }
  std::uint64_t item_count() const { return items_.size(); }
  std::uint64_t evictions() const { return evictions_; }

  /// Enumerates keys with a given prefix. The real daemon lacks this; the
  /// region calls it to clean a removed directory's cached subtree (rmdir),
  /// to evict and to restore, and the consistency audit to snapshot the
  /// cache. No create, lookup or write calls it.
  std::vector<std::string> keys_with_prefix(const std::string& prefix) const;

  /// Drops every item (cold restart). A server rejoining after a suspected
  /// outage must come back empty: values written while its keyspace was
  /// failed over to the successor would otherwise resurrect stale data.
  void flush();

 private:
  /// One cached item in a single allocation, laid out like a memcached slab
  /// item: this header, then the key bytes, then the value bytes and, when
  /// lru_eviction is on, the item's LRU links (8-byte aligned). A region's
  /// cache runs without LRU, so its items carry no links at all.
  struct Item {
    std::uint64_t cas;
    std::uint32_t key_len;
    std::uint32_t value_len;

    const char* bytes() const { return reinterpret_cast<const char*>(this + 1); }
    std::string_view key() const { return {bytes(), key_len}; }
    std::string_view value() const { return {bytes() + key_len, value_len}; }
  };
  /// Recency neighbours, front = most recent.
  struct LruLinks {
    Item* prev;
    Item* next;
  };
  struct ItemFree {
    void operator()(Item* item) const noexcept { ::operator delete(item); }
  };
  using ItemPtr = std::unique_ptr<Item, ItemFree>;

  /// Item-table element: the owning pointer plus the key's hash. Keeping
  /// the hash in the element means rehashes and bucket walks never re-hash
  /// a key, and a probe compares hashes before it touches an item.
  struct Slot {
    std::uint64_t hash;
    ItemPtr item;
  };
  struct SlotHash {
    using is_transparent = void;
    std::size_t operator()(const Slot& s) const noexcept {
      return static_cast<std::size_t>(s.hash);
    }
    std::size_t operator()(const PrehashedKey& k) const noexcept {
      return static_cast<std::size_t>(k.hash);
    }
  };
  struct SlotEq {
    using is_transparent = void;
    bool operator()(const Slot& a, const Slot& b) const noexcept {
      return a.hash == b.hash && a.item->key() == b.item->key();
    }
    bool operator()(const PrehashedKey& k, const Slot& s) const noexcept {
      return k.hash == s.hash && k.key == s.item->key();
    }
    bool operator()(const Slot& s, const PrehashedKey& k) const noexcept { return (*this)(k, s); }
  };
  using ItemTable = std::unordered_set<Slot, SlotHash, SlotEq>;

  std::uint64_t item_footprint(std::size_t key_len, std::size_t value_len) const {
    return key_len + value_len + config_.item_overhead_bytes;
  }
  /// Table lookup using the request's pre-computed hash when present.
  static PrehashedKey probe(const KvRequest& req) {
    return {req.key, req.key_hash != 0 ? req.key_hash : sim::Rng::hash(req.key)};
  }
  static std::size_t links_offset(std::size_t key_len, std::size_t value_len) {
    return (sizeof(Item) + key_len + value_len + alignof(LruLinks) - 1) &
           ~(alignof(LruLinks) - 1);
  }
  static LruLinks& links(Item* item) {
    return *reinterpret_cast<LruLinks*>(reinterpret_cast<char*>(item) +
                                        links_offset(item->key_len, item->value_len));
  }
  ItemPtr make_item(const KvRequest& req, std::uint64_t cas) const;
  void lru_push_front(Item* item);
  void lru_unlink(Item* item);
  bool make_room(std::uint64_t need);
  void erase_item(ItemTable::iterator it);
  /// set, add and cas: an add needs the key absent, a cas the key present
  /// at version `req.cas`.
  KvResponse store(const KvRequest& req);

  sim::Simulation& sim_;
  net::NodeId node_;
  KvConfig config_;
  // Grows with its contents: the servers run on the application's compute
  // nodes, so an idle server should not hold a pre-sized bucket array.
  ItemTable items_;
  // Intrusive recency list through the items' links; kept only when
  // lru_eviction is on. A get or a store relinks an item without touching
  // the heap.
  Item* lru_head_ = nullptr;
  Item* lru_tail_ = nullptr;
  std::uint64_t bytes_used_ = 0;
  std::uint64_t next_cas_ = 1;
  std::uint64_t evictions_ = 0;
  // Metric handles resolved once at construction (registry lookups are
  // string-keyed map walks; the refs stay valid for the registry's life).
  sim::Counter& hits_;
  sim::Counter& misses_;
  sim::Counter& stores_;
  std::unique_ptr<net::RpcService<KvRequest, KvResponse>> rpc_;
};

/// Client view of a set of cache servers behind a consistent-hash ring.
class MemCacheCluster {
 public:
  MemCacheCluster(sim::Simulation& sim, net::Fabric& fabric, KvConfig config = {});

  /// Starts a server on `node` and adds it to the ring.
  MemCacheServer& add_server(net::NodeId node);

  /// Takes `node` out of the ring (failure handling). Its keys remap to the
  /// surviving servers; the server object itself is kept (it may be dead).
  void remove_server(net::NodeId node);

  /// A suspected server came back: clears the suspect flag so its keyspace
  /// routes home again, and flushes the server (cold rejoin -- see
  /// MemCacheServer::flush). No-op for servers never marked suspect.
  void server_recovered(net::NodeId node);

  /// Administratively fences a server (fault injection / maintenance): it is
  /// marked suspect immediately, without waiting for RPC failures to
  /// accumulate. Undo with server_recovered().
  void fence_server(net::NodeId node) { ring_.set_suspect(node, true); }

  std::size_t server_count() const { return servers_.size(); }
  const HashRing& ring() const { return ring_; }
  MemCacheServer& server_on(net::NodeId node);

  /// Times a server's keyspace was failed over to its ring successor.
  std::uint64_t failovers() const { return failovers_; }
  /// Cluster requests that exhausted retries (returned KvStatus::unreachable).
  std::uint64_t unreachable_requests() const { return unreachable_requests_; }

  /// Cluster ops, issued from `from`; routed by key hash. The trailing
  /// `key_hash` (sim::Rng::hash of the key, e.g. fs::Path::hash()) lets the
  /// router and server skip rehashing; 0 = compute here. `span` is the
  /// caller's tracing context: traced requests get a "kv.<op>" child span
  /// covering routing, retries and ring failover.
  sim::Task<KvResponse> get(net::NodeId from, std::string key, std::uint64_t key_hash = 0,
                            obs::SpanId span = obs::kNoSpan);
  sim::Task<KvResponse> set(net::NodeId from, std::string key, std::string value,
                            std::uint64_t key_hash = 0, obs::SpanId span = obs::kNoSpan);
  sim::Task<KvResponse> add(net::NodeId from, std::string key, std::string value,
                            std::uint64_t key_hash = 0, obs::SpanId span = obs::kNoSpan);
  sim::Task<KvResponse> del(net::NodeId from, std::string key, std::uint64_t key_hash = 0,
                            obs::SpanId span = obs::kNoSpan);
  sim::Task<KvResponse> cas(net::NodeId from, std::string key, std::string value,
                            std::uint64_t version, std::uint64_t key_hash = 0,
                            obs::SpanId span = obs::kNoSpan);

  std::uint64_t total_bytes_used() const;
  std::uint64_t total_items() const;

 private:
  sim::Task<KvResponse> route(net::NodeId from, KvRequest req, obs::SpanId parent);
  /// One wire attempt of route(): sends a copy of `req` to `owner`. A plain
  /// function, so the per-attempt copy never occupies route's frame.
  // lint-allow: coro-param-ref plain function: copies the request into the call before returning
  sim::Task<net::RpcResult<KvResponse>> send_to(const KvRequest& req, net::NodeId owner,
                                                net::NodeId from, obs::SpanId span);
  /// Returns true when this failure is the one that marked the node suspect
  /// (its keyspace just failed over to the ring successor).
  bool note_failure(net::NodeId node);
  void note_success(net::NodeId node);
  std::uint32_t& failure_slot(net::NodeId node);

  sim::Simulation& sim_;
  net::Fabric& fabric_;
  KvConfig config_;
  HashRing ring_;
  std::vector<std::unique_ptr<MemCacheServer>> servers_;
  // Dense NodeId.value -> server routing table (node ids are small and
  // contiguous in practice); server_on is on the per-op request path.
  std::vector<MemCacheServer*> by_node_;
  /// Backoff jitter stream; forked from the sim root so retry schedules are
  /// reproducible per seed.
  sim::Rng rng_;
  /// Dense NodeId.value -> consecutive RPC-failure count (suspicion input).
  std::vector<std::uint32_t> failures_by_node_;
  std::uint64_t failovers_ = 0;
  std::uint64_t unreachable_requests_ = 0;
};

}  // namespace pacon::kv
