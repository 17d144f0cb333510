#include "kv/memcache.h"

#include <cassert>
#include <cstring>
#include <new>

#include "net/retry.h"

namespace pacon::kv {

namespace {

/// Server-side service time per operation (hash lookup + bookkeeping).
constexpr sim::SimDuration kOpServiceTime = 1'500_ns;
/// Additional service time per KiB of value moved.
constexpr sim::SimDuration kPerKibServiceTime = 200_ns;
/// RPC worker pool of the cache daemon.
constexpr std::size_t kServerWorkers = 4;
/// Client-side retry/backoff for cluster requests (net/retry.h); jitter
/// comes from the cluster's forked sim Rng stream.
constexpr net::RetryPolicy kClusterRetry{};
/// Consecutive RPC failures against one server before the ring marks it
/// suspect and its keyspace fails over to the clockwise successor.
constexpr std::size_t kSuspectAfterFailures = 2;

constexpr const char* span_name(KvRequest::Op op) {
  switch (op) {
    case KvRequest::Op::get: return "kv.get";
    case KvRequest::Op::set: return "kv.set";
    case KvRequest::Op::add: return "kv.add";
    case KvRequest::Op::del: return "kv.del";
    case KvRequest::Op::cas: return "kv.cas";
  }
  return "kv.op";
}

}  // namespace

MemCacheServer::MemCacheServer(sim::Simulation& sim, net::Fabric& fabric, net::NodeId node,
                               KvConfig config)
    : sim_(sim),
      node_(node),
      config_(config),
      hits_(sim.metrics().counter("kv.hits")),
      misses_(sim.metrics().counter("kv.misses")),
      stores_(sim.metrics().counter("kv.stores")) {
  net::RpcService<KvRequest, KvResponse>::Config rpc_cfg;
  rpc_cfg.workers = kServerWorkers;
  rpc_ = std::make_unique<net::RpcService<KvRequest, KvResponse>>(
      sim, fabric, node,
      [this](KvRequest req) -> sim::Task<KvResponse> {
        const std::uint64_t kib = (req.value.size() + 1023) / 1024;
        co_await sim_.delay(kOpServiceTime + kib * kPerKibServiceTime);
        co_return apply(req);
      },
      rpc_cfg);
}

KvResponse MemCacheServer::apply(const KvRequest& req) {
  using Op = KvRequest::Op;
  switch (req.op) {
    case Op::get: {
      const Slot* slot = find_slot(probe(req));
      if (slot == nullptr) {
        misses_.add();
        return KvResponse{KvStatus::not_found, {}, 0};
      }
      hits_.add();
      Item* item = slot->item.get();
      if (config_.lru_eviction) {
        lru_unlink(item);
        lru_push_front(item);
      }
      return KvResponse{KvStatus::ok, std::string(item->value()), item->cas};
    }
    case Op::set:
    case Op::add:
    case Op::cas:
      return store(req);
    case Op::del: {
      Slot* slot = find_slot(probe(req));
      if (slot == nullptr) return KvResponse{KvStatus::not_found, {}, 0};
      erase_item(slot);
      return KvResponse{KvStatus::ok, {}, 0};
    }
  }
  return KvResponse{KvStatus::not_found, {}, 0};
}

KvResponse MemCacheServer::store(const KvRequest& req) {
  using Op = KvRequest::Op;
  const PrehashedKey key = probe(req);
  Slot* slot = find_slot(key);
  if (req.op == Op::add && slot != nullptr) return KvResponse{KvStatus::exists, {}, 0};
  if (req.op == Op::cas) {
    if (slot == nullptr) return KvResponse{KvStatus::not_found, {}, 0};
    if (slot->item->cas != req.cas) return KvResponse{KvStatus::cas_mismatch, {}, slot->item->cas};
  }

  const std::uint64_t new_size = item_footprint(req.key.size(), req.value.size());
  const std::uint64_t old_size =
      slot == nullptr ? 0 : item_footprint(slot->item->key_len, slot->item->value_len);
  // Refuse before destroying the old value if eviction cannot make room.
  if (bytes_used_ - old_size + new_size > config_.capacity_bytes && !config_.lru_eviction) {
    return KvResponse{KvStatus::no_space, {}, 0};
  }
  // Updates are erase + fresh insert: the old footprint is released first so
  // LRU eviction can never pick the key being written as its own victim.
  if (slot != nullptr) erase_item(slot);
  if (bytes_used_ + new_size > config_.capacity_bytes && !make_room(new_size)) {
    return KvResponse{KvStatus::no_space, {}, 0};
  }

  bytes_used_ += new_size;
  Item* item = items_.insert(key.hash, Slot{.item = make_item(req, next_cas_++)}).item.get();
  if (config_.lru_eviction) lru_push_front(item);
  stores_.add();
  return KvResponse{KvStatus::ok, {}, item->cas};
}

MemCacheServer::ItemPtr MemCacheServer::make_item(const KvRequest& req, std::uint64_t cas) const {
  const std::size_t bytes = config_.lru_eviction
                                ? links_offset(req.key.size(), req.value.size()) + sizeof(LruLinks)
                                : sizeof(Item) + req.key.size() + req.value.size();
  ItemPtr item(new (::operator new(bytes))
                   Item{.cas = cas,
                        .key_len = static_cast<std::uint32_t>(req.key.size()),
                        .value_len = static_cast<std::uint32_t>(req.value.size())});
  char* out = reinterpret_cast<char*>(item.get() + 1);
  std::memcpy(out, req.key.data(), req.key.size());
  std::memcpy(out + req.key.size(), req.value.data(), req.value.size());
  return item;
}

void MemCacheServer::lru_push_front(Item* item) {
  links(item) = LruLinks{.prev = nullptr, .next = lru_head_};
  (lru_head_ != nullptr ? links(lru_head_).prev : lru_tail_) = item;
  lru_head_ = item;
}

void MemCacheServer::lru_unlink(Item* item) {
  const LruLinks& l = links(item);
  (l.prev != nullptr ? links(l.prev).next : lru_head_) = l.next;
  (l.next != nullptr ? links(l.next).prev : lru_tail_) = l.prev;
}

bool MemCacheServer::make_room(std::uint64_t need) {
  if (!config_.lru_eviction) return false;
  while (bytes_used_ + need > config_.capacity_bytes && lru_tail_ != nullptr) {
    const std::string_view victim = lru_tail_->key();
    erase_item(find_slot(PrehashedKey{victim, sim::Rng::hash(victim)}));
    ++evictions_;
  }
  return bytes_used_ + need <= config_.capacity_bytes;
}

void MemCacheServer::erase_item(Slot* slot) {
  Item* item = slot->item.get();
  bytes_used_ -= item_footprint(item->key_len, item->value_len);
  if (config_.lru_eviction) lru_unlink(item);
  items_.erase(slot);
}

std::vector<std::string> MemCacheServer::keys_with_prefix(const std::string& prefix) const {
  std::vector<std::string> out;
  items_.for_each([&](const Slot& slot) {
    if (slot.item->key().starts_with(prefix)) out.emplace_back(slot.item->key());
  });
  return out;
}

void MemCacheServer::flush() {
  items_.clear();
  lru_head_ = nullptr;
  lru_tail_ = nullptr;
  bytes_used_ = 0;
}

MemCacheCluster::MemCacheCluster(sim::Simulation& sim, net::Fabric& fabric, KvConfig config)
    : sim_(sim), fabric_(fabric), config_(config), rng_(sim.rng().fork("kv-cluster")) {}

MemCacheServer& MemCacheCluster::add_server(net::NodeId node) {
  servers_.push_back(std::make_unique<MemCacheServer>(sim_, fabric_, node, config_));
  if (node.value >= by_node_.size()) by_node_.resize(node.value + 1, nullptr);
  by_node_[node.value] = servers_.back().get();
  ring_.add_node(node);
  return *servers_.back();
}

void MemCacheCluster::remove_server(net::NodeId node) { ring_.remove_node(node); }

void MemCacheCluster::server_recovered(net::NodeId node) {
  failure_slot(node) = 0;
  if (!ring_.is_suspect(node)) return;
  server_on(node).flush();
  ring_.set_suspect(node, false);
  sim_.trace_note_lazy([&] { return "kv-rejoin node=" + std::to_string(node.value); });
}

MemCacheServer& MemCacheCluster::server_on(net::NodeId node) {
  assert(node.value < by_node_.size() && by_node_[node.value] != nullptr);
  return *by_node_[node.value];
}

std::uint32_t& MemCacheCluster::failure_slot(net::NodeId node) {
  if (node.value >= failures_by_node_.size()) failures_by_node_.resize(node.value + 1, 0);
  return failures_by_node_[node.value];
}

bool MemCacheCluster::note_failure(net::NodeId node) {
  std::uint32_t& failures = failure_slot(node);
  if (++failures >= kSuspectAfterFailures && !ring_.is_suspect(node)) {
    ring_.set_suspect(node, true);
    ++failovers_;
    sim_.trace_note_lazy([&] { return "kv-failover node=" + std::to_string(node.value); });
    return true;
  }
  return false;
}

void MemCacheCluster::note_success(net::NodeId node) { failure_slot(node) = 0; }

sim::Task<KvResponse> MemCacheCluster::route(net::NodeId from, KvRequest req,
                                             obs::SpanId parent) {
  assert(!ring_.empty());
  // Route on the caller-supplied hash when present; fill it in otherwise so
  // the server's item table reuses it too.
  if (req.key_hash == 0) req.key_hash = sim::Rng::hash(req.key);
  // Traced requests get one span over the whole routing loop; individual
  // wire attempts, retries and ring failovers land on it as child rpc spans
  // and tagged events.
  obs::Span span(parent != obs::kNoSpan ? sim_.tracer() : nullptr, span_name(req.op), parent,
                 from.value);
  // Each attempt re-resolves the owner: once repeated failures mark a node
  // suspect, the ring routes the key to its clockwise successor, so a retry
  // after failover lands on a live server. Once the retries run out callers
  // see KvStatus::unreachable and degrade to DFS pass-through.
  for (std::size_t attempt = 0;; ++attempt) {
    if (ring_.live_node_count() == 0) break;  // every server suspect: give up
    const net::NodeId owner = ring_.node_for_hash(req.key_hash);
    auto resp = co_await send_to(req, owner, from, span.id());
    if (resp) {
      note_success(owner);
      span.finish("ok");
      co_return std::move(*resp);
    }
    if (note_failure(owner)) {
      span.event("kv.failover", "node=" + std::to_string(owner.value));
    }
    if (!kClusterRetry.should_retry(attempt)) break;
    span.event("kv.retry", "attempt=" + std::to_string(attempt + 1));
    co_await sim_.delay(kClusterRetry.backoff(attempt, rng_));
  }
  ++unreachable_requests_;
  span.finish("unreachable");
  co_return KvResponse{KvStatus::unreachable, {}, 0};
}

// lint-allow: coro-param-ref plain function: copies the request into the call before returning
sim::Task<net::RpcResult<KvResponse>> MemCacheCluster::send_to(const KvRequest& req,
                                                               net::NodeId owner,
                                                               net::NodeId from,
                                                               obs::SpanId span) {
  return server_on(owner).call(from, KvRequest{req}, span);
}

sim::Task<KvResponse> MemCacheCluster::get(net::NodeId from, std::string key,
                                           std::uint64_t key_hash, obs::SpanId span) {
  return route(from, KvRequest{KvRequest::Op::get, std::move(key), {}, 0, key_hash}, span);
}
sim::Task<KvResponse> MemCacheCluster::set(net::NodeId from, std::string key, std::string value,
                                           std::uint64_t key_hash, obs::SpanId span) {
  return route(from, KvRequest{KvRequest::Op::set, std::move(key), std::move(value), 0, key_hash},
               span);
}
sim::Task<KvResponse> MemCacheCluster::add(net::NodeId from, std::string key, std::string value,
                                           std::uint64_t key_hash, obs::SpanId span) {
  return route(from, KvRequest{KvRequest::Op::add, std::move(key), std::move(value), 0, key_hash},
               span);
}
sim::Task<KvResponse> MemCacheCluster::del(net::NodeId from, std::string key,
                                           std::uint64_t key_hash, obs::SpanId span) {
  return route(from, KvRequest{KvRequest::Op::del, std::move(key), {}, 0, key_hash}, span);
}
sim::Task<KvResponse> MemCacheCluster::cas(net::NodeId from, std::string key, std::string value,
                                           std::uint64_t version, std::uint64_t key_hash,
                                           obs::SpanId span) {
  return route(from,
               KvRequest{KvRequest::Op::cas, std::move(key), std::move(value), version, key_hash},
               span);
}

std::uint64_t MemCacheCluster::total_bytes_used() const {
  std::uint64_t total = 0;
  for (const auto& s : servers_) total += s->bytes_used();
  return total;
}

std::uint64_t MemCacheCluster::total_items() const {
  std::uint64_t total = 0;
  for (const auto& s : servers_) total += s->item_count();
  return total;
}

}  // namespace pacon::kv
