#include "kv/memcache.h"

#include <cassert>

namespace pacon::kv {

MemCacheServer::MemCacheServer(sim::Simulation& sim, net::Fabric& fabric, net::NodeId node,
                               KvConfig config)
    : sim_(sim),
      node_(node),
      config_(config),
      hits_(sim.metrics().counter("kv.hits")),
      misses_(sim.metrics().counter("kv.misses")),
      stores_(sim.metrics().counter("kv.stores")) {
  net::RpcService<KvRequest, KvResponse>::Config rpc_cfg;
  rpc_cfg.workers = config_.workers;
  rpc_ = std::make_unique<net::RpcService<KvRequest, KvResponse>>(
      sim, fabric, node,
      [this](KvRequest req) -> sim::Task<KvResponse> {
        const std::uint64_t kib = (req.value.size() + 1023) / 1024;
        co_await sim_.delay(config_.op_service_time + kib * config_.per_kib_service_time);
        co_return apply(req);
      },
      rpc_cfg);
}

KvResponse MemCacheServer::apply(const KvRequest& req) {
  using Op = KvRequest::Op;
  switch (req.op) {
    case Op::get: {
      auto it = find_item(req);
      if (it == items_.end()) {
        misses_.add();
        return KvResponse{KvStatus::not_found, {}, 0, 0};
      }
      hits_.add();
      touch_lru(it->second);
      return KvResponse{KvStatus::ok, it->second.value, it->second.cas, it->second.flags};
    }
    case Op::set:
      return store(req, /*must_exist=*/false, /*must_not_exist=*/false, /*check_cas=*/false);
    case Op::add:
      return store(req, /*must_exist=*/false, /*must_not_exist=*/true, /*check_cas=*/false);
    case Op::replace:
      return store(req, /*must_exist=*/true, /*must_not_exist=*/false, /*check_cas=*/false);
    case Op::cas:
      return store(req, /*must_exist=*/true, /*must_not_exist=*/false, /*check_cas=*/true);
    case Op::del: {
      auto it = find_item(req);
      if (it == items_.end()) return KvResponse{KvStatus::not_found, {}, 0, 0};
      erase_item(it);
      return KvResponse{KvStatus::ok, {}, 0, 0};
    }
  }
  return KvResponse{KvStatus::not_found, {}, 0, 0};
}

KvResponse MemCacheServer::store(const KvRequest& req, bool must_exist, bool must_not_exist,
                                 bool check_cas) {
  auto it = find_item(req);
  if (must_exist && it == items_.end()) return KvResponse{KvStatus::not_found, {}, 0, 0};
  if (must_not_exist && it != items_.end()) return KvResponse{KvStatus::exists, {}, 0, 0};
  if (check_cas && it->second.cas != req.cas) {
    return KvResponse{KvStatus::cas_mismatch, {}, it->second.cas, it->second.flags};
  }

  const std::uint64_t new_size = item_footprint(req.key, req.value);
  const std::uint64_t old_size = it == items_.end() ? 0 : item_footprint(req.key, it->second.value);
  // Refuse before destroying the old value if eviction cannot make room.
  if (bytes_used_ - old_size + new_size > config_.capacity_bytes && !config_.lru_eviction) {
    return KvResponse{KvStatus::no_space, {}, 0, 0};
  }
  // Updates are erase + fresh insert: the old footprint is released first so
  // LRU eviction can never pick the key being written as its own victim.
  if (it != items_.end()) erase_item(it);
  if (bytes_used_ + new_size > config_.capacity_bytes && !make_room(new_size)) {
    return KvResponse{KvStatus::no_space, {}, 0, 0};
  }

  bytes_used_ += new_size;
  it = items_.emplace(req.key, Item{req.value, next_cas_++, req.flags, {}}).first;
  if (config_.lru_eviction) {
    lru_.push_front(&it->first);
    it->second.lru_pos = lru_.begin();
  }
  stores_.add();
  return KvResponse{KvStatus::ok, {}, it->second.cas, it->second.flags};
}

void MemCacheServer::touch_lru(Item& item) {
  if (config_.lru_eviction) lru_.splice(lru_.begin(), lru_, item.lru_pos);
}

bool MemCacheServer::make_room(std::uint64_t need) {
  if (!config_.lru_eviction) return false;
  while (bytes_used_ + need > config_.capacity_bytes && !lru_.empty()) {
    erase_item(items_.find(*lru_.back()));
    ++evictions_;
  }
  return bytes_used_ + need <= config_.capacity_bytes;
}

void MemCacheServer::erase_item(ItemMap::iterator it) {
  bytes_used_ -= item_footprint(it->first, it->second.value);
  if (config_.lru_eviction) lru_.erase(it->second.lru_pos);
  items_.erase(it);
}

std::vector<std::string> MemCacheServer::keys_with_prefix(const std::string& prefix) const {
  std::vector<std::string> out;
  for (const auto& [key, item] : items_) {
    if (key.starts_with(prefix)) out.push_back(key);
  }
  return out;
}

void MemCacheServer::flush() {
  items_.clear();
  lru_.clear();
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
  if (++failures >= config_.suspect_after_failures && !ring_.is_suspect(node)) {
    ring_.set_suspect(node, true);
    ++failovers_;
    sim_.trace_note_lazy([&] { return "kv-failover node=" + std::to_string(node.value); });
    return true;
  }
  return false;
}

void MemCacheCluster::note_success(net::NodeId node) { failure_slot(node) = 0; }

namespace {

constexpr const char* span_name(KvRequest::Op op) {
  switch (op) {
    case KvRequest::Op::get: return "kv.get";
    case KvRequest::Op::set: return "kv.set";
    case KvRequest::Op::add: return "kv.add";
    case KvRequest::Op::replace: return "kv.replace";
    case KvRequest::Op::del: return "kv.del";
    case KvRequest::Op::cas: return "kv.cas";
  }
  return "kv.op";
}

}  // namespace

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
    auto resp = co_await server_on(owner).call(from, KvRequest{req}, span.id());
    if (resp) {
      note_success(owner);
      span.finish("ok");
      co_return std::move(*resp);
    }
    if (note_failure(owner)) {
      span.event("kv.failover", "node=" + std::to_string(owner.value));
    }
    if (!config_.retry.should_retry(attempt)) break;
    span.event("kv.retry", "attempt=" + std::to_string(attempt + 1));
    co_await sim_.delay(config_.retry.backoff(attempt, rng_));
  }
  ++unreachable_requests_;
  span.finish("unreachable");
  co_return KvResponse{KvStatus::unreachable, {}, 0, 0};
}

sim::Task<KvResponse> MemCacheCluster::get(net::NodeId from, std::string key,
                                           std::uint64_t key_hash, obs::SpanId span) {
  return route(from, KvRequest{KvRequest::Op::get, std::move(key), {}, 0, 0, key_hash}, span);
}
sim::Task<KvResponse> MemCacheCluster::set(net::NodeId from, std::string key, std::string value,
                                           std::uint32_t flags, std::uint64_t key_hash,
                                           obs::SpanId span) {
  return route(from,
               KvRequest{KvRequest::Op::set, std::move(key), std::move(value), 0, flags, key_hash},
               span);
}
sim::Task<KvResponse> MemCacheCluster::add(net::NodeId from, std::string key, std::string value,
                                           std::uint32_t flags, std::uint64_t key_hash,
                                           obs::SpanId span) {
  return route(from,
               KvRequest{KvRequest::Op::add, std::move(key), std::move(value), 0, flags, key_hash},
               span);
}
sim::Task<KvResponse> MemCacheCluster::replace(net::NodeId from, std::string key,
                                               std::string value, std::uint32_t flags,
                                               std::uint64_t key_hash, obs::SpanId span) {
  return route(from, KvRequest{KvRequest::Op::replace, std::move(key), std::move(value), 0, flags,
                               key_hash},
               span);
}
sim::Task<KvResponse> MemCacheCluster::del(net::NodeId from, std::string key,
                                           std::uint64_t key_hash, obs::SpanId span) {
  return route(from, KvRequest{KvRequest::Op::del, std::move(key), {}, 0, 0, key_hash}, span);
}
sim::Task<KvResponse> MemCacheCluster::cas(net::NodeId from, std::string key, std::string value,
                                           std::uint64_t version, std::uint32_t flags,
                                           std::uint64_t key_hash, obs::SpanId span) {
  return route(from, KvRequest{KvRequest::Op::cas, std::move(key), std::move(value), version,
                               flags, key_hash},
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
