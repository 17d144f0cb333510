#include "kv/hash_ring.h"

#include <algorithm>
#include <cassert>

#include "sim/random.h"

namespace pacon::kv {

namespace {

bool point_less(const std::pair<std::uint64_t, net::NodeId>& a, std::uint64_t b) {
  return a.first < b;
}

}  // namespace

std::uint64_t HashRing::point(net::NodeId node, std::uint32_t replica) {
  // Mix node and replica through splitmix-style avalanche.
  std::uint64_t x = (static_cast<std::uint64_t>(node.value) << 32) | replica;
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDull;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ull;
  x ^= x >> 33;
  return x;
}

void HashRing::add_node(net::NodeId node) {
  if (std::find(nodes_.begin(), nodes_.end(), node) != nodes_.end()) return;
  nodes_.push_back(node);
  // Append the node's points, sort them and merge them in: one pass over
  // the ring per node rather than one vector insert per point.
  const auto mid = static_cast<std::ptrdiff_t>(ring_.size());
  for (std::uint32_t r = 0; r < vnodes_; ++r) ring_.emplace_back(point(node, r), node);
  const auto by_point = [](const auto& a, const auto& b) { return a.first < b.first; };
  std::sort(ring_.begin() + mid, ring_.end(), by_point);
  // The merge is stable, so on a (vanishingly unlikely) point collision the
  // earlier owner comes first and unique keeps it -- the tie-break the
  // former std::map::emplace applied.
  std::inplace_merge(ring_.begin(), ring_.begin() + mid, ring_.end(), by_point);
  ring_.erase(std::unique(ring_.begin(), ring_.end(),
                          [](const auto& a, const auto& b) { return a.first == b.first; }),
              ring_.end());
}

void HashRing::remove_node(net::NodeId node) {
  std::erase(nodes_, node);
  std::erase(suspects_, node);
  std::erase_if(ring_, [node](const auto& e) { return e.second == node; });
}

void HashRing::set_suspect(net::NodeId node, bool suspect) {
  if (std::find(nodes_.begin(), nodes_.end(), node) == nodes_.end()) return;
  const auto it = std::find(suspects_.begin(), suspects_.end(), node);
  if (suspect && it == suspects_.end()) {
    suspects_.insert(std::upper_bound(suspects_.begin(), suspects_.end(), node), node);
  } else if (!suspect && it != suspects_.end()) {
    suspects_.erase(it);
  }
}

bool HashRing::is_suspect(net::NodeId node) const {
  return std::find(suspects_.begin(), suspects_.end(), node) != suspects_.end();
}

net::NodeId HashRing::node_for(std::string_view key) const {
  return node_for_hash(sim::Rng::hash(key));
}

net::NodeId HashRing::node_for_hash(std::uint64_t hash) const {
  assert(!ring_.empty());
  auto it = std::lower_bound(ring_.begin(), ring_.end(), hash, point_less);
  if (it == ring_.end()) it = ring_.begin();  // wrap around
  if (suspects_.empty() || !is_suspect(it->second)) return it->second;
  // Failover: walk clockwise to the first non-suspect owner. Bounded by one
  // full revolution; with every node suspect, fall back to the raw owner.
  for (std::size_t step = 1; step < ring_.size(); ++step) {
    auto next = it + static_cast<std::ptrdiff_t>(step);
    if (next >= ring_.end()) next -= static_cast<std::ptrdiff_t>(ring_.size());
    if (!is_suspect(next->second)) return next->second;
  }
  return it->second;
}

}  // namespace pacon::kv
