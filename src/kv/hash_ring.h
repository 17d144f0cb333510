// Consistent-hash ring (the "DHT" of the paper's distributed cache).
//
// Keys map to nodes via the classic virtual-node construction: each node
// contributes `vnodes` points on a 64-bit ring; a key is owned by the first
// point clockwise from its hash. Adding or removing one node remaps only
// ~1/N of the keyspace.
//
// The ring itself is a sorted flat vector: lookups are a cache-friendly
// binary search (membership changes are rare; adding a node sorts its points
// and merges them in with one pass over the ring).
// Callers that already know a key's hash -- fs::Path caches it -- use
// node_for_hash() and skip rehashing the key entirely.
#pragma once

#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "net/fabric.h"

namespace pacon::kv {

class HashRing {
 public:
  explicit HashRing(std::uint32_t vnodes = 64) : vnodes_(vnodes) {}

  void add_node(net::NodeId node);
  void remove_node(net::NodeId node);

  bool empty() const { return ring_.empty(); }
  std::size_t node_count() const { return nodes_.size(); }
  const std::vector<net::NodeId>& nodes() const { return nodes_; }

  /// Failover: a suspect node stays on the ring (its points are skipped, so
  /// its keyspace falls to each point's clockwise successor) but is expected
  /// back -- unlike remove_node, clearing the flag restores the exact
  /// original key placement. Membership changes clear the flag.
  void set_suspect(net::NodeId node, bool suspect);
  bool is_suspect(net::NodeId node) const;
  std::size_t suspect_count() const { return suspects_.size(); }
  /// Nodes currently eligible to own keys.
  std::size_t live_node_count() const { return nodes_.size() - suspects_.size(); }

  /// Owner of `key`. Requires a non-empty ring.
  net::NodeId node_for(std::string_view key) const;

  /// Owner of a key whose hash (sim::Rng::hash of the key bytes) is already
  /// known. Must agree with node_for(key) for hash == Rng::hash(key).
  /// Suspect owners are skipped clockwise; with every node suspect the raw
  /// owner is returned (callers should check live_node_count() first).
  net::NodeId node_for_hash(std::uint64_t hash) const;

  /// Ring position of `node`'s `replica`-th virtual node.
  static std::uint64_t point(net::NodeId node, std::uint32_t replica);

 private:
  std::uint32_t vnodes_;
  /// (ring point, owner), sorted ascending by point; points are unique.
  std::vector<std::pair<std::uint64_t, net::NodeId>> ring_;
  std::vector<net::NodeId> nodes_;
  /// Sorted suspect node ids (a handful at most; linear scans are fine).
  std::vector<net::NodeId> suspects_;
};

}  // namespace pacon::kv
