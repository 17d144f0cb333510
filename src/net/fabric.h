// Simulated cluster interconnect.
//
// The Fabric charges wire time for messages between nodes: a fixed one-way
// software+switch latency, a size-proportional serialization term, and
// multiplicative jitter. It also tracks node liveness for failure-injection
// experiments. It does not buffer or deliver messages itself; RPC and the
// commit queue ask it how long a given hop takes.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/fault.h"
#include "sim/random.h"
#include "sim/simulation.h"
#include "sim/time.h"

namespace pacon::net {

using namespace sim::literals;  // _ns/_us/_ms literals in this namespace

/// Identifies a simulated machine in the cluster.
struct NodeId {
  static constexpr std::uint32_t kInvalid = UINT32_MAX;
  std::uint32_t value = kInvalid;

  constexpr bool valid() const { return value != kInvalid; }
  friend constexpr bool operator==(NodeId, NodeId) = default;
  friend constexpr auto operator<=>(NodeId, NodeId) = default;
};

struct FabricConfig {
  /// Cross-node one-way latency: kernel+NIC+switch for a small message.
  /// ~25us one way gives a ~50us small-message RTT, typical of an HPC
  /// interconnect (TH-Express style) driven through a sockets-style
  /// software stack. harness::Calibration::net_one_way reads this default.
  sim::SimDuration remote_one_way = 25'000_ns;
  /// Multiplicative jitter: actual = nominal * (1 + U(0, jitter_frac)).
  double jitter_frac = 0.15;
};

class Fabric {
 public:
  Fabric(sim::Simulation& sim, FabricConfig config)
      : sim_(sim), config_(config), rng_(sim.rng().fork("fabric")) {}
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  /// One-way wire time for a `bytes`-sized message from `from` to `to`.
  sim::SimDuration one_way(NodeId from, NodeId to, std::size_t bytes) {
    const sim::SimDuration base = from == to ? kLoopbackOneWay : config_.remote_one_way;
    const auto transfer = static_cast<sim::SimDuration>(
        static_cast<double>(bytes) / kBandwidthBytesPerSec * 1e9);
    const double jitter = 1.0 + rng_.uniform01() * config_.jitter_frac;
    return static_cast<sim::SimDuration>(static_cast<double>(base + transfer) * jitter);
  }

  /// Failure injection: a down node can neither send nor receive.
  void set_node_down(NodeId node, bool down) {
    assert(node.valid());
    if (down && node.value >= down_.size()) down_.resize(node.value + 1, 0);
    if (node.value < down_.size()) down_[node.value] = down ? 1 : 0;
  }
  /// Hot path (consulted per message and in client retry loops): node ids
  /// are small integers (the largest is a DFS server's, ~10^5), so liveness
  /// is one bounds check and one byte load.
  bool node_up(NodeId node) const {
    return node.value >= down_.size() || down_[node.value] == 0;
  }
  bool reachable(NodeId from, NodeId to) const { return node_up(from) && node_up(to); }

  /// Installs (or clears, with nullptr) the message fault topology that
  /// RPC consults for every cross-node message. Not owned. A fabric-wide
  /// fault profile is the matrix's global default.
  void set_fault_matrix(sim::LinkFaultMatrix* matrix) { fault_matrix_ = matrix; }
  sim::LinkFaultMatrix* fault_matrix() const { return fault_matrix_; }

  /// Fate of one message on the `from`->`to` hop. Loopback traffic is exempt
  /// (same-host queues neither lose nor reorder), as is everything when no
  /// fault matrix is installed.
  sim::FaultDecision message_fate(NodeId from, NodeId to) {
    if (from == to || fault_matrix_ == nullptr) return {};
    return fault_matrix_->next(from.value, to.value);
  }

 private:
  /// Same-node (loopback / shared-memory) one-way latency.
  static constexpr sim::SimDuration kLoopbackOneWay = 500_ns;
  /// Serialization bandwidth for the size-proportional term.
  static constexpr double kBandwidthBytesPerSec = 5.0e9;

  sim::Simulation& sim_;
  FabricConfig config_;
  sim::Rng rng_;
  std::vector<std::uint8_t> down_;  // NodeId.value -> 1 while down; grown on demand
  sim::LinkFaultMatrix* fault_matrix_ = nullptr;
};

}  // namespace pacon::net

template <>
struct std::hash<pacon::net::NodeId> {
  std::size_t operator()(pacon::net::NodeId id) const noexcept {
    return std::hash<std::uint32_t>{}(id.value);
  }
};
