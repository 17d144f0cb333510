// Barrier-epoch coordination for dependent operations (paper Section III.E.2,
// Fig. 6).
//
// The operation stream of a region is cut into epochs. A dependent operation
// (rmdir, readdir) at epoch e may only touch the DFS once every commit
// process has drained all epoch-e operations. The protocol:
//   1. the triggering client broadcasts; every client pushes a barrier
//      message and bumps its epoch;
//   2. each commit process reports when it has consumed barrier messages
//      from all clients on its node (FIFO queues guarantee all its epoch-e
//      ops were committed before that point);
//   3. when all nodes have reported, the dependent operation runs against
//      the DFS; completing it advances the region epoch and releases commit
//      processes into epoch e+1.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "sim/metrics.h"
#include "sim/simulation.h"
#include "sim/sync.h"

namespace pacon::core {

class EpochCoordinator {
 public:
  EpochCoordinator(sim::Simulation& sim, std::size_t node_count)
      : sim_(sim), node_count_(node_count) {}
  EpochCoordinator(const EpochCoordinator&) = delete;
  EpochCoordinator& operator=(const EpochCoordinator&) = delete;

  /// Epoch currently being committed (ops stamped with this value flow).
  std::uint64_t current_epoch() const { return current_; }

  /// Optional metrics hook: the coordinator cannot name a registry metric
  /// itself (it does not know which region it serves), so the owner resolves
  /// a gauge and hands it in. Tracks the current epoch as it advances.
  void set_state_gauge(sim::Gauge* g) {
    state_gauge_ = g;
    if (state_gauge_ != nullptr) state_gauge_->set(static_cast<std::int64_t>(current_));
  }

  /// Adjusts how many nodes must report per barrier (nodes without clients
  /// or crashed nodes do not participate). Safe to call between barriers --
  /// the region serializes barriers under a mutex.
  void set_node_count(std::size_t n) { node_count_ = n; }

  /// A commit process reports its node fully drained for epoch `e`.
  void node_reached_barrier(std::uint64_t e) {
    ++nodes_done_[e];
    if (nodes_done_[e] >= node_count_ && e == current_) {
      drained_gate(e).open();
    }
  }

  /// The dependent-op client waits until every node drained epoch `e`.
  /// Returns false when the barrier was aborted instead (a participant's
  /// commit process crashed mid-epoch and will never report): the caller
  /// must complete the epoch without running its dependent op, then replay
  /// the whole barrier.
  sim::Task<bool> wait_all_drained(std::uint64_t e) {
    if (aborted_.contains(e)) co_return false;
    if (nodes_done_[e] >= node_count_) co_return true;
    co_await drained_gate(e).wait();
    co_return !aborted_.contains(e);
  }

  /// Fails the in-flight barrier for epoch `e` (a participant crashed).
  /// Waiters wake and observe the abort; no-op for past epochs.
  void abort_epoch(std::uint64_t e) {
    if (e != current_) return;
    aborted_.insert(e);
    drained_gate(e).open();
  }

  /// The dependent op has been applied (or the barrier abandoned); epoch `e`
  /// is closed. Commit processes blocked on epoch e+1 may proceed.
  void complete_epoch(std::uint64_t e) {
    if (e < current_) return;
    current_ = e + 1;
    if (state_gauge_ != nullptr) state_gauge_->set(static_cast<std::int64_t>(current_));
    proceed_gate(current_).open();
    nodes_done_.erase(e);
    drained_gates_.erase(e);
    aborted_.erase(e);
  }

  /// Commit processes wait here before consuming epoch-`e` operations.
  sim::Task<> wait_epoch_open(std::uint64_t e) {
    while (current_ < e) co_await proceed_gate(e).wait();
    // Gates for epochs at or below current stay satisfied.
    proceed_gates_.erase(e);
  }

 private:
  sim::Gate& drained_gate(std::uint64_t e) { return gate_in(drained_gates_, e); }
  sim::Gate& proceed_gate(std::uint64_t e) { return gate_in(proceed_gates_, e); }

  sim::Gate& gate_in(std::unordered_map<std::uint64_t, std::unique_ptr<sim::Gate>>& map,
                     std::uint64_t e) {
    auto it = map.find(e);
    if (it == map.end()) it = map.emplace(e, std::make_unique<sim::Gate>(sim_)).first;
    return *it->second;
  }

  sim::Simulation& sim_;
  std::size_t node_count_;
  std::uint64_t current_ = 0;
  sim::Gauge* state_gauge_ = nullptr;
  std::unordered_set<std::uint64_t> aborted_;
  std::unordered_map<std::uint64_t, std::size_t> nodes_done_;
  std::unordered_map<std::uint64_t, std::unique_ptr<sim::Gate>> drained_gates_;
  std::unordered_map<std::uint64_t, std::unique_ptr<sim::Gate>> proceed_gates_;
};

}  // namespace pacon::core
