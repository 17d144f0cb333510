// A node's commit queue (paper Sections III.D-E): the node's clients push
// their operation messages and the node's own commit process drains them in
// push order. Stands in for the ZeroMQ queue of the Pacon prototype.
//
// Producers and consumer share a node, so every push is one loopback hop.
// A delivery never lands earlier than its predecessor, which keeps the queue
// FIFO although the hop's wire time jitters. Loopback traffic is exempt from
// wire faults (Fabric::message_fate), so a message is lost only with its
// node: a push while the node is down is dropped.
//
// The queue is unbounded: it absorbs bursts by design, which is where
// Pacon's write throughput comes from.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <utility>

#include "core/op_message.h"
#include "net/fabric.h"
#include "sim/channel.h"
#include "sim/simulation.h"

namespace pacon::core {

class CommitQueue {
 public:
  CommitQueue(sim::Simulation& sim, net::Fabric& fabric, net::NodeId node)
      : sim_(sim),
        fabric_(fabric),
        node_(node),
        inbox_(std::make_shared<sim::Channel<OpMessage>>(sim)) {}
  CommitQueue(const CommitQueue&) = delete;
  CommitQueue& operator=(const CommitQueue&) = delete;

  /// Moves `msg` into the queue; it arrives after one loopback hop. The
  /// delivery callback holds a share of the channel (16 B) next to the
  /// message, which fits SmallFunc's inline buffer, so a delivery in flight
  /// outlives a closed queue without touching the heap.
  void push(OpMessage msg) {
    if (!fabric_.node_up(node_)) return;
    const sim::SimTime earliest = sim_.now() + fabric_.one_way(node_, node_, kMessageBytes);
    last_delivery_ = std::max(earliest, last_delivery_ + 1);
    sim_.schedule_callback(last_delivery_, [inbox = inbox_, m = std::move(msg)]() mutable {
      (void)inbox->try_send(std::move(m));
    });
  }

  /// Awaitable next message; nullopt once the queue is closed and drained.
  auto recv() { return inbox_->recv(); }

  /// Ends the stream: the receiver drains what was delivered, then wakes
  /// with nullopt. Deliveries still in flight are discarded.
  void close() { inbox_->close(); }

 private:
  /// Wire size charged per message.
  static constexpr std::size_t kMessageBytes = 256;

  sim::Simulation& sim_;
  net::Fabric& fabric_;
  net::NodeId node_;
  std::shared_ptr<sim::Channel<OpMessage>> inbox_;
  sim::SimTime last_delivery_ = 0;
};

}  // namespace pacon::core
