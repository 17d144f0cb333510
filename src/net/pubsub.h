// Topic-based publish/subscribe bus over the simulated fabric.
//
// Stands in for the ZeroMQ commit queue of the Pacon prototype. Guarantees
// the property the commit protocol depends on: per-(publisher, subscription)
// FIFO delivery -- messages from one publisher reach one subscriber in
// publish order even though per-message wire latency jitters. Achieved by
// never delivering a message earlier than its predecessor on the same
// (publisher, subscription) pair.
//
// Subscriptions are unbounded: the commit queue absorbs bursts by design
// (that is where Pacon's write throughput comes from); depth is observable
// for backpressure policies built on top.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/fabric.h"
#include "sim/channel.h"
#include "sim/simulation.h"

namespace pacon::net {

template <typename M>
class PubSubBus {
 public:
  class Subscription {
   public:
    Subscription(sim::Simulation& sim, NodeId node, std::uint64_t id)
        : node_(node), id_(id), inbox_(sim) {}

    NodeId node() const { return node_; }
    std::size_t depth() const { return inbox_.size(); }

    /// Awaitable next message; nullopt after unsubscribe.
    auto recv() { return inbox_.recv(); }
    std::optional<M> try_recv() { return inbox_.try_recv(); }

   private:
    friend class PubSubBus;

    // Earliest admissible delivery time for publisher `from`, preserving
    // FIFO. Publisher ids are small and dense, so a flat vector (grown on
    // demand) replaces the former std::map lookup on every publish.
    sim::SimTime& last_from(std::uint32_t from) {
      if (from >= last_delivery_.size()) last_delivery_.resize(from + 1, 0);
      return last_delivery_[from];
    }

    NodeId node_;
    std::uint64_t id_;
    sim::Channel<M> inbox_;
    std::vector<sim::SimTime> last_delivery_;
  };

  PubSubBus(sim::Simulation& sim, Fabric& fabric) : sim_(sim), fabric_(fabric) {}
  PubSubBus(const PubSubBus&) = delete;
  PubSubBus& operator=(const PubSubBus&) = delete;

  /// Creates a subscription for `topic` hosted on `node`.
  std::shared_ptr<Subscription> subscribe(const std::string& topic, NodeId node) {
    auto sub = std::make_shared<Subscription>(sim_, node, next_id_++);
    topics_[topic].push_back(sub);
    return sub;
  }

  /// Removes a subscription; its channel closes once drained.
  void unsubscribe(const std::string& topic, const std::shared_ptr<Subscription>& sub) {
    auto it = topics_.find(topic);
    if (it == topics_.end()) return;
    auto& subs = it->second;
    std::erase(subs, sub);
    sub->inbox_.close();
  }

  /// Stable handle to a topic's subscriber list; lets a hot publisher skip
  /// the by-name map lookup on every publish. The pointee lives as long as
  /// the bus (map nodes are never erased, only their vectors mutate).
  using TopicHandle = std::vector<std::shared_ptr<Subscription>>*;
  TopicHandle topic_handle(const std::string& topic) { return &topics_[topic]; }

  /// Publishes `msg` from `from` to every subscription of `topic`.
  /// Returns the number of subscriptions addressed. Local cost to the caller
  /// is zero; wire time is charged on the delivery path. Takes the message
  /// by value: it is *moved* into the last reachable delivery, so a
  /// single-subscriber topic (the common Pacon commit-queue shape) forwards
  /// a moved-in message with zero copies.
  std::size_t publish(NodeId from, const std::string& topic, M msg, std::size_t bytes = 256) {
    auto it = topics_.find(topic);
    if (it == topics_.end()) return 0;
    return publish(from, &it->second, std::move(msg), bytes);
  }

  /// Marks this bus as riding a reliable transport (TCP-like, e.g. the
  /// ZeroMQ commit queue of the Pacon prototype): an installed message fault
  /// model is ignored -- the transport retransmits and dedups, so messages
  /// are only ever lost with their endpoint. Reachability checks still
  /// apply. Default: raw datagram semantics (faults bite).
  void set_reliable_transport(bool reliable) { reliable_ = reliable; }

  /// Publish via a pre-resolved TopicHandle (no map lookup).
  std::size_t publish(NodeId from, TopicHandle topic, M msg, std::size_t bytes = 256) {
    auto& subs = *topic;
    if (fabric_.faults_installed() && !reliable_) {
      return publish_faulty(from, subs, std::move(msg), bytes);
    }
    // Find the last reachable subscriber first so the message can be moved
    // into that delivery; every earlier one gets a copy.
    std::size_t last_idx = subs.size();
    for (std::size_t i = 0; i < subs.size(); ++i) {
      if (fabric_.reachable(from, subs[i]->node())) last_idx = i;
    }
    if (last_idx == subs.size()) return 0;
    std::size_t delivered = 0;
    for (std::size_t i = 0; i <= last_idx; ++i) {
      auto& sub = subs[i];
      if (!fabric_.reachable(from, sub->node())) continue;
      const sim::SimTime earliest = sim_.now() + fabric_.one_way(from, sub->node(), bytes);
      deliver_at(sub, from, std::max(earliest, sub->last_from(from.value) + 1),
                 (i == last_idx) ? std::move(msg) : M{msg});
      ++delivered;
    }
    return delivered;
  }

  std::size_t subscriber_count(const std::string& topic) const {
    auto it = topics_.find(topic);
    return it == topics_.end() ? 0 : it->second.size();
  }

  /// Messages dropped on the wire by the installed fault matrix (the matrix
  /// counts per link; this counts this bus's share).
  std::uint64_t wire_drops() const { return wire_drops_; }

 private:
  /// Schedules one delivery and advances the FIFO floor for (from, sub).
  void deliver_at(const std::shared_ptr<Subscription>& sub, NodeId from, sim::SimTime at,
                  M msg) {
    sub->last_from(from.value) = at;
    sim_.schedule_callback(at, [sub = sub, m = std::move(msg)]() mutable {
      sub->inbox_.try_send(std::move(m));
    });
  }

  /// Slow path when a fault matrix is installed: every subscriber's
  /// fate is decided up front (in subscriber order -- one rng draw sequence
  /// per publish), then deliveries are scheduled. A dropped message simply
  /// never arrives; a duplicated one is delivered a second time after a
  /// fresh wire hop -- both copies respect the per-(publisher, subscription)
  /// FIFO floor, mirroring a redundant send over a lossy link.
  std::size_t publish_faulty(NodeId from, std::vector<std::shared_ptr<Subscription>>& subs,
                             M msg, std::size_t bytes) {
    std::vector<sim::FaultDecision> fates(subs.size());
    std::size_t last_idx = subs.size();
    for (std::size_t i = 0; i < subs.size(); ++i) {
      if (!fabric_.reachable(from, subs[i]->node())) {
        fates[i].drop = true;  // unreachable, not a wire fault: not counted
        continue;
      }
      fates[i] = fabric_.message_fate(from, subs[i]->node());
      if (fates[i].drop) {
        ++wire_drops_;
      } else {
        last_idx = i;
      }
    }
    if (last_idx == subs.size()) return 0;
    std::size_t delivered = 0;
    for (std::size_t i = 0; i <= last_idx; ++i) {
      auto& sub = subs[i];
      const sim::FaultDecision& fate = fates[i];
      if (fate.drop) continue;
      const sim::SimTime earliest =
          sim_.now() + fabric_.one_way(from, sub->node(), bytes) + fate.extra_delay;
      const sim::SimTime at = std::max(earliest, sub->last_from(from.value) + 1);
      if (fate.duplicate) {
        deliver_at(sub, from, at, M{msg});
        const sim::SimTime again = sim_.now() + fabric_.one_way(from, sub->node(), bytes);
        deliver_at(sub, from, std::max(again, sub->last_from(from.value) + 1),
                   (i == last_idx) ? std::move(msg) : M{msg});
        delivered += 2;
      } else {
        deliver_at(sub, from, at, (i == last_idx) ? std::move(msg) : M{msg});
        ++delivered;
      }
    }
    return delivered;
  }

  sim::Simulation& sim_;
  Fabric& fabric_;
  bool reliable_ = false;
  std::uint64_t next_id_ = 0;
  std::uint64_t wire_drops_ = 0;
  std::map<std::string, std::vector<std::shared_ptr<Subscription>>> topics_;
};

}  // namespace pacon::net
