// Deterministic fault injection for the simulation kernel.
//
// Three orthogonal pieces:
//
//   * MessageFaultModel -- a per-message verdict source (drop / extra
//     delay) drawn from its own forked Rng stream, so a fixed seed yields a
//     byte-identical fault schedule run after run. Each verdict consumes
//     exactly four Rng draws regardless of configuration, so toggling one
//     fault class never reshuffles another class's schedule.
//
//   * LinkFaultMatrix -- a fault *topology* over the (src, dst) link space:
//     per-link overrides, per-node egress/ingress rules and a global default
//     resolve to one MessageFaultConfig per directed link, and every link
//     draws verdicts from its own lane stream forked from the matrix seed by
//     the link's endpoints alone. Adding or changing a rule for one link
//     therefore leaves every other link's verdict schedule byte-identical.
//     The matrix also tracks hard link state (a down link or partition eats
//     every message) and can surface per-link drop/delay counters through a
//     MetricScope. RPC consults it (through the Fabric) per cross-node
//     message; loopback traffic is exempt (same-host queues do not lose
//     messages).
//
//   * FaultPlan -- a declarative schedule of node down/up transitions, link
//     down/up flips, group partitions and arbitrary callbacks (commit-process
//     crash, cache rejoin, ...) pinned to virtual instants. arm() translates
//     the plan into kernel callbacks exactly once; because the kernel orders
//     same-time events by creation sequence, the plan is as reproducible as
//     the workload it perturbs.
//
// This header must stay free of OS time/thread/randomness per the sim-*
// analyzer rules: all nondeterminism funnels through the forked Rng.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/metrics.h"
#include "sim/random.h"
#include "sim/simulation.h"
#include "sim/time.h"

namespace pacon::sim {

struct MessageFaultConfig {
  /// Probability a message vanishes on the wire.
  double drop_prob = 0.0;
  /// Probability a delivered message is delayed by U(delay_min, delay_max)
  /// on top of its nominal wire time.
  double delay_prob = 0.0;
  SimDuration delay_min = 0;
  SimDuration delay_max = 0;
};

/// One message's fate. Default-constructed = deliver normally.
struct FaultDecision {
  bool drop = false;
  SimDuration extra_delay = 0;
};

class MessageFaultModel {
 public:
  MessageFaultModel(Rng rng, MessageFaultConfig config) : rng_(rng), config_(config) {}

  /// Swaps the fault profile in place, preserving the Rng stream position
  /// and the counters -- how the matrix retargets a lane when a rule changes
  /// mid-run without restarting or reshuffling the lane's schedule.
  void set_config(const MessageFaultConfig& config) { config_ = config; }

  /// Verdict for the next message. Consumes exactly four Rng draws per call
  /// -- the drop chance, one draw nothing reads, the delay chance and the
  /// delay magnitude -- whether or not each fault class is enabled and
  /// whichever verdicts hit, so the schedule of one class depends only on
  /// seed + that class's config + how many messages came before: toggling
  /// drop_prob cannot reshuffle the delay verdicts of later messages (pinned
  /// by sim_fault_test). The unread draw keeps every seed's drop and delay
  /// schedule where the recorded fault experiments measured it.
  FaultDecision next() {
    // uniform01() rather than chance(): chance() short-circuits at p<=0 and
    // p>=1 without consuming a draw, which is exactly the instability this
    // fixed-burn contract rules out. uniform01() is in [0, 1), so p = 1
    // always hits and p = 0 never does.
    const bool drop = rng_.uniform01() < config_.drop_prob;
    (void)rng_.uniform01();
    const bool delay = rng_.uniform01() < config_.delay_prob;
    const double magnitude = rng_.uniform01();
    FaultDecision d;
    if (drop) {
      ++drops_;
      d.drop = true;  // a dropped message cannot also be delayed
      return d;
    }
    if (delay) {
      ++delays_;
      const double span = static_cast<double>(config_.delay_max - config_.delay_min) + 1.0;
      d.extra_delay =
          config_.delay_min + static_cast<SimDuration>(magnitude * span);
    }
    return d;
  }

  std::uint64_t drops() const { return drops_; }
  std::uint64_t delays() const { return delays_; }

 private:
  Rng rng_;
  MessageFaultConfig config_;
  std::uint64_t drops_ = 0;
  std::uint64_t delays_ = 0;
};

/// Fault topology over directed links: the fabric's one verdict source,
/// whether faults target one link or node or the whole interconnect.
///
/// Resolution order per (src, dst) message, most specific wins:
///   1. per-link override          set_link(src, dst, cfg)
///   2. per-node egress rule       set_node_egress(src, cfg)
///   3. per-node ingress rule      set_node_ingress(dst, cfg)
///   4. the global default         constructor
///
/// Every directed link draws from its own lane: an Rng stream forked from
/// the matrix seed by (src, dst) alone -- never by rule set, lane creation
/// order or other links' traffic. Consequences the test suite pins down:
/// a lane's verdicts depend only on (seed, src, dst, its resolved config,
/// messages sent on that lane so far), and adding a rule for link A leaves
/// link B's schedule byte-identical.
class LinkFaultMatrix {
 public:
  explicit LinkFaultMatrix(Rng rng, MessageFaultConfig global = {})
      : rng_(rng), global_(global) {}

  // ---- Rules ----------------------------------------------------------------

  void set_link(std::uint32_t src, std::uint32_t dst, const MessageFaultConfig& cfg) {
    link_rules_[key(src, dst)] = cfg;
    re_resolve_lanes();
  }
  void clear_link(std::uint32_t src, std::uint32_t dst) {
    link_rules_.erase(key(src, dst));
    re_resolve_lanes();
  }
  void set_node_egress(std::uint32_t node, const MessageFaultConfig& cfg) {
    egress_rules_[node] = cfg;
    re_resolve_lanes();
  }
  void set_node_ingress(std::uint32_t node, const MessageFaultConfig& cfg) {
    ingress_rules_[node] = cfg;
    re_resolve_lanes();
  }

  /// Config a message on (src, dst) would be judged under right now.
  MessageFaultConfig resolve(std::uint32_t src, std::uint32_t dst) const {
    if (auto it = link_rules_.find(key(src, dst)); it != link_rules_.end()) return it->second;
    if (auto it = egress_rules_.find(src); it != egress_rules_.end()) return it->second;
    if (auto it = ingress_rules_.find(dst); it != ingress_rules_.end()) return it->second;
    return global_;
  }

  // ---- Hard link state ------------------------------------------------------

  /// A down link silently eats every message in that direction (the verdict
  /// is an unconditional drop that consumes no lane Rng draws, so flapping a
  /// link does not shift its lane's schedule either).
  void set_link_down(std::uint32_t src, std::uint32_t dst, bool down) {
    if (down) {
      down_links_.insert(key(src, dst));
    } else {
      down_links_.erase(key(src, dst));
    }
  }
  bool link_up(std::uint32_t src, std::uint32_t dst) const {
    return !down_links_.contains(key(src, dst));
  }

  /// Severs (engaged) or restores (!engaged) every link between the two node
  /// groups, both directions.
  void set_partition(const std::vector<std::uint32_t>& a, const std::vector<std::uint32_t>& b,
                     bool engaged) {
    for (const std::uint32_t an : a) {
      for (const std::uint32_t bn : b) {
        set_link_down(an, bn, engaged);
        set_link_down(bn, an, engaged);
      }
    }
  }

  // ---- Verdicts -------------------------------------------------------------

  /// Fate of the next message on (src, dst).
  FaultDecision next(std::uint32_t src, std::uint32_t dst) {
    if (!link_up(src, dst)) {
      ++partition_drops_;
      if (partition_drop_counter_ != nullptr) partition_drop_counter_->add();
      FaultDecision d;
      d.drop = true;
      return d;
    }
    Lane& lane = lane_for(src, dst);
    if (lane.drops == nullptr) return lane.model.next();
    const std::uint64_t d0 = lane.model.drops();
    const std::uint64_t l0 = lane.model.delays();
    const FaultDecision d = lane.model.next();
    lane.drops->add(lane.model.drops() - d0);
    lane.delays->add(lane.model.delays() - l0);
    return d;
  }

  // ---- Introspection --------------------------------------------------------

  /// Verdict source of a link, or nullptr if no message used it yet.
  const MessageFaultModel* lane_model(std::uint32_t src, std::uint32_t dst) const {
    auto it = lanes_.find(key(src, dst));
    return it == lanes_.end() ? nullptr : &it->second.model;
  }

  /// Messages eaten by down links/partitions (not wire-fault drops; those
  /// are counted per lane).
  std::uint64_t partition_drops() const { return partition_drops_; }

  /// Installs live per-link counters under `scope`: each lane increments
  /// `<scope>.link.<src>-<dst>.{drops,delays}` as verdicts land,
  /// and partition-eaten messages count in `<scope>.partition.drops`.
  /// Existing lanes are back-filled with their totals so far.
  void bind_metrics(MetricScope scope) {
    metrics_.emplace(scope);
    partition_drop_counter_ = &metrics_->counter("partition.drops");
    partition_drop_counter_->add(partition_drops_);
    for (auto& [k, lane] : lanes_) {
      attach_counters(lane, static_cast<std::uint32_t>(k >> 32),
                      static_cast<std::uint32_t>(k & 0xFFFFFFFFu));
      lane.drops->add(lane.model.drops());
      lane.delays->add(lane.model.delays());
    }
  }

 private:
  struct Lane {
    MessageFaultModel model;
    Counter* drops = nullptr;
    Counter* delays = nullptr;
  };

  static constexpr std::uint64_t key(std::uint32_t src, std::uint32_t dst) {
    return (static_cast<std::uint64_t>(src) << 32) | dst;
  }

  Lane& lane_for(std::uint32_t src, std::uint32_t dst) {
    const std::uint64_t k = key(src, dst);
    auto it = lanes_.find(k);
    if (it == lanes_.end()) {
      // The lane stream is forked from the matrix seed by the endpoints
      // alone: creation order and the rule set cannot perturb it.
      it = lanes_.emplace(k, Lane{MessageFaultModel(rng_.fork(k), resolve(src, dst))}).first;
      if (metrics_.has_value()) attach_counters(it->second, src, dst);
    }
    return it->second;
  }

  void attach_counters(Lane& lane, std::uint32_t src, std::uint32_t dst) {
    MetricScope s =
        metrics_->scoped("link").scoped(std::to_string(src) + "-" + std::to_string(dst));
    lane.drops = &s.counter("drops");
    lane.delays = &s.counter("delays");
  }

  /// Rule changes re-resolve every live lane in place (config swap preserves
  /// each lane's Rng position and counters).
  void re_resolve_lanes() {
    for (auto& [k, lane] : lanes_) {
      lane.model.set_config(resolve(static_cast<std::uint32_t>(k >> 32),
                                    static_cast<std::uint32_t>(k & 0xFFFFFFFFu)));
    }
  }

  Rng rng_;
  MessageFaultConfig global_;
  std::map<std::uint64_t, MessageFaultConfig> link_rules_;
  std::map<std::uint32_t, MessageFaultConfig> egress_rules_;
  std::map<std::uint32_t, MessageFaultConfig> ingress_rules_;
  std::set<std::uint64_t> down_links_;
  std::map<std::uint64_t, Lane> lanes_;
  std::uint64_t partition_drops_ = 0;
  std::optional<MetricScope> metrics_;
  Counter* partition_drop_counter_ = nullptr;
};

/// Declarative schedule of node-liveness flips, link-state flips, group
/// partitions and callbacks at fixed virtual instants. Build the plan, then
/// arm() it exactly once on a simulation.
class FaultPlan {
 public:
  /// Node `node` (a net::NodeId value; this layer stays net-agnostic) goes
  /// down at `at`.
  FaultPlan& down(SimTime at, std::uint32_t node) {
    node_events_.push_back({at, node, true});
    return *this;
  }

  /// Node `node` comes back at `at`.
  FaultPlan& up(SimTime at, std::uint32_t node) {
    node_events_.push_back({at, node, false});
    return *this;
  }

  /// Directed link (src -> dst) goes dark at `at`.
  FaultPlan& link_down(SimTime at, std::uint32_t src, std::uint32_t dst) {
    link_events_.push_back({at, src, dst, true});
    return *this;
  }

  /// Directed link (src -> dst) is restored at `at`.
  FaultPlan& link_up(SimTime at, std::uint32_t src, std::uint32_t dst) {
    link_events_.push_back({at, src, dst, false});
    return *this;
  }

  /// Severs every link between groups `a` and `b` (both directions) at `at`.
  FaultPlan& partition(SimTime at, const std::vector<std::uint32_t>& a,
                       const std::vector<std::uint32_t>& b) {
    return partition_links(at, a, b, true);
  }

  /// Restores every link between groups `a` and `b` at `at`.
  FaultPlan& heal_partition(SimTime at, const std::vector<std::uint32_t>& a,
                            const std::vector<std::uint32_t>& b) {
    return partition_links(at, a, b, false);
  }

  /// Arbitrary fault action at `at` (commit-process crash, cache rejoin...).
  FaultPlan& call(SimTime at, std::function<void()> fn) {
    calls_.push_back({at, std::move(fn)});
    return *this;
  }

  /// Schedules every planned event. `set_node_liveness(node, down)` is how
  /// liveness flips reach the network layer above (typically
  /// Fabric::set_node_down); `set_link_state(src, dst, down)` is how link
  /// flips reach the fault topology (typically LinkFaultMatrix::
  /// set_link_down) and is required iff the plan contains link events.
  /// Arming is a latch: a second arm() throws instead of silently
  /// re-scheduling every flip.
  void arm(Simulation& sim, std::function<void(std::uint32_t, bool)> set_node_liveness,
           std::function<void(std::uint32_t, std::uint32_t, bool)> set_link_state = {}) {
    if (armed_) {
      throw std::logic_error("FaultPlan::arm: plan is already armed");
    }
    if (!link_events_.empty() && !set_link_state) {
      throw std::logic_error("FaultPlan::arm: plan has link events but no link-state sink");
    }
    armed_ = true;
    for (const auto& ev : node_events_) {
      sim.schedule_callback(ev.at, [set_node_liveness, node = ev.node, down = ev.down] {
        set_node_liveness(node, down);
      });
    }
    for (const auto& ev : link_events_) {
      sim.schedule_callback(ev.at,
                            [set_link_state, src = ev.src, dst = ev.dst, down = ev.down] {
                              set_link_state(src, dst, down);
                            });
    }
    for (auto& [at, fn] : calls_) {
      sim.schedule_callback(at, [fn = std::move(fn)] { fn(); });
    }
    calls_.clear();
  }

  bool armed() const { return armed_; }

  std::size_t event_count() const {
    return node_events_.size() + link_events_.size() + calls_.size();
  }

 private:
  struct NodeEvent {
    SimTime at;
    std::uint32_t node;
    bool down;
  };

  struct LinkEvent {
    SimTime at;
    std::uint32_t src;
    std::uint32_t dst;
    bool down;
  };

  FaultPlan& partition_links(SimTime at, const std::vector<std::uint32_t>& a,
                             const std::vector<std::uint32_t>& b, bool down) {
    for (const std::uint32_t an : a) {
      for (const std::uint32_t bn : b) {
        link_events_.push_back({at, an, bn, down});
        link_events_.push_back({at, bn, an, down});
      }
    }
    return *this;
  }

  std::vector<NodeEvent> node_events_;
  std::vector<LinkEvent> link_events_;
  std::vector<std::pair<SimTime, std::function<void()>>> calls_;
  bool armed_ = false;
};

}  // namespace pacon::sim
