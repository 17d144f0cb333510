// Tests for the pub/sub bus, especially the per-(publisher, subscription)
// FIFO guarantee the Pacon commit protocol depends on.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/pubsub.h"
#include "sim/fault.h"
#include "sim/simulation.h"

namespace pacon::net {
namespace {

using sim::Simulation;
using sim::Task;
using namespace sim::literals;

struct Msg {
  int publisher = 0;
  int seq = 0;
};

TEST(PubSub, DeliversToSingleSubscriber) {
  Simulation sim;
  Fabric fabric(sim, FabricConfig{});
  PubSubBus<Msg> bus(sim, fabric);
  auto sub = bus.subscribe("commits", NodeId{0});
  EXPECT_EQ(bus.publish(NodeId{1}, "commits", Msg{1, 0}), 1u);
  sim.run();
  auto m = sub->try_recv();
  EXPECT_TRUE(m.has_value());
  EXPECT_EQ(m->publisher, 1);
}

TEST(PubSub, PublishToUnknownTopicReachesNobody) {
  Simulation sim;
  Fabric fabric(sim, FabricConfig{});
  PubSubBus<Msg> bus(sim, fabric);
  EXPECT_EQ(bus.publish(NodeId{1}, "nope", Msg{}), 0u);
}

TEST(PubSub, AllSubscribersReceiveEveryMessage) {
  Simulation sim;
  Fabric fabric(sim, FabricConfig{});
  PubSubBus<Msg> bus(sim, fabric);
  auto s1 = bus.subscribe("t", NodeId{0});
  auto s2 = bus.subscribe("t", NodeId{1});
  auto s3 = bus.subscribe("t", NodeId{2});
  for (int i = 0; i < 10; ++i) bus.publish(NodeId{7}, "t", Msg{7, i});
  sim.run();
  EXPECT_EQ(s1->depth(), 10u);
  EXPECT_EQ(s2->depth(), 10u);
  EXPECT_EQ(s3->depth(), 10u);
}

TEST(PubSub, PerPublisherFifoSurvivesJitter) {
  Simulation sim;
  FabricConfig cfg;
  cfg.jitter_frac = 0.9;  // aggressive jitter to provoke reordering
  Fabric fabric(sim, cfg);
  PubSubBus<Msg> bus(sim, fabric);
  auto sub = bus.subscribe("t", NodeId{0});
  // Two publishers interleave; each must stay internally ordered.
  for (int i = 0; i < 200; ++i) {
    bus.publish(NodeId{1}, "t", Msg{1, i});
    bus.publish(NodeId{2}, "t", Msg{2, i});
  }
  sim.run();
  int last1 = -1, last2 = -1;
  std::size_t total = 0;
  while (auto m = sub->try_recv()) {
    if (m->publisher == 1) {
      EXPECT_GT(m->seq, last1);
      last1 = m->seq;
    } else {
      EXPECT_GT(m->seq, last2);
      last2 = m->seq;
    }
    ++total;
  }
  EXPECT_EQ(total, 400u);
  EXPECT_EQ(last1, 199);
  EXPECT_EQ(last2, 199);
}

TEST(PubSub, AwaitableRecvWakesOnDelivery) {
  Simulation sim;
  Fabric fabric(sim, FabricConfig{});
  PubSubBus<Msg> bus(sim, fabric);
  auto sub = bus.subscribe("t", NodeId{0});
  int got = -1;
  sim.spawn([](PubSubBus<Msg>::Subscription& s, int& out) -> Task<> {
    auto m = co_await s.recv();
    if (m) out = m->seq;
  }(*sub, got));
  sim.spawn([](Simulation& s, PubSubBus<Msg>& b) -> Task<> {
    co_await s.delay(1_ms);
    b.publish(NodeId{1}, "t", Msg{1, 55});
  }(sim, bus));
  sim.run();
  EXPECT_EQ(got, 55);
}

TEST(PubSub, UnsubscribeClosesChannel) {
  Simulation sim;
  Fabric fabric(sim, FabricConfig{});
  PubSubBus<Msg> bus(sim, fabric);
  auto sub = bus.subscribe("t", NodeId{0});
  EXPECT_EQ(bus.subscriber_count("t"), 1u);
  bus.unsubscribe("t", sub);
  EXPECT_EQ(bus.subscriber_count("t"), 0u);
  bool saw_close = false;
  sim.spawn([](PubSubBus<Msg>::Subscription& s, bool& closed) -> Task<> {
    auto m = co_await s.recv();
    closed = !m.has_value();
  }(*sub, saw_close));
  sim.run();
  EXPECT_TRUE(saw_close);
  // Messages published after unsubscribe are not delivered.
  EXPECT_EQ(bus.publish(NodeId{1}, "t", Msg{}), 0u);
}

TEST(PubSub, DownSubscriberNodeIsSkipped) {
  Simulation sim;
  Fabric fabric(sim, FabricConfig{});
  PubSubBus<Msg> bus(sim, fabric);
  auto up = bus.subscribe("t", NodeId{0});
  auto down = bus.subscribe("t", NodeId{1});
  fabric.set_node_down(NodeId{1}, true);
  EXPECT_EQ(bus.publish(NodeId{2}, "t", Msg{}), 1u);
  sim.run();
  EXPECT_EQ(up->depth(), 1u);
  EXPECT_EQ(down->depth(), 0u);
}

TEST(PubSub, DepthObservableForBackpressure) {
  Simulation sim;
  Fabric fabric(sim, FabricConfig{});
  PubSubBus<Msg> bus(sim, fabric);
  auto sub = bus.subscribe("t", NodeId{0});
  for (int i = 0; i < 5; ++i) bus.publish(NodeId{0}, "t", Msg{0, i});
  sim.run();
  EXPECT_EQ(sub->depth(), 5u);
  (void)sub->try_recv();
  EXPECT_EQ(sub->depth(), 4u);
}

// ---- Message faults ----------------------------------------------------------

// Under a lossy/duplicating fault model, every delivered message is
// accounted for: depth == sent - wire drops + duplicates, and per-publisher
// FIFO still holds (a duplicate lands after its original, never before).
TEST(PubSub, FaultModelDropsAndDuplicatesAreAccounted) {
  Simulation sim;
  Fabric fabric(sim, FabricConfig{});
  sim::MessageFaultConfig fcfg;
  fcfg.drop_prob = 0.15;
  fcfg.duplicate_prob = 0.15;
  sim::LinkFaultMatrix faults(sim.rng().fork("faults"), fcfg);
  fabric.set_fault_matrix(&faults);
  PubSubBus<Msg> bus(sim, fabric);
  auto sub = bus.subscribe("t", NodeId{0});
  const int sent = 500;
  std::size_t scheduled = 0;
  for (int i = 0; i < sent; ++i) scheduled += bus.publish(NodeId{1}, "t", Msg{1, i});
  sim.run();
  const sim::MessageFaultModel* lane = faults.lane_model(1, 0);
  ASSERT_NE(lane, nullptr);
  EXPECT_GT(bus.wire_drops(), 0u);
  EXPECT_EQ(lane->drops(), bus.wire_drops());
  EXPECT_GT(lane->duplicates(), 0u);
  EXPECT_EQ(sub->depth(), sent - bus.wire_drops() + lane->duplicates());
  EXPECT_EQ(scheduled, sub->depth());
  int last = -1;
  while (auto m = sub->try_recv()) {
    EXPECT_GE(m->seq, last) << "duplicate or reordered delivery broke FIFO";
    last = m->seq;
  }
  EXPECT_GT(last, 0);
}

// Same seed -> same fault schedule; different seed -> different schedule.
TEST(PubSub, FaultScheduleIsSeedDeterministic) {
  auto run = [](std::uint64_t seed) {
    sim::MessageFaultConfig fcfg;
    fcfg.drop_prob = 0.3;
    sim::MessageFaultModel model(sim::Rng(seed), fcfg);
    std::vector<bool> verdicts;
    for (int i = 0; i < 200; ++i) verdicts.push_back(model.next().drop);
    return verdicts;
  };
  EXPECT_EQ(run(1), run(1));
  EXPECT_NE(run(1), run(2));
}

// Without an installed fault matrix the bus takes the zero-overhead fast
// path; behaviour is identical to a healthy fabric.
TEST(PubSub, NoFaultModelMeansNoDrops) {
  Simulation sim;
  Fabric fabric(sim, FabricConfig{});
  PubSubBus<Msg> bus(sim, fabric);
  auto sub = bus.subscribe("t", NodeId{0});
  for (int i = 0; i < 100; ++i) bus.publish(NodeId{1}, "t", Msg{1, i});
  sim.run();
  EXPECT_EQ(sub->depth(), 100u);
  EXPECT_EQ(bus.wire_drops(), 0u);
}

// ---- Move-through delivery ---------------------------------------------------

/// Message that counts copy-constructions; moves are free.
struct CountingMsg {
  static inline int copies = 0;
  int tag = 0;

  CountingMsg() = default;
  explicit CountingMsg(int t) : tag(t) {}
  CountingMsg(const CountingMsg& other) : tag(other.tag) { ++copies; }
  CountingMsg& operator=(const CountingMsg& other) {
    tag = other.tag;
    ++copies;
    return *this;
  }
  CountingMsg(CountingMsg&&) = default;
  CountingMsg& operator=(CountingMsg&&) = default;
};

// A moved-in message published to a single-subscriber topic (the commit
// queue shape) must reach the subscriber's inbox with ZERO copies.
TEST(PubSub, SingleSubscriberPublishMovesWithZeroCopies) {
  Simulation sim;
  Fabric fabric(sim, FabricConfig{});
  PubSubBus<CountingMsg> bus(sim, fabric);
  auto sub = bus.subscribe("commits", NodeId{0});
  CountingMsg::copies = 0;
  EXPECT_EQ(bus.publish(NodeId{1}, "commits", CountingMsg{42}), 1u);
  sim.run();
  auto m = sub->try_recv();
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->tag, 42);
  EXPECT_EQ(CountingMsg::copies, 0) << "single-subscriber fan-out must move, not copy";
}

// With N subscribers, exactly N-1 copies are made (the last delivery steals
// the moved-in message).
TEST(PubSub, FanOutCopiesExactlyAllButLastDelivery) {
  Simulation sim;
  Fabric fabric(sim, FabricConfig{});
  PubSubBus<CountingMsg> bus(sim, fabric);
  auto s1 = bus.subscribe("t", NodeId{0});
  auto s2 = bus.subscribe("t", NodeId{1});
  auto s3 = bus.subscribe("t", NodeId{2});
  CountingMsg::copies = 0;
  EXPECT_EQ(bus.publish(NodeId{7}, "t", CountingMsg{7}), 3u);
  sim.run();
  EXPECT_EQ(CountingMsg::copies, 2) << "N-subscriber fan-out must copy exactly N-1 times";
  EXPECT_EQ(s1->try_recv()->tag, 7);
  EXPECT_EQ(s2->try_recv()->tag, 7);
  EXPECT_EQ(s3->try_recv()->tag, 7);
}

// Pre-resolved topic handles deliver identically to by-name publishes.
TEST(PubSub, TopicHandleMatchesByNamePublish) {
  Simulation sim;
  Fabric fabric(sim, FabricConfig{});
  PubSubBus<Msg> bus(sim, fabric);
  auto sub = bus.subscribe("t", NodeId{0});
  auto handle = bus.topic_handle("t");
  EXPECT_EQ(bus.publish(NodeId{1}, handle, Msg{1, 0}), 1u);
  EXPECT_EQ(bus.publish(NodeId{1}, "t", Msg{1, 1}), 1u);
  sim.run();
  auto a = sub->try_recv();
  auto b = sub->try_recv();
  ASSERT_TRUE(a && b);
  EXPECT_EQ(a->seq, 0);  // FIFO across both publish flavors
  EXPECT_EQ(b->seq, 1);
}

}  // namespace
}  // namespace pacon::net
