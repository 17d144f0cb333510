// Tests for a node's commit queue, especially the FIFO guarantee the Pacon
// commit protocol depends on.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/commit_queue.h"
#include "sim/simulation.h"

namespace pacon::core {
namespace {

using net::NodeId;
using sim::Simulation;
using sim::Task;
using namespace sim::literals;

OpMessage message(std::uint64_t op_id) {
  OpMessage m;
  m.path = "/r/f";
  m.op_id = op_id;
  return m;
}

/// Receives `n` messages, recording their op ids in arrival order.
// lint-allow: coro-param-ref both referents are locals of the test body, which outlives the run
Task<> receive(CommitQueue& q, int n, std::vector<std::uint64_t>& got) {
  for (int i = 0; i < n; ++i) {
    auto m = co_await q.recv();
    if (!m) co_return;
    got.push_back(m->op_id);
  }
}

TEST(CommitQueue, FifoOrderSurvivesJitter) {
  Simulation sim;
  net::FabricConfig cfg;
  cfg.jitter_frac = 0.9;  // aggressive jitter to provoke reordering
  net::Fabric fabric(sim, cfg);
  CommitQueue q(sim, fabric, NodeId{0});
  std::vector<std::uint64_t> got;
  sim.spawn(receive(q, 400, got));
  // A burst in one instant: without the FIFO floor, each message's jittered
  // hop alone would order the arrivals.
  for (std::uint64_t i = 0; i < 400; ++i) q.push(message(i));
  sim.run();
  ASSERT_EQ(got.size(), 400u);
  for (std::uint64_t i = 0; i < 400; ++i) EXPECT_EQ(got[i], i);
}

TEST(CommitQueue, DeliversToSingleReceiver) {
  Simulation sim;
  net::Fabric fabric(sim, net::FabricConfig{});
  CommitQueue q(sim, fabric, NodeId{0});
  OpMessage sent = message(9);
  sent.path = "/r/d/f";
  q.push(std::move(sent));
  sim.run();
  std::optional<OpMessage> got;
  sim.spawn([](CommitQueue& queue, std::optional<OpMessage>& out) -> Task<> {
    out = co_await queue.recv();
  }(q, got));
  sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->op_id, 9u);
  EXPECT_EQ(got->path, "/r/d/f");
}

TEST(CommitQueue, AwaitableRecvWakesOnDelivery) {
  Simulation sim;
  net::Fabric fabric(sim, net::FabricConfig{});
  CommitQueue q(sim, fabric, NodeId{0});
  std::optional<std::uint64_t> got;
  sim::SimTime woke_at = 0;
  sim.spawn([](Simulation& s, CommitQueue& queue, std::optional<std::uint64_t>& out,
               sim::SimTime& at) -> Task<> {
    auto m = co_await queue.recv();
    if (m) out = m->op_id;
    at = s.now();
  }(sim, q, got, woke_at));
  sim.spawn([](Simulation& s, CommitQueue& queue) -> Task<> {
    co_await s.delay(1_ms);
    queue.push(message(55));
  }(sim, q));
  sim.run();
  EXPECT_EQ(got, 55u);
  // Woken by the delivery, one loopback hop after the push.
  EXPECT_GT(woke_at, 1_ms);
  EXPECT_LT(woke_at, 1_ms + 1_us);
}

TEST(CommitQueue, CloseWakesReceiverWithEndOfStream) {
  Simulation sim;
  net::Fabric fabric(sim, net::FabricConfig{});
  CommitQueue q(sim, fabric, NodeId{0});
  q.push(message(1));
  sim.run();
  std::vector<std::uint64_t> got;
  bool saw_end = false;
  sim.spawn([](CommitQueue& queue, std::vector<std::uint64_t>& out, bool& end) -> Task<> {
    for (;;) {
      auto m = co_await queue.recv();
      if (!m) break;
      out.push_back(m->op_id);
    }
    end = true;
  }(q, got, saw_end));
  sim.run();
  EXPECT_FALSE(saw_end) << "an open queue keeps its receiver waiting";
  q.close();
  sim.run();
  EXPECT_TRUE(saw_end);
  EXPECT_EQ(got, std::vector<std::uint64_t>{1}) << "delivered messages drain before the end";
}

TEST(CommitQueue, PushOnDownNodeIsDropped) {
  Simulation sim;
  net::Fabric fabric(sim, net::FabricConfig{});
  CommitQueue q(sim, fabric, NodeId{3});
  std::vector<std::uint64_t> got;
  sim.spawn(receive(q, 1, got));
  fabric.set_node_down(NodeId{3}, true);
  q.push(message(1));
  sim.run();
  EXPECT_TRUE(got.empty());
  fabric.set_node_down(NodeId{3}, false);
  q.push(message(2));
  sim.run();
  EXPECT_EQ(got, std::vector<std::uint64_t>{2});
}

// A copy of the message would give its path a buffer of its own; a move
// hands the pushed buffer through to the receiver.
TEST(CommitQueue, MovedInMessageIsNeverCopied) {
  Simulation sim;
  net::Fabric fabric(sim, net::FabricConfig{});
  CommitQueue q(sim, fabric, NodeId{0});
  OpMessage m;
  m.path = "/bench/app/a/path/well/past/the/small/string/buffer/file_000123";
  const char* const buffer = m.path.data();
  q.push(std::move(m));
  std::optional<OpMessage> got;
  sim.spawn([](CommitQueue& queue, std::optional<OpMessage>& out) -> Task<> {
    out = co_await queue.recv();
  }(q, got));
  sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->path.data(), buffer);
}

// The delivery callback shares ownership of the channel, so a queue torn
// down with a message on the wire leaves nothing dangling (a sanitizer
// build would report the late delivery's access otherwise).
TEST(CommitQueue, DeliveryInFlightOutlivesTheQueue) {
  Simulation sim;
  net::Fabric fabric(sim, net::FabricConfig{});
  auto q = std::make_unique<CommitQueue>(sim, fabric, NodeId{0});
  q->push(message(1));
  q->close();
  q.reset();
  sim.run();
  EXPECT_GT(sim.now(), 0u) << "the delivery event ran after the queue was gone";
}

}  // namespace
}  // namespace pacon::core
