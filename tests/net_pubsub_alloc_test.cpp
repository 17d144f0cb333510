// Allocation regression test for the commit queue's delivery path.
//
// A pub/sub delivery is one scheduled callback capturing the subscription
// and the moved message. SmallFunc stores a capture of that size inline and
// the kernel recycles callback slots, so a warmed-up single-subscriber
// delivery of an OpMessage to a waiting receiver should touch the heap not
// at all. This binary replaces the global operator new/delete to count
// allocations, which is why it is not folded into net_pubsub_test.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <new>
#include <string>

#include "core/op_message.h"
#include "net/fabric.h"
#include "net/pubsub.h"
#include "sim/frame_pool.h"
#include "sim/simulation.h"

namespace {

std::size_t g_allocations = 0;

void* counted_alloc(std::size_t bytes) {
  ++g_allocations;
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t bytes) { return counted_alloc(bytes); }
void* operator new[](std::size_t bytes) { return counted_alloc(bytes); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace pacon::net {
namespace {

using core::OpMessage;
using sim::Simulation;
using sim::Task;
using namespace sim::literals;

using Bus = PubSubBus<OpMessage>;

// A short path fits the small-string buffer, so building and moving the
// message never allocates; only the delivery itself could.
OpMessage message(std::uint64_t op_id) {
  OpMessage m;
  m.path = "/r/f";
  m.op_id = op_id;
  return m;
}

// lint-allow: coro-param-ref both referents are locals of the test body, which outlives the run
Task<> receive(Bus::Subscription& sub, int n, int& got) {
  for (int i = 0; i < n; ++i) {
    const auto m = co_await sub.recv();
    if (m && m->path == "/r/f" && m->op_id == static_cast<std::uint64_t>(i)) ++got;
  }
}

// One warm-up delivery fills the callback slots, the event queue and the
// frame pool; the count covers only the `n` deliveries after it.
// lint-allow: coro-param-ref both referents are locals of the test body, which outlives the run
Task<std::size_t> allocations_after_warm_up(Simulation& sim, Bus& bus, Bus::TopicHandle topic,
                                            int n) {
  bus.publish(NodeId{1}, topic, message(0));
  co_await sim.delay(1_ms);
  const std::size_t before = g_allocations;
  for (int i = 1; i <= n; ++i) {
    bus.publish(NodeId{1}, topic, message(static_cast<std::uint64_t>(i)));
    co_await sim.delay(1_ms);
  }
  co_return g_allocations - before;
}

TEST(PubSubAlloc, WarmOpMessageDeliveriesMakeNoHeapAllocations) {
  if (!sim::detail::frame_pool_enabled()) {
    GTEST_SKIP() << "frames come from the heap when the frame pool is compiled out";
  }
  Simulation sim;
  Fabric fabric(sim, FabricConfig{});
  Bus bus(sim, fabric);
  auto sub = bus.subscribe("commits", NodeId{0});
  Bus::TopicHandle topic = bus.topic_handle("commits");
  int got = 0;
  sim.spawn(receive(*sub, 1001, got));
  EXPECT_EQ(sim::run_task(sim, allocations_after_warm_up(sim, bus, topic, 1000)), 0u);
  EXPECT_EQ(got, 1001);
}

}  // namespace
}  // namespace pacon::net
