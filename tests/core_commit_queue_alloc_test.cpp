// Allocation regression test for the commit queue's delivery path.
//
// A delivery is one scheduled callback capturing a share of the queue's
// channel and the moved message. SmallFunc stores a capture of that size
// inline and the kernel recycles callback slots, so a warmed-up delivery of
// an OpMessage to a waiting receiver should touch the heap not at all. This
// binary replaces the global operator new/delete to count allocations,
// which is why it is not folded into core_commit_queue_test.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <new>
#include <string>

#include "core/commit_queue.h"
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

namespace pacon::core {
namespace {

using sim::Simulation;
using sim::Task;
using namespace sim::literals;

// A short path fits the small-string buffer, so building and moving the
// message never allocates; only the delivery itself could.
OpMessage message(std::uint64_t op_id) {
  OpMessage m;
  m.path = "/r/f";
  m.op_id = op_id;
  return m;
}

// lint-allow: coro-param-ref both referents are locals of the test body, which outlives the run
Task<> receive(CommitQueue& q, int n, int& got) {
  for (int i = 0; i < n; ++i) {
    const auto m = co_await q.recv();
    if (m && m->path == "/r/f" && m->op_id == static_cast<std::uint64_t>(i)) ++got;
  }
}

// One warm-up delivery fills the callback slots, the event queue and the
// frame pool; the count covers only the `n` deliveries after it.
// lint-allow: coro-param-ref both referents are locals of the test body, which outlives the run
Task<std::size_t> allocations_after_warm_up(Simulation& sim, CommitQueue& q, int n) {
  q.push(message(0));
  co_await sim.delay(1_ms);
  const std::size_t before = g_allocations;
  for (int i = 1; i <= n; ++i) {
    q.push(message(static_cast<std::uint64_t>(i)));
    co_await sim.delay(1_ms);
  }
  co_return g_allocations - before;
}

TEST(CommitQueueAlloc, WarmOpMessageDeliveriesMakeNoHeapAllocations) {
  if (!sim::detail::frame_pool_enabled()) {
    GTEST_SKIP() << "frames come from the heap when the frame pool is compiled out";
  }
  Simulation sim;
  net::Fabric fabric(sim, net::FabricConfig{});
  CommitQueue q(sim, fabric, net::NodeId{0});
  int got = 0;
  sim.spawn(receive(q, 1001, got));
  EXPECT_EQ(sim::run_task(sim, allocations_after_warm_up(sim, q, 1000)), 0u);
  EXPECT_EQ(got, 1001);
}

}  // namespace
}  // namespace pacon::core
