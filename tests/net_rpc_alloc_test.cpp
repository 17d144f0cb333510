// Allocation regression test for the RPC round trip.
//
// A call keeps its envelope -- request, reply slot and caller handle -- in
// the caller's own coroutine frame, and frames come from the size-classed
// pool, so a warmed-up round trip should touch the heap not at all. This
// binary replaces the global operator new/delete to count allocations,
// which is why it is not folded into net_rpc_test.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <new>
#include <string>

#include "net/fabric.h"
#include "net/rpc.h"
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

using sim::Simulation;
using sim::Task;
using namespace sim::literals;

// Both fit the small-string buffer, so moving them never allocates.
struct Req {
  std::string key;
};
struct Resp {
  std::string value;
};

// One warm-up call fills the frame pool and the event queue; the count
// covers only the `n` round trips after it.
// lint-allow: coro-param-ref both referents are locals of the test body, which outlives the run
Task<std::size_t> allocations_after_warm_up(RpcService<Req, Resp>& svc, int n, int& ok) {
  const Req warm_up{"k"};
  (void)co_await svc.call(NodeId{1}, warm_up);
  const std::size_t before = g_allocations;
  for (int i = 0; i < n; ++i) {
    const Req req{"k"};
    const auto resp = co_await svc.call(NodeId{1}, req);
    if (resp && resp->value == "k!") ++ok;
  }
  co_return g_allocations - before;
}

TEST(RpcAlloc, WarmRoundTripsMakeNoHeapAllocations) {
  if (!sim::detail::frame_pool_enabled()) {
    GTEST_SKIP() << "frames come from the heap when the frame pool is compiled out";
  }
  Simulation sim;
  FabricConfig fabric_cfg;
  fabric_cfg.jitter_frac = 0.0;
  Fabric fabric(sim, fabric_cfg);
  RpcService<Req, Resp> svc(sim, fabric, NodeId{0}, [&sim](Req r) -> Task<Resp> {
    co_await sim.delay(1_us);
    co_return Resp{r.key + "!"};
  });
  int ok = 0;
  EXPECT_EQ(sim::run_task(sim, allocations_after_warm_up(svc, 1000, ok)), 0u);
  EXPECT_EQ(ok, 1000);
}

}  // namespace
}  // namespace pacon::net
