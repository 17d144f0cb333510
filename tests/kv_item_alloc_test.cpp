// Ownership and allocation test for the cache server's items.
//
// Every item is a heap allocation owned by its server, so flush() and the
// server's destructor are the only things standing between a cold restart
// or a region teardown and a leak, and the item is the only allocation a
// store into a warm table makes. This binary replaces the global operator
// new/delete to count live allocations and allocation calls, which is why
// it is not folded into kv_memcache_test.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <new>
#include <string>

#include "kv/memcache.h"
#include "sim/simulation.h"

namespace {

long g_live = 0;
long g_allocations = 0;

void* counted_alloc(std::size_t bytes) {
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) {
    ++g_live;
    ++g_allocations;
    return p;
  }
  throw std::bad_alloc();
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  --g_live;
  std::free(p);
}

}  // namespace

void* operator new(std::size_t bytes) { return counted_alloc(bytes); }
void* operator new[](std::size_t bytes) { return counted_alloc(bytes); }
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }

namespace pacon::kv {
namespace {

constexpr int kItems = 500;

// Keys and values both outgrow the small-string buffer, as cached paths and
// encoded entries do.
void fill(MemCacheServer& server) {
  for (int i = 0; i < kItems; ++i) {
    KvRequest req{KvRequest::Op::set, "/app/dir" + std::to_string(i % 7) + "/file" +
                                          std::to_string(i),
                  std::string(static_cast<std::size_t>(40 + i % 90), 'v'), 0, 0};
    ASSERT_EQ(server.apply(req).status, KvStatus::ok);
  }
  ASSERT_EQ(server.item_count(), static_cast<std::uint64_t>(kItems));
}

// One server, its simulation and fabric, filled and then torn down.
void filled_server_lifetime(KvConfig cfg) {
  sim::Simulation sim;
  net::Fabric fabric(sim, net::FabricConfig{});
  MemCacheServer server(sim, fabric, net::NodeId{0}, cfg);
  fill(server);
}

class KvItemAlloc : public ::testing::TestWithParam<bool> {
 protected:
  KvConfig config() const {
    KvConfig cfg;
    cfg.lru_eviction = GetParam();
    return cfg;
  }
};

TEST_P(KvItemAlloc, FlushFreesEveryItem) {
  sim::Simulation sim;
  net::Fabric fabric(sim, net::FabricConfig{});
  MemCacheServer server(sim, fabric, net::NodeId{0}, config());
  // The first fill grows the item table's bucket array, which flush() keeps;
  // from then on a fill-and-flush cycle must end where it started.
  fill(server);
  server.flush();
  const long before = g_live;
  fill(server);
  EXPECT_GE(g_live, before + kItems);
  server.flush();
  EXPECT_EQ(g_live, before);
  EXPECT_EQ(server.bytes_used(), 0u);
}

TEST_P(KvItemAlloc, StoreIntoWarmTableAllocatesOnlyTheItem) {
  sim::Simulation sim;
  net::Fabric fabric(sim, net::FabricConfig{});
  MemCacheServer server(sim, fabric, net::NodeId{0}, config());
  // After a fill and a flush the item table has buckets for every item of
  // the next fill, so a store's one allocation is the item itself.
  fill(server);
  server.flush();
  for (int i = 0; i < kItems; ++i) {
    const KvRequest req{KvRequest::Op::add, "/app/warm/file" + std::to_string(i),
                        std::string(66, 'v'), 0, 0};
    const long before = g_allocations;
    ASSERT_EQ(server.apply(req).status, KvStatus::ok);
    ASSERT_EQ(g_allocations - before, 1) << "store " << i;
  }
}

TEST_P(KvItemAlloc, DestructionFreesEveryItem) {
  // The first lifetime warms the process-wide frame pool, which keeps the
  // RPC workers' frames for reuse; a second lifetime must end where it
  // started, items included.
  filled_server_lifetime(config());
  const long before = g_live;
  filled_server_lifetime(config());
  EXPECT_EQ(g_live, before);
}

INSTANTIATE_TEST_SUITE_P(Lru, KvItemAlloc, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "LruOn" : "LruOff";
                         });

}  // namespace
}  // namespace pacon::kv
