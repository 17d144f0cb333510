// Allocation test for fs::LruTtlCache.
//
// The cache keeps its entries in one slot vector that never grows past its
// capacity and finds them through one flat index, so filling it allocates
// only when one of the two grows, and a full cache evicting and inserting
// reuses the freed slot without touching the heap. This binary replaces the
// global operator new/delete to count allocations, which is why it is not
// folded into fs_lru_cache_test.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "fs/lru_cache.h"

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

namespace pacon::fs {
namespace {

constexpr std::uint64_t kCapacity = 10'000;

TEST(LruTtlCacheAlloc, FillingAllocatesOnlyToGrowSlotsAndIndex) {
  LruTtlCache<std::uint64_t, std::uint64_t> cache(kCapacity);
  const std::size_t before = g_allocations;
  for (std::uint64_t k = 0; k < kCapacity; ++k) cache.insert(k, k, 0);
  const std::size_t grows = g_allocations - before;
  EXPECT_EQ(cache.size(), kCapacity);
  // About log2(capacity) doublings each for the slot vector and the index.
  EXPECT_LE(grows, 40u);
}

TEST(LruTtlCacheAlloc, EvictingInsertsAtCapacityMakeNoHeapAllocations) {
  LruTtlCache<std::uint64_t, std::uint64_t> cache(kCapacity);
  for (std::uint64_t k = 0; k < kCapacity; ++k) cache.insert(k, k, 0);
  const std::size_t before = g_allocations;
  for (std::uint64_t k = kCapacity; k < kCapacity + 100'000; ++k) cache.insert(k, k, 0);
  EXPECT_EQ(g_allocations - before, 0u);
  EXPECT_EQ(cache.size(), kCapacity);
  EXPECT_NE(cache.find(kCapacity + 99'999, 0), nullptr);
  EXPECT_EQ(cache.find(std::uint64_t{99'999}, 0), nullptr);
}

}  // namespace
}  // namespace pacon::fs
