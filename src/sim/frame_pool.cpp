#include "sim/frame_pool.h"

#if PACON_FRAME_POOL

#include <algorithm>
#include <bit>
#include <cstdint>
#include <new>

namespace pacon::sim::detail {
namespace {

constexpr std::size_t kClassBytes = 64;
// Frames beyond 4 KiB are rare (huge local state); pass them to the heap.
constexpr std::size_t kMaxPooledBytes = 4096;
constexpr std::size_t kClassCount = kMaxPooledBytes / kClassBytes;
static_assert(kClassCount <= 64, "one bit per class in Pool::parked");
// Block header holding the size class; 16 bytes keeps the frame that
// follows at the allocator's natural (max_align_t) alignment.
constexpr std::size_t kHeaderBytes = 16;
static_assert(alignof(std::max_align_t) <= kHeaderBytes);
// Sentinel class for blocks that bypass the pool.
constexpr std::uint32_t kUnpooled = UINT32_MAX;

struct FreeNode {
  FreeNode* next;
};

struct SizeClass {
  FreeNode* free = nullptr;  // intrusive list of parked frames
  std::size_t cached = 0;    // length of `free`
  std::size_t live = 0;      // frames currently handed out
  std::size_t high_water = 0;
};

struct Pool {
  SizeClass classes[kClassCount];
  std::uint64_t parked = 0;  // bit c set <=> classes[c].free is non-empty
  std::size_t reuses = 0;
  std::size_t total_cached = 0;
  std::size_t cached_bytes = 0;

  ~Pool() {
    for (SizeClass& c : classes) {
      while (c.free) {
        FreeNode* n = c.free;
        c.free = n->next;
        ::operator delete(n);
      }
    }
  }
};

// thread_local: one Simulation runs single-threaded, but test runners may
// host independent simulations on different threads; a thread-local pool is
// safe with zero locking on the hot path.
Pool& pool() {
  thread_local Pool p;
  return p;
}

std::uint32_t* block_header(void* frame) {
  // lint-allow: sim-reinterpret-coro reads the pool's own size header in front of the frame
  return reinterpret_cast<std::uint32_t*>(static_cast<unsigned char*>(frame) - kHeaderBytes);
}

void* block_to_frame(void* block) { return static_cast<unsigned char*>(block) + kHeaderBytes; }
void* frame_to_block(void* frame) { return static_cast<unsigned char*>(frame) - kHeaderBytes; }

constexpr std::size_t class_bytes(std::size_t cls) { return (cls + 1) * kClassBytes; }

/// Smallest class with a parked block among `cls` and the larger classes
/// whose blocks are at most twice `total`; kClassCount when there is none.
std::size_t best_fit(const Pool& p, std::size_t cls, std::size_t total) {
  const std::size_t last = std::min(kClassCount, std::max(2 * total / kClassBytes, cls + 1)) - 1;
  const std::uint64_t fits =
      p.parked & (~std::uint64_t{0} << cls) & (~std::uint64_t{0} >> (63 - last));
  return fits == 0 ? kClassCount : static_cast<std::size_t>(std::countr_zero(fits));
}

}  // namespace

void* frame_alloc(std::size_t bytes) {
  const std::size_t total = bytes + kHeaderBytes;
  if (total > kMaxPooledBytes) {
    void* block = ::operator new(total);
    *static_cast<std::uint32_t*>(block) = kUnpooled;
    return block_to_frame(block);
  }
  const std::size_t want = (total + kClassBytes - 1) / kClassBytes - 1;
  Pool& p = pool();
  // Best fit: a parked block of this class or of a larger one up to twice
  // the request serves it before the heap does. The block keeps its own
  // class, so live and parked counts stay per block size.
  const std::size_t fit = best_fit(p, want, total);
  const std::size_t cls = fit == kClassCount ? want : fit;
  SizeClass& c = p.classes[cls];
  ++c.live;
  if (c.live > c.high_water) c.high_water = c.live;
  void* block;
  if (fit != kClassCount) {
    block = c.free;
    c.free = c.free->next;
    if (c.free == nullptr) p.parked &= ~(std::uint64_t{1} << cls);
    --c.cached;
    --p.total_cached;
    p.cached_bytes -= class_bytes(cls);
    ++p.reuses;
  } else {
    block = ::operator new(class_bytes(cls));
  }
  *static_cast<std::uint32_t*>(block) = static_cast<std::uint32_t>(cls);
  return block_to_frame(block);
}

void frame_free(void* frame) noexcept {
  if (frame == nullptr) return;
  const std::uint32_t cls = *block_header(frame);
  void* block = frame_to_block(frame);
  if (cls == kUnpooled) {
    ::operator delete(block);
    return;
  }
  Pool& p = pool();
  SizeClass& c = p.classes[cls];
  if (c.live > 0) --c.live;
  if (c.cached >= c.high_water) {
    // The class already parks its historical peak; return this one.
    ::operator delete(block);
    return;
  }
  auto* n = static_cast<FreeNode*>(block);
  n->next = c.free;
  c.free = n;
  p.parked |= std::uint64_t{1} << cls;
  ++c.cached;
  ++p.total_cached;
  p.cached_bytes += class_bytes(cls);
}

std::size_t pooled_frame_count() { return pool().total_cached; }

std::size_t pooled_frame_bytes() { return pool().cached_bytes; }

std::size_t pooled_frame_reuses() { return pool().reuses; }

}  // namespace pacon::sim::detail

#endif  // PACON_FRAME_POOL
