// Size-classed free-list recycling for coroutine frames.
//
// Every simulated process, RPC, and channel-spawned helper is a coroutine
// whose frame was a malloc/free pair per invocation; under the figure
// workloads that is millions of allocator round trips of a handful of
// distinct sizes. Task promises route frame allocation through this pool:
// frames are binned into 64-byte size classes and freed frames park on a
// per-class free list for reuse. Each block carries a small header with its
// class, so frees need no size from the caller.
//
// The free list is sized by high-water mark: each class retains at most as
// many cached frames as were ever simultaneously live in it, so the pool's
// footprint is bounded by the workload's own peak concurrency and a long
// run cannot hoard memory that one early burst touched.
//
// Allocation is best fit: a request takes the smallest parked block of its
// own class or of a larger class up to twice its size, and goes to the heap
// only when none is parked. Two call chains that run one after the other
// (a client's create, then its getattr) thus share one set of blocks
// instead of each parking its own peak. A borrowed block keeps its class.
//
// Sanitizer + detector builds compile the pool OUT (plain operator
// new/delete): recycled frames would otherwise mask use-after-free from
// ASan and resume-after-destroy from the coroutine-lifetime detector, and
// those gates exist precisely to catch such bugs (see DESIGN.md).
#pragma once

#include <cstddef>

#include "debug/coro_check.h"  // PACON_DEBUG_COROS default

// Pool availability: off under any sanitizer and whenever the
// coroutine-lifetime detector is compiled in.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PACON_FRAME_POOL 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define PACON_FRAME_POOL 0
#endif
#endif
#if !defined(PACON_FRAME_POOL) && PACON_DEBUG_COROS
#define PACON_FRAME_POOL 0
#endif
#ifndef PACON_FRAME_POOL
#define PACON_FRAME_POOL 1
#endif

namespace pacon::sim::detail {

#if PACON_FRAME_POOL

/// Allocates a frame of `bytes`, reusing a pooled block when available.
void* frame_alloc(std::size_t bytes);

/// Returns a frame to its size-class free list (or the heap, if the class
/// is already holding its high-water-mark worth of frames).
void frame_free(void* p) noexcept;

/// Frames currently parked on free lists (test/diagnostic hook).
std::size_t pooled_frame_count();

/// Bytes of the blocks currently parked on free lists, block headers
/// included (test/diagnostic hook).
std::size_t pooled_frame_bytes();

/// Total frame allocations served from a free list (test/diagnostic hook).
std::size_t pooled_frame_reuses();

#else

inline void* frame_alloc(std::size_t bytes) { return ::operator new(bytes); }
inline void frame_free(void* p) noexcept { ::operator delete(p); }
inline std::size_t pooled_frame_count() { return 0; }
inline std::size_t pooled_frame_bytes() { return 0; }
inline std::size_t pooled_frame_reuses() { return 0; }

#endif  // PACON_FRAME_POOL

/// True when frame pooling is compiled in (plain fast builds only).
constexpr bool frame_pool_enabled() { return PACON_FRAME_POOL != 0; }

}  // namespace pacon::sim::detail
