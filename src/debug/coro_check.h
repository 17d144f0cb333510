// Coroutine-lifetime detector: a race-detector analogue for the cooperative
// scheduler.
//
// The simulation kernel is single-threaded, so classic data-race tools see
// nothing wrong with a coroutine that is resumed twice, resumed after its
// frame was destroyed, or parked forever on a primitive that has since been
// destructed -- yet each of those is undefined behaviour or a silent leak.
// This registry shadows every coroutine frame the kernel touches and reports
// the moment an invariant breaks, before the broken resume executes:
//
//   * double-schedule      -- one suspension, two queued wakeups;
//   * schedule/resume of a frame that already completed or was destroyed;
//   * reentrant resume     -- resuming a frame that is currently running;
//   * co_await on a dead primitive (destroyed Channel/Gate/Mutex/...);
//   * primitive destroyed while live coroutines still wait on it;
//   * coroutines still alive (and unowned) at Simulation teardown.
//
// Everything here compiles to empty inline stubs unless PACON_DEBUG_COROS is
// defined non-zero (CMake: -DPACON_DEBUG_COROS=ON, default ON in sanitizer
// builds), so instrumentation calls in the kernel stay unconditional.
//
// Reports go through a process-wide handler. The default prints the report
// to stderr and aborts (so sanitizer/CI runs fail fast); tests install a
// capturing handler to assert on individual violations.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#ifndef PACON_DEBUG_COROS
#define PACON_DEBUG_COROS 0
#endif

namespace pacon::debug {

enum class CoroViolation : std::uint8_t {
  double_schedule,
  schedule_after_done,
  schedule_after_destroy,
  resume_after_done,
  resume_after_destroy,
  reentrant_resume,
  await_dead_primitive,
  primitive_destroyed_with_waiters,
  leak_at_teardown,
};

const char* to_string(CoroViolation v);

struct CoroReport {
  CoroViolation kind;
  /// Registry id of the frame involved; 0 when the frame is unknown (e.g. a
  /// resume of an address that was never registered, or already reclaimed).
  std::uint64_t coro_id = 0;
  /// Creation-site tag ("file:line" from spawn, or a caller-provided name).
  std::string tag;
  std::string detail;
};

/// Installs `handler` for subsequent violations; nullptr restores the
/// default print-and-abort handler. Returns nothing; single-threaded use.
using CoroReportHandler = std::function<void(const CoroReport&)>;
void set_coro_report_handler(CoroReportHandler handler);

/// True when the detector is compiled in (PACON_DEBUG_COROS builds).
constexpr bool coro_checking_enabled() { return PACON_DEBUG_COROS != 0; }

#if PACON_DEBUG_COROS

// ---- Frame lifecycle hooks (called from task.h / simulation.cpp) ----------

void coro_created(const void* frame);
void coro_tag(const void* frame, std::string tag);
/// A kernel event queued a wakeup for `frame` on simulation `sim`.
void coro_scheduled(const void* frame, const void* sim);
/// The kernel is about to resume `frame`.
void coro_resuming(const void* frame);
/// resume() returned; if the frame did not complete it is suspended again.
void coro_suspend_point(const void* frame);
/// The frame reached final suspend.
void coro_done(const void* frame);
/// The frame memory is being reclaimed.
void coro_destroyed(const void* frame);
/// Simulation `sim` tore down (queue discarded, owned roots destroyed):
/// report every still-live frame the kernel of `sim` ever scheduled.
void sim_teardown(const void* sim);

/// A primitive's destructor found `frame` still parked in its wait queue.
/// Reports only when the frame is still alive (dangling handles left behind
/// by an already-destroyed frame are normal teardown debris).
void waiter_abandoned(const char* primitive, const void* frame);

/// Frames currently registered and not yet done/destroyed (diagnostics).
std::size_t live_coro_count();

/// Lifetime canary embedded in every awaitable primitive. check_alive()
/// returns false -- after reporting -- when the owning primitive has been
/// destructed, letting awaiters bail out instead of touching dead state.
class AwaitableCanary {
 public:
  explicit AwaitableCanary(const char* type) : type_(type), magic_(kAlive) {}
  AwaitableCanary(const AwaitableCanary&) = delete;
  AwaitableCanary& operator=(const AwaitableCanary&) = delete;
  ~AwaitableCanary() { magic_ = kDead; }

  [[nodiscard]] bool check_alive(const void* awaiting_frame = nullptr) const;

 private:
  static constexpr std::uint32_t kAlive = 0xC0'30'A1'1Fu;
  static constexpr std::uint32_t kDead = 0xDEAD'C0'30u;

  const char* type_;
  // volatile: the destructor's kDead store is to an object whose lifetime is
  // ending, which the optimizer may otherwise elide as a dead store --
  // defeating the whole canary.
  volatile std::uint32_t magic_;
};

#else  // !PACON_DEBUG_COROS: zero-cost stubs

inline void coro_created(const void*) {}
inline void coro_tag(const void*, std::string) {}
inline void coro_scheduled(const void*, const void*) {}
inline void coro_resuming(const void*) {}
inline void coro_suspend_point(const void*) {}
inline void coro_done(const void*) {}
inline void coro_destroyed(const void*) {}
inline void sim_teardown(const void*) {}
inline void waiter_abandoned(const char*, const void*) {}
inline std::size_t live_coro_count() { return 0; }

class AwaitableCanary {
 public:
  explicit AwaitableCanary(const char*) {}
  AwaitableCanary(const AwaitableCanary&) = delete;
  AwaitableCanary& operator=(const AwaitableCanary&) = delete;
  ~AwaitableCanary() = default;

  [[nodiscard]] bool check_alive(const void* = nullptr) const { return true; }
};

#endif  // PACON_DEBUG_COROS

}  // namespace pacon::debug
