// Discrete-event simulation kernel.
//
// The kernel owns a virtual clock and a priority queue of pending events.
// Simulated processes are Task<> coroutines spawned onto the kernel; they
// advance virtual time by awaiting `sim.delay(...)` and communicate through
// the primitives in channel.h / sync.h. Execution is single-threaded and,
// given a fixed seed, fully deterministic.
//
// Events at equal timestamps run in FIFO order of scheduling (a strictly
// monotone sequence number breaks ties), which keeps runs reproducible.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <optional>
#include <source_location>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "debug/coro_check.h"
#include "sim/event_heap.h"
#include "sim/metrics.h"
#include "sim/random.h"
#include "sim/small_func.h"
#include "sim/task.h"
#include "sim/time.h"

namespace pacon::obs {
class FlightRecorder;
class Tracer;
}  // namespace pacon::obs

namespace pacon::sim {

class Simulation {
 public:
  explicit Simulation(std::uint64_t seed = 1);
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;
  ~Simulation();

  /// Current virtual time.
  SimTime now() const { return now_; }

  /// Root RNG for this run; components should fork() their own streams.
  Rng& rng() { return rng_; }

  /// Metric registry shared by all components of this run.
  MetricRegistry& metrics() { return metrics_; }

  /// Starts a root process at the current virtual time. The kernel keeps the
  /// coroutine frame alive until the Simulation is destroyed. The implicit
  /// source location becomes the process's creation-site tag in
  /// coroutine-lifetime reports (PACON_DEBUG_COROS builds).
  void spawn(Task<> process,
             std::source_location loc = std::source_location::current()) {
    spawn_at(now_, std::move(process), loc);
  }

  /// Starts a root process at an absolute virtual time (>= now).
  void spawn_at(SimTime at, Task<> process,
                std::source_location loc = std::source_location::current());

  /// Resumes `h` at absolute virtual time `at` (>= now). Defined inline:
  /// this is the kernel's hottest entry (every delay/yield/channel wakeup
  /// lands here), and the push must stay inlined into callers.
  void schedule(SimTime at, std::coroutine_handle<> h) {
    assert(at >= now_);
    assert(h);
    debug::coro_scheduled(h.address(), this);
    queue_.push(KernelEvent{at, next_seq_++, KernelEvent::encode_handle(h.address())});
  }

  /// Resumes `h` at the current virtual time, after already-queued events.
  void schedule_now(std::coroutine_handle<> h) { schedule(now_, h); }

  /// Flushes the kernel's event counts into the metric registry:
  /// "kernel.dispatched" (events processed) and "kernel.scheduled" (events
  /// ever queued). Idempotent: counters are overwritten, not accumulated.
  void publish_kernel_metrics();

  /// Destroys root coroutine frames that have run to completion (they park
  /// at their final suspension point otherwise). Long multi-wave scenarios
  /// -- the mega bench spawns 10^6 client processes -- call this between
  /// waves to keep resident frames bounded.
  std::size_t reap_completed_roots();

  /// Runs `fn` at absolute virtual time `at` (>= now). `fn` is any
  /// void-callable (move-only captures welcome); captures up to
  /// SmallFunc::kInlineBytes are stored without heap allocation in a
  /// recycled slot pool, so the dominant delivery paths never allocate.
  /// Inline for the same reason as schedule(): the commit-queue delivery
  /// path pays this per message.
  void schedule_callback(SimTime at, SmallFunc fn) {
    assert(at >= now_);
    assert(fn);
    const std::uint32_t slot = acquire_callback_slot(std::move(fn));
    queue_.push(KernelEvent{at, next_seq_++, KernelEvent::encode_callback(slot)});
  }

  /// Awaitable that suspends the caller for `d` of virtual time.
  /// A zero delay still goes through the event queue (fair yield).
  auto delay(SimDuration d) {
    struct Awaiter {
      Simulation& sim;
      SimDuration dur;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) const { sim.schedule(sim.now_ + dur, h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, d};
  }

  /// Awaitable that reschedules the caller behind already-queued events.
  auto yield() { return delay(0); }

  /// Processes events until the queue is empty. Unsuitable when immortal
  /// background processes (periodic timers) are live -- prefer run_until or
  /// the step loop in run_task.
  void run();

  /// Dispatches exactly one event; returns false when the queue was empty.
  bool step();

  /// Processes events with timestamp <= `deadline`. Returns true if events
  /// remain queued afterwards. Advances the clock to `deadline` if the run
  /// drained early, so subsequent spawns start no earlier than `deadline`.
  bool run_until(SimTime deadline);

  /// Convenience: run_until(now() + d).
  bool run_for(SimDuration d) { return run_until(now_ + d); }

  /// Total number of events processed so far (diagnostics).
  std::uint64_t events_processed() const { return events_processed_; }

  // ---- Determinism tracing --------------------------------------------------
  //
  // With a hook installed, the kernel emits one record per dispatched event
  // and components may interleave labelled notes (op ids, commit outcomes).
  // Two same-seed runs must produce byte-identical record streams; the first
  // divergence pinpoints hidden nondeterminism (pointer ordering, wall-clock
  // reads, unordered-container iteration). See tests/pacon_determinism_check.

  struct TraceRecord {
    /// Running index of this record within the run (0-based).
    std::uint64_t index = 0;
    /// Virtual time of the record.
    SimTime at = 0;
    /// Kernel sequence number of the event being (or just) dispatched.
    std::uint64_t event_seq = 0;
    /// Empty for a plain event dispatch; otherwise the component note.
    std::string label;
  };
  using TraceHook = std::function<void(const TraceRecord&)>;

  /// Installs (or, with nullptr, removes) the trace hook.
  void set_trace_hook(TraceHook hook) { trace_hook_ = std::move(hook); }

  /// True while a trace hook is installed; components guard their notes on
  /// this so tracing costs nothing when off.
  bool tracing() const { return static_cast<bool>(trace_hook_); }

  /// Emits a labelled record at the current virtual time (no-op when off).
  void trace_note(std::string label) {
    if (!trace_hook_) return;
    trace_hook_(TraceRecord{trace_index_++, now_, current_event_seq_, std::move(label)});
  }

  /// Like trace_note, but defers label construction: `make_label` (returning
  /// std::string) is only invoked while a hook is installed, so call sites
  /// can format rich labels without paying for them in untraced runs.
  template <typename LabelFn>
  void trace_note_lazy(LabelFn&& make_label) {
    if (!trace_hook_) return;
    trace_note(std::forward<LabelFn>(make_label)());
  }

  // ---- Operation tracing (obs/trace.h) --------------------------------------
  //
  // The kernel only carries an opaque pointer; the span tracer lives in
  // src/obs and is owned by whoever installed it. With no tracer installed
  // every instrumentation site reduces to one null check (the same guarded
  // zero-cost idiom as the determinism hook above).

  /// Installs (or, with nullptr, removes) the span tracer.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Installed span tracer, or nullptr. Instrumentation sites guard on this.
  obs::Tracer* tracer() const { return tracer_; }

  // ---- Flight recorder (obs/recorder.h) -------------------------------------
  //
  // Same null-guarded opaque-pointer idiom as the tracer: the kernel never
  // calls into the recorder. The recorder drives *itself* off the virtual
  // clock with self-rescheduling callback events, so a run without one pays
  // nothing -- not even a per-dispatch branch -- and the pointer exists only
  // so a pending sample tick can verify its recorder is still the installed
  // one (the lifetime guard, mirroring obs::Span::finish).

  /// Installs (or, with nullptr, removes) the flight recorder.
  void set_recorder(obs::FlightRecorder* recorder) { recorder_ = recorder; }

  /// Installed flight recorder, or nullptr.
  obs::FlightRecorder* recorder() const { return recorder_; }

 private:
  void dispatch(const KernelEvent& ev);
  std::uint32_t acquire_callback_slot(SmallFunc fn);

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  EventHeap queue_;
  // Callback storage for KernelEvent payloads: an event's payload indexes
  // into callback_slots_; freed slots recycle through free_callback_slots_,
  // so steady-state callback scheduling performs no allocation at all.
  std::vector<SmallFunc> callback_slots_;
  std::vector<std::uint32_t> free_callback_slots_;
  std::vector<Task<>> roots_;
  Rng rng_;
  MetricRegistry metrics_;
  TraceHook trace_hook_;
  std::uint64_t trace_index_ = 0;
  std::uint64_t current_event_seq_ = 0;
  // Last on purpose: keeps the dispatch loop's hot members (trace_index_,
  // current_event_seq_) on the same cache lines as before tracing existed.
  obs::Tracer* tracer_ = nullptr;
  obs::FlightRecorder* recorder_ = nullptr;
};

namespace detail {

template <typename T>
Task<> capture_result(Task<T> t, std::optional<T>& out, std::exception_ptr& err) {
  try {
    out.emplace(co_await t);
  } catch (...) {
    err = std::current_exception();
  }
}

inline Task<> capture_void(Task<> t, bool& done, std::exception_ptr& err) {
  try {
    co_await t;
    done = true;
  } catch (...) {
    err = std::current_exception();
  }
}

}  // namespace detail

/// Runs a task to completion, stepping the event loop only as long as the
/// task is unfinished (immortal background processes cannot wedge it), and
/// returns its result. Throws std::logic_error if the queue drains while the
/// task is still blocked (a genuine deadlock in the scenario under test).
template <typename T>
T run_task(Simulation& sim, Task<T> t) {
  std::optional<T> out;
  std::exception_ptr err;
  sim.spawn(detail::capture_result(std::move(t), out, err));
  while (!out.has_value() && !err) {
    if (!sim.step()) break;
  }
  if (err) std::rethrow_exception(err);
  if (!out.has_value()) {
    throw std::logic_error("run_task: task blocked forever (event queue drained)");
  }
  return std::move(*out);
}

inline void run_task(Simulation& sim, Task<> t) {
  bool done = false;
  std::exception_ptr err;
  sim.spawn(detail::capture_void(std::move(t), done, err));
  while (!done && !err) {
    if (!sim.step()) break;
  }
  if (err) std::rethrow_exception(err);
  if (!done) {
    throw std::logic_error("run_task: task blocked forever (event queue drained)");
  }
}

}  // namespace pacon::sim
