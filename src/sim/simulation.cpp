#include "sim/simulation.h"

#include <string>

namespace pacon::sim {

Simulation::Simulation(std::uint64_t seed) : rng_(seed) {}

Simulation::~Simulation() {
  // Teardown order matters for the coroutine-lifetime check: discard queued
  // wakeups, reclaim owned root frames (their Task destructors cascade into
  // nested frames), then audit for unowned frames this kernel scheduled that
  // nobody reclaimed.
  queue_.clear();
  callback_slots_.clear();
  free_callback_slots_.clear();
  roots_.clear();
  debug::sim_teardown(this);
}

void Simulation::spawn_at(SimTime at, Task<> process, std::source_location loc) {
  assert(at >= now_);
  assert(process.valid());
  debug::coro_tag(process.raw_handle().address(),
                  std::string(loc.file_name()) + ":" + std::to_string(loc.line()));
  roots_.push_back(std::move(process));
  // The kernel retains ownership: completed frames park at their final
  // suspension point and frames still blocked on channels at teardown are
  // both reclaimed by the Task destructors when the Simulation dies.
  schedule(at, roots_.back().raw_handle());
}

std::size_t Simulation::reap_completed_roots() {
  std::size_t reaped = 0;
  std::size_t keep = 0;
  for (std::size_t i = 0; i < roots_.size(); ++i) {
    if (roots_[i].raw_handle().done()) {
      ++reaped;  // dropping the Task destroys the parked frame
    } else {
      if (keep != i) roots_[keep] = std::move(roots_[i]);
      ++keep;
    }
  }
  roots_.resize(keep);
  return reaped;
}

std::uint32_t Simulation::acquire_callback_slot(SmallFunc fn) {
  if (!free_callback_slots_.empty()) {
    const std::uint32_t slot = free_callback_slots_.back();
    free_callback_slots_.pop_back();
    callback_slots_[slot] = std::move(fn);
    return slot;
  }
  const auto slot = static_cast<std::uint32_t>(callback_slots_.size());
  callback_slots_.push_back(std::move(fn));
  return slot;
}

void Simulation::dispatch(const KernelEvent& ev) {
  now_ = ev.at;
  current_event_seq_ = ev.seq;
  ++events_processed_;
  if (trace_hook_) trace_hook_(TraceRecord{trace_index_++, ev.at, ev.seq, {}});
  if (ev.is_callback()) {
    // Move the callable out and release the slot before invoking: the body
    // may schedule further callbacks (or destroy this Simulation's clients),
    // and the slot must be reusable by then.
    SmallFunc fn = std::move(callback_slots_[ev.callback_slot()]);
    callback_slots_[ev.callback_slot()].reset();
    free_callback_slots_.push_back(ev.callback_slot());
    fn();
  } else {
    auto h = std::coroutine_handle<>::from_address(ev.handle_address());
    debug::coro_resuming(h.address());
    h.resume();
    debug::coro_suspend_point(h.address());
  }
}

bool Simulation::step() {
  if (queue_.empty()) return false;
  const KernelEvent ev = queue_.pop();
  dispatch(ev);
  return true;
}

void Simulation::run() {
  while (!queue_.empty()) {
    const KernelEvent ev = queue_.pop();
    dispatch(ev);
  }
}

bool Simulation::run_until(SimTime deadline) {
  while (!queue_.empty() && queue_.top().at <= deadline) {
    const KernelEvent ev = queue_.pop();
    dispatch(ev);
  }
  if (now_ < deadline) now_ = deadline;
  return !queue_.empty();
}

void Simulation::publish_kernel_metrics() {
  auto set = [](Counter& c, std::uint64_t v) {
    c.reset();
    c.add(v);
  };
  MetricScope kernel = metrics_.scoped("kernel");
  set(kernel.counter("dispatched"), events_processed_);
  set(kernel.counter("scheduled"), next_seq_);
}

}  // namespace pacon::sim
