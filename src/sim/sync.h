// Awaitable synchronization primitives for simulated processes.
//
// All primitives are single-threaded (kernel-scheduled) and wake waiters
// through the event queue in FIFO order, so behaviour is deterministic.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <deque>
#include <utility>

#include "debug/coro_check.h"
#include "sim/simulation.h"

namespace pacon::sim {

/// Manually-reset gate. Processes await wait() until somebody open()s it.
class Gate {
 public:
  explicit Gate(Simulation& sim) : sim_(sim) {}
  Gate(const Gate&) = delete;
  Gate& operator=(const Gate&) = delete;
  ~Gate() {
    for (auto h : waiters_) debug::waiter_abandoned("Gate", h.address());
  }

  bool is_open() const { return open_; }

  void open() {
    open_ = true;
    for (auto h : waiters_) sim_.schedule_now(h);
    waiters_.clear();
  }

  void reset() { open_ = false; }

  auto wait() {
    struct Awaiter {
      Gate& gate;
      bool await_ready() const {
        if (!gate.canary_.check_alive()) return true;
        return gate.open_;
      }
      void await_suspend(std::coroutine_handle<> h) { gate.waiters_.push_back(h); }
      void await_resume() const {}
    };
    return Awaiter{*this};
  }

 private:
  Simulation& sim_;
  bool open_ = false;
  std::deque<std::coroutine_handle<>> waiters_;
  debug::AwaitableCanary canary_{"Gate"};
};

/// FIFO-fair counting semaphore.
class Semaphore {
 public:
  Semaphore(Simulation& sim, std::size_t permits) : sim_(sim), permits_(permits) {}
  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;
  ~Semaphore() {
    for (auto h : waiters_) debug::waiter_abandoned("Semaphore", h.address());
  }

  std::size_t available() const { return permits_; }

  auto acquire() {
    struct Awaiter {
      Semaphore& sem;
      bool await_ready() {
        if (!sem.canary_.check_alive()) return true;
        if (sem.permits_ == 0) return false;
        --sem.permits_;
        return true;
      }
      void await_suspend(std::coroutine_handle<> h) { sem.waiters_.push_back(h); }
      void await_resume() const {}
    };
    return Awaiter{*this};
  }

  void release() {
    if (!waiters_.empty()) {
      // Hand the permit directly to the longest waiter (no barging).
      auto h = waiters_.front();
      waiters_.pop_front();
      sim_.schedule_now(h);
      return;
    }
    ++permits_;
  }

 private:
  Simulation& sim_;
  std::size_t permits_;
  std::deque<std::coroutine_handle<>> waiters_;
  debug::AwaitableCanary canary_{"Semaphore"};
};

/// FIFO-fair mutex, a binary special case kept separate for clarity.
class Mutex {
 public:
  explicit Mutex(Simulation& sim) : sim_(sim) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;
  ~Mutex() {
    for (auto h : waiters_) debug::waiter_abandoned("Mutex", h.address());
  }

  bool locked() const { return locked_; }

  auto lock() {
    struct Awaiter {
      Mutex& mu;
      bool await_ready() {
        if (!mu.canary_.check_alive()) return true;
        if (mu.locked_) return false;
        mu.locked_ = true;
        return true;
      }
      void await_suspend(std::coroutine_handle<> h) { mu.waiters_.push_back(h); }
      void await_resume() const {}
    };
    return Awaiter{*this};
  }

  void unlock() {
    assert(locked_);
    if (!waiters_.empty()) {
      auto h = waiters_.front();
      waiters_.pop_front();
      sim_.schedule_now(h);  // lock ownership transfers to the waiter
      return;
    }
    locked_ = false;
  }

  /// RAII guard usable as: `auto g = co_await mu.scoped_lock();`
  class [[nodiscard]] Guard {
   public:
    explicit Guard(Mutex& mu) : mu_(&mu) {}
    Guard(Guard&& other) noexcept : mu_(std::exchange(other.mu_, nullptr)) {}
    Guard& operator=(Guard&&) = delete;
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;
    ~Guard() {
      if (mu_) mu_->unlock();
    }

   private:
    Mutex* mu_;
  };

  Task<Guard> scoped_lock() {
    co_await lock();
    co_return Guard(*this);
  }

 private:
  Simulation& sim_;
  bool locked_ = false;
  std::deque<std::coroutine_handle<>> waiters_;
  debug::AwaitableCanary canary_{"Mutex"};
};

/// Go-style wait group: add() work, done() it, await wait() for zero.
class WaitGroup {
 public:
  explicit WaitGroup(Simulation& sim) : sim_(sim) {}
  WaitGroup(const WaitGroup&) = delete;
  WaitGroup& operator=(const WaitGroup&) = delete;
  ~WaitGroup() {
    for (auto h : waiters_) debug::waiter_abandoned("WaitGroup", h.address());
  }

  void add(std::size_t n = 1) { pending_ += n; }

  void done() {
    assert(pending_ > 0);
    if (--pending_ == 0) {
      for (auto h : waiters_) sim_.schedule_now(h);
      waiters_.clear();
    }
  }

  std::size_t pending() const { return pending_; }

  auto wait() {
    struct Awaiter {
      WaitGroup& wg;
      bool await_ready() const {
        if (!wg.canary_.check_alive()) return true;
        return wg.pending_ == 0;
      }
      void await_suspend(std::coroutine_handle<> h) { wg.waiters_.push_back(h); }
      void await_resume() const {}
    };
    return Awaiter{*this};
  }

 private:
  Simulation& sim_;
  std::size_t pending_ = 0;
  std::deque<std::coroutine_handle<>> waiters_;
  debug::AwaitableCanary canary_{"WaitGroup"};
};

}  // namespace pacon::sim
