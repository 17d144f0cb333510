// Lazy coroutine task used for all simulated processes.
//
// A Task<T> is a coroutine that starts when first awaited and resumes its
// awaiter (via symmetric transfer) when it completes. Tasks are
// single-threaded: the simulation kernel resumes at most one coroutine at a
// time, so no synchronization is needed in promise state.
//
// Ownership: a Task owns its coroutine frame and destroys it in the
// destructor. Simulation::spawn() hands a Task to the kernel as a root
// process; release_detached() turns one into a frame that self-destructs at
// completion. A task that fails with nobody awaiting it -- a root process or
// a detached frame -- ends the program.
#pragma once

#include <cassert>
#include <coroutine>
#include <exception>
#include <optional>
#include <utility>

#include "debug/coro_check.h"
#include "sim/frame_pool.h"

namespace pacon::sim {

template <typename T = void>
class Task;

namespace detail {

struct PromiseBase {
  std::coroutine_handle<> continuation;
  std::exception_ptr error;
  bool detached = false;

  // Route every Task's coroutine frame through the size-classed frame pool
  // (a no-op pass-through to operator new/delete in sanitizer and detector
  // builds -- see frame_pool.h).
  static void* operator new(std::size_t bytes) { return frame_alloc(bytes); }
  static void operator delete(void* p) noexcept { frame_free(p); }

  struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }

    template <typename Promise>
    std::coroutine_handle<> await_suspend(std::coroutine_handle<Promise> h) const noexcept {
      PromiseBase& p = h.promise();
      debug::coro_done(h.address());
      if (p.continuation) return p.continuation;
      if (p.error) {
        // Nobody awaits this process, so nobody can observe its failure;
        // crashing loudly beats silently dropping a simulated server.
        std::rethrow_exception(p.error);  // noexcept context -> terminate
      }
      if (p.detached) {
        debug::coro_destroyed(h.address());
        h.destroy();
      }
      return std::noop_coroutine();
    }

    void await_resume() const noexcept {}
  };

  std::suspend_always initial_suspend() noexcept { return {}; }
  FinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() { error = std::current_exception(); }
};

}  // namespace detail

/// A lazily-started coroutine returning T.
template <typename T>
class Task {
 public:
  struct promise_type : detail::PromiseBase {
    std::optional<T> value;

    Task get_return_object() {
      auto h = std::coroutine_handle<promise_type>::from_promise(*this);
      debug::coro_created(h.address());
      return Task(h);
    }
    template <typename U>
    void return_value(U&& v) {
      value.emplace(std::forward<U>(v));
    }
  };

  Task() = default;
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, nullptr)) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool valid() const { return handle_ != nullptr; }

  auto operator co_await() {
    struct Awaiter {
      std::coroutine_handle<promise_type> h;
      bool await_ready() const { return !h || h.done(); }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) const {
        h.promise().continuation = cont;
        return h;  // start (or resume into) the task
      }
      T await_resume() const {
        assert(h);
        promise_type& p = h.promise();
        if (p.error) std::rethrow_exception(p.error);
        return std::move(*p.value);
      }
    };
    return Awaiter{handle_};
  }

  /// Releases the frame as a detached process whose frame self-destructs on
  /// completion. The caller must guarantee the coroutine runs to completion.
  std::coroutine_handle<promise_type> release_detached() {
    assert(handle_);
    handle_.promise().detached = true;
    return std::exchange(handle_, nullptr);
  }

  /// Raw handle, ownership retained. Used by the kernel to start owned root
  /// processes; the Task destructor still reclaims the frame.
  std::coroutine_handle<> raw_handle() const { return handle_; }

 private:
  void destroy() {
    if (handle_) {
      debug::coro_destroyed(handle_.address());
      handle_.destroy();
      handle_ = nullptr;
    }
  }

  std::coroutine_handle<promise_type> handle_;
};

template <>
class Task<void> {
 public:
  struct promise_type : detail::PromiseBase {
    Task get_return_object() {
      auto h = std::coroutine_handle<promise_type>::from_promise(*this);
      debug::coro_created(h.address());
      return Task(h);
    }
    void return_void() {}
  };

  Task() = default;
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, nullptr)) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool valid() const { return handle_ != nullptr; }

  auto operator co_await() {
    struct Awaiter {
      std::coroutine_handle<promise_type> h;
      bool await_ready() const { return !h || h.done(); }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) const {
        h.promise().continuation = cont;
        return h;
      }
      void await_resume() const {
        assert(h);
        if (h.promise().error) std::rethrow_exception(h.promise().error);
      }
    };
    return Awaiter{handle_};
  }

  std::coroutine_handle<promise_type> release_detached() {
    assert(handle_);
    handle_.promise().detached = true;
    return std::exchange(handle_, nullptr);
  }

  /// Raw handle, ownership retained (see Task<T>::raw_handle).
  std::coroutine_handle<> raw_handle() const { return handle_; }

 private:
  void destroy() {
    if (handle_) {
      debug::coro_destroyed(handle_.address());
      handle_.destroy();
      handle_ = nullptr;
    }
  }

  std::coroutine_handle<promise_type> handle_;
};

}  // namespace pacon::sim
