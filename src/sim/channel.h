// Awaitable MPMC channel for simulated processes.
//
// Single-threaded (kernel-scheduled) semantics: senders and receivers are
// coroutines resumed through the simulation event queue, never inline, so a
// long chain of sends cannot grow the native stack and wakeup order is the
// deterministic FIFO order of the queue.
//
// recv() resolves to std::optional<T>; nullopt means the channel was closed
// and fully drained, which is the idiomatic worker-loop exit condition.
//
// A blocked sender or receiver parks its awaiter -- which lives in its own
// suspended frame -- on an intrusive wait list, so parking and waking never
// touch the heap.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <deque>
#include <limits>
#include <optional>

#include "debug/coro_check.h"
#include "sim/simulation.h"

namespace pacon::sim {

/// Intrusive FIFO of parked awaiters. `Node` carries the `prev`/`next`
/// links; nodes live in their coroutines' frames, which stay suspended (and
/// alive) while linked.
template <typename Node>
class WaitList {
 public:
  bool empty() const { return head_ == nullptr; }
  std::size_t size() const { return size_; }
  Node* front() const { return head_; }

  void push_back(Node* n) {
    n->prev = tail_;
    n->next = nullptr;
    (tail_ != nullptr ? tail_->next : head_) = n;
    tail_ = n;
    ++size_;
  }
  Node* pop_front() {
    Node* n = head_;
    head_ = n->next;
    (head_ != nullptr ? head_->prev : tail_) = nullptr;
    --size_;
    return n;
  }
  Node* pop_back() {
    Node* n = tail_;
    tail_ = n->prev;
    (tail_ != nullptr ? tail_->next : head_) = nullptr;
    --size_;
    return n;
  }

 private:
  Node* head_ = nullptr;
  Node* tail_ = nullptr;
  std::size_t size_ = 0;
};

template <typename T>
class Channel {
 public:
  /// `capacity` bounds buffered items; senders block when full.
  explicit Channel(Simulation& sim, std::size_t capacity = std::numeric_limits<std::size_t>::max())
      : sim_(sim), capacity_(capacity) {
    assert(capacity_ > 0);
  }
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;
  ~Channel() {
    for (const RecvAwaiter* r = recv_waiters_.front(); r != nullptr; r = r->next) {
      debug::waiter_abandoned("Channel (receiver)", r->handle.address());
    }
    for (const SendAwaiter* s = send_waiters_.front(); s != nullptr; s = s->next) {
      debug::waiter_abandoned("Channel (sender)", s->handle.address());
    }
  }

  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }
  bool closed() const { return closed_; }

  /// Awaitable send. Resolves to true when the item was accepted, false when
  /// the channel is (or becomes) closed.
  auto send(T value) { return SendAwaiter{*this, std::move(value)}; }

  /// Non-blocking send; false if full or closed (value is untouched then).
  bool try_send(T& value) {
    if (closed_) return false;
    if (deliver_to_waiting_receiver(value)) return true;
    if (items_.size() >= capacity_) return false;
    items_.push_back(std::move(value));
    return true;
  }
  bool try_send(T&& value) { return try_send(value); }

  /// Awaitable receive. Resolves to nullopt once closed and drained.
  auto recv() { return RecvAwaiter{*this}; }

  /// Non-blocking receive.
  std::optional<T> try_recv() {
    if (items_.empty()) return std::nullopt;
    std::optional<T> out(std::move(items_.front()));
    items_.pop_front();
    admit_waiting_sender();
    return out;
  }

  /// Closes the channel: pending receivers beyond the buffered items get
  /// nullopt; blocked and future senders get false.
  void close() {
    if (closed_) return;
    closed_ = true;
    while (!send_waiters_.empty()) {
      SendAwaiter* s = send_waiters_.pop_front();
      s->accepted = false;
      s->completed = true;
      sim_.schedule_now(s->handle);
    }
    // Buffered items still satisfy receivers; only wake the surplus waiters.
    while (recv_waiters_.size() > items_.size()) {
      RecvAwaiter* r = recv_waiters_.pop_back();
      r->result.reset();
      r->completed = true;
      sim_.schedule_now(r->handle);
    }
  }

 private:
  struct RecvAwaiter {
    Channel& ch;
    std::coroutine_handle<> handle{};
    std::optional<T> result{};
    bool completed = false;
    RecvAwaiter* prev = nullptr;
    RecvAwaiter* next = nullptr;

    bool await_ready() {
      if (!ch.canary_.check_alive()) {
        // Dead channel: resolve like close-and-drained without touching its
        // destructed state (the report already fired, aborting by default).
        completed = true;
        return true;
      }
      if (auto item = ch.try_recv()) {
        result = std::move(item);
        completed = true;
        return true;
      }
      if (ch.closed_) {
        completed = true;
        return true;  // resolves to nullopt
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      handle = h;
      ch.recv_waiters_.push_back(this);
    }
    std::optional<T> await_resume() {
      assert(completed);
      return std::move(result);
    }
  };

  struct SendAwaiter {
    Channel& ch;
    T value;
    std::coroutine_handle<> handle{};
    bool accepted = false;
    bool completed = false;
    SendAwaiter* prev = nullptr;
    SendAwaiter* next = nullptr;

    bool await_ready() {
      if (!ch.canary_.check_alive()) {
        accepted = false;
        completed = true;
        return true;
      }
      if (ch.try_send(value)) {
        accepted = true;
        completed = true;
        return true;
      }
      if (ch.closed_) {
        accepted = false;
        completed = true;
        return true;
      }
      return false;  // full: block until a receiver frees space
    }
    void await_suspend(std::coroutine_handle<> h) {
      handle = h;
      ch.send_waiters_.push_back(this);
    }
    bool await_resume() {
      assert(completed);
      return accepted;
    }
  };

  /// Hands `value` directly to the longest-waiting receiver, if any.
  bool deliver_to_waiting_receiver(T& value) {
    if (recv_waiters_.empty()) return false;
    RecvAwaiter* r = recv_waiters_.pop_front();
    r->result = std::move(value);
    r->completed = true;
    sim_.schedule_now(r->handle);
    return true;
  }

  /// Moves the longest-waiting sender's item into freed buffer space.
  void admit_waiting_sender() {
    if (send_waiters_.empty() || items_.size() >= capacity_) return;
    SendAwaiter* s = send_waiters_.pop_front();
    items_.push_back(std::move(s->value));
    s->accepted = true;
    s->completed = true;
    sim_.schedule_now(s->handle);
  }

  Simulation& sim_;
  std::size_t capacity_;
  bool closed_ = false;
  std::deque<T> items_;
  WaitList<RecvAwaiter> recv_waiters_;
  WaitList<SendAwaiter> send_waiters_;
  debug::AwaitableCanary canary_{"Channel"};
};

}  // namespace pacon::sim
