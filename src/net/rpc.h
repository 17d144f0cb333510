// Typed request/response RPC over the simulated fabric.
//
// An RpcService<Req, Resp> lives on one node and runs a bounded pool of
// worker coroutines over a bounded inbox. Both bounds matter: the pool
// models server CPU concurrency and the inbox models the accept queue, so an
// overloaded server exhibits queueing delay and, eventually, sender
// backpressure -- the saturation behaviour central to the paper's
// scalability experiments.
//
// Failures are values: call() returns RpcResult<Resp>, the handler's
// response or the RpcFailure that lost it. A call to/from a down node fails
// `unreachable`, a call into a shut-down service fails `shutdown`. When a
// fault matrix is installed on the fabric, a request or response may be lost
// on the wire: the caller then waits out `kCallTimeout` and fails `timeout`.
// Each client maps the failure into its response's own status at its single
// call helper. Handlers never throw -- they report failures in the response
// status -- so a throwing handler fails its worker, a root process nobody
// awaits, which ends the program (sim/task.h).
#pragma once

#include <coroutine>
#include <cstddef>
#include <functional>
#include <optional>
#include <utility>

#include "fs/expected.h"
#include "net/fabric.h"
#include "obs/trace.h"
#include "sim/channel.h"
#include "sim/simulation.h"

namespace pacon::net {

enum class RpcFailure { unreachable, shutdown, timeout };

/// A call's outcome: the handler's response, or the failure that lost it.
template <typename Resp>
using RpcResult = fs::Expected<Resp, RpcFailure>;

template <typename Req, typename Resp>
class RpcService {
 public:
  using Handler = std::function<sim::Task<Resp>(Req)>;

  struct Config {
    /// Concurrent worker coroutines (server CPU/thread parallelism).
    std::size_t workers = 4;
    /// Accept-queue bound; senders block (not fail) when it is full.
    std::size_t queue_capacity = 1024;
    /// Nominal request/response wire sizes used for the bandwidth term.
    std::size_t request_bytes = 256;
    std::size_t response_bytes = 256;
  };

  RpcService(sim::Simulation& sim, Fabric& fabric, NodeId self, Handler handler,
             Config config = {})
      : sim_(sim),
        fabric_(fabric),
        self_(self),
        handler_(std::move(handler)),
        config_(config),
        inbox_(sim, config.queue_capacity) {
    for (std::size_t i = 0; i < config_.workers; ++i) {
      sim_.spawn(worker_loop());
    }
  }
  RpcService(const RpcService&) = delete;
  RpcService& operator=(const RpcService&) = delete;
  /// Closing the inbox dequeues parked worker loops; without this they would
  /// be left in the wait queue of a destructed channel.
  ~RpcService() { shutdown(); }

  NodeId node() const { return self_; }

  /// Stops accepting new requests; queued requests still complete.
  void shutdown() { inbox_.close(); }

  /// Issues a call from `from`; completes when the response lands back.
  /// `parent` is an optional tracing context: with a tracer installed and a
  /// traced caller, the call's wire + queue + service time becomes an
  /// "rpc.call" span under the caller's span (untraced calls skip the span
  /// entirely so background chatter never pollutes a trace).
  sim::Task<RpcResult<Resp>> call(NodeId from, Req req, obs::SpanId parent = obs::kNoSpan) {
    obs::Span span(parent != obs::kNoSpan ? sim_.tracer() : nullptr, "rpc.call", parent,
                   from.value);
    if (!fabric_.reachable(from, self_)) {
      span.finish("unreachable");
      co_return fs::Unexpected(RpcFailure::unreachable);
    }
    const sim::FaultDecision req_fate = fabric_.message_fate(from, self_);
    if (req_fate.drop) {
      // The request never arrives; the caller's timer expires.
      span.event("request_lost");
      co_await sim_.delay(kCallTimeout);
      span.finish("timeout");
      co_return fs::Unexpected(RpcFailure::timeout);
    }
    co_await sim_.delay(fabric_.one_way(from, self_, config_.request_bytes) +
                        req_fate.extra_delay);
    if (!fabric_.node_up(self_)) {
      co_return fs::Unexpected(RpcFailure::unreachable);  // server died in flight
    }
    // The envelope -- a pointer to `req`, the reply slot and this frame's
    // handle -- stays in this frame: the worker moves the request out of
    // `req`, emplaces the reply and wakes us. Only its address crosses the
    // inbox, and the request sits in this frame once.
    Envelope env{&req};
    if (!co_await inbox_.send(&env)) {
      co_return fs::Unexpected(RpcFailure::shutdown);
    }
    co_await ReplyAwaiter{env};
    const sim::FaultDecision resp_fate = fabric_.message_fate(self_, from);
    if (resp_fate.drop) {
      // The server executed the call but the response vanished: the caller
      // times out not knowing -- the case that makes retried mutations
      // at-least-once and forces idempotent handling upstream.
      span.event("response_lost");
      co_await sim_.delay(kCallTimeout);
      span.finish("timeout");
      co_return fs::Unexpected(RpcFailure::timeout);
    }
    co_await sim_.delay(fabric_.one_way(self_, from, config_.response_bytes) +
                        resp_fate.extra_delay);
    if (!fabric_.node_up(from)) {
      co_return fs::Unexpected(RpcFailure::unreachable);  // caller died awaiting response
    }
    span.finish("ok");
    co_return std::move(*env.reply);
  }

  std::uint64_t requests_served() const { return served_; }

 private:
  /// How long a caller waits on a lost request/response before failing
  /// with RpcFailure::timeout (only reachable under an installed fault
  /// model; a healthy fabric never loses messages).
  static constexpr sim::SimDuration kCallTimeout = 5'000_us;

  /// One in-flight call, living in its caller's frame. The frame outlives
  /// the reply: nothing cancels a suspended caller, so the worker may write
  /// the reply and wake `caller` once the handler returns. At teardown the
  /// kernel destroys callers and workers without resuming either.
  struct Envelope {
    Req* request;  // the caller's by-value parameter
    std::optional<Resp> reply{};
    std::coroutine_handle<> caller{};
  };

  /// Suspends the caller until the worker fills its envelope's reply; a
  /// reply that landed first resumes without an event.
  struct ReplyAwaiter {
    Envelope& env;
    bool await_ready() const { return env.reply.has_value(); }
    void await_suspend(std::coroutine_handle<> h) { env.caller = h; }
    void await_resume() const {}
  };

  sim::Task<> worker_loop() {
    for (;;) {
      const std::optional<Envelope*> env = co_await inbox_.recv();
      if (!env) break;  // shutdown
      Envelope& e = **env;
      Resp resp = co_await handler_(std::move(*e.request));
      ++served_;
      e.reply.emplace(std::move(resp));
      if (e.caller) sim_.schedule_now(e.caller);
    }
  }

  sim::Simulation& sim_;
  Fabric& fabric_;
  NodeId self_;
  Handler handler_;
  Config config_;
  sim::Channel<Envelope*> inbox_;
  std::uint64_t served_ = 0;
};

}  // namespace pacon::net
