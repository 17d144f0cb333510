// Tests for the fabric latency model, typed RPC (including saturation and
// failure injection), and the disk model.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "net/fabric.h"
#include "net/retry.h"
#include "net/rpc.h"
#include "sim/combinators.h"
#include "sim/disk.h"
#include "sim/fault.h"
#include "sim/simulation.h"

namespace pacon::net {
namespace {

using sim::Simulation;
using sim::Task;
using namespace sim::literals;

struct EchoReq {
  int x = 0;
};
struct EchoResp {
  int x = 0;
};

FabricConfig no_jitter() {
  FabricConfig cfg;
  cfg.jitter_frac = 0.0;
  return cfg;
}

TEST(Fabric, LoopbackIsCheaperThanRemote) {
  Simulation sim;
  Fabric fabric(sim, no_jitter());
  const auto local = fabric.one_way(NodeId{1}, NodeId{1}, 64);
  const auto remote = fabric.one_way(NodeId{1}, NodeId{2}, 64);
  EXPECT_LT(local, remote);
}

TEST(Fabric, BandwidthTermGrowsWithSize) {
  Simulation sim;
  Fabric fabric(sim, no_jitter());
  const auto small = fabric.one_way(NodeId{1}, NodeId{2}, 64);
  const auto big = fabric.one_way(NodeId{1}, NodeId{2}, 1 << 20);
  EXPECT_GT(big, small);
  // 1 MiB at 5 GB/s is ~210us of serialization on top of the base latency.
  EXPECT_NEAR(static_cast<double>(big - small), 1048576.0 / 5e9 * 1e9, 1e3);
}

TEST(Fabric, JitterStaysWithinConfiguredFraction) {
  Simulation sim;
  FabricConfig cfg;
  cfg.jitter_frac = 0.2;
  Fabric fabric(sim, cfg);
  for (int i = 0; i < 1000; ++i) {
    const auto d = fabric.one_way(NodeId{0}, NodeId{1}, 0);
    EXPECT_GE(d, cfg.remote_one_way);
    EXPECT_LE(d, static_cast<sim::SimDuration>(static_cast<double>(cfg.remote_one_way) * 1.2) + 1);
  }
}

TEST(Fabric, DownNodeIsUnreachable) {
  Simulation sim;
  Fabric fabric(sim, no_jitter());
  EXPECT_TRUE(fabric.reachable(NodeId{0}, NodeId{1}));
  fabric.set_node_down(NodeId{1}, true);
  EXPECT_FALSE(fabric.reachable(NodeId{0}, NodeId{1}));
  EXPECT_FALSE(fabric.reachable(NodeId{1}, NodeId{0}));
  fabric.set_node_down(NodeId{1}, false);
  EXPECT_TRUE(fabric.reachable(NodeId{0}, NodeId{1}));
}

TEST(Rpc, RoundTripReturnsHandlerResult) {
  Simulation sim;
  Fabric fabric(sim, no_jitter());
  RpcService<EchoReq, EchoResp> svc(
      sim, fabric, NodeId{0},
      [&sim](EchoReq r) -> Task<EchoResp> {
        co_await sim.delay(10_us);
        co_return EchoResp{r.x * 2};
      });
  const auto resp = sim::run_task(sim, svc.call(NodeId{1}, EchoReq{21}));
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->x, 42);
  // Two one-way hops (25us each) plus 10us service time, plus ~51ns of
  // serialization per 256-byte message.
  EXPECT_NEAR(static_cast<double>(sim.now()), 60'000.0, 200.0);
}

TEST(Rpc, LocalCallSkipsRemoteLatency) {
  Simulation sim;
  Fabric fabric(sim, no_jitter());
  RpcService<EchoReq, EchoResp> svc(
      sim, fabric, NodeId{0},
      [](EchoReq r) -> Task<EchoResp> { co_return EchoResp{r.x}; });
  (void)sim::run_task(sim, svc.call(NodeId{0}, EchoReq{1}));
  EXPECT_LT(sim.now(), 10'000u);  // two loopback hops, well under remote RTT
}

TEST(Rpc, WorkerPoolBoundsConcurrency) {
  Simulation sim;
  Fabric fabric(sim, no_jitter());
  RpcService<EchoReq, EchoResp>::Config cfg;
  cfg.workers = 2;
  RpcService<EchoReq, EchoResp> svc(
      sim, fabric, NodeId{0},
      [&sim](EchoReq r) -> Task<EchoResp> {
        co_await sim.delay(100_us);
        co_return EchoResp{r.x};
      },
      cfg);
  sim::run_task(sim, [](Simulation& s, RpcService<EchoReq, EchoResp>& service) -> Task<> {
    std::vector<Task<>> calls;
    for (int i = 0; i < 8; ++i) {
      calls.push_back([](RpcService<EchoReq, EchoResp>& sv, int k) -> Task<> {
        (void)co_await sv.call(NodeId{1}, EchoReq{k});
      }(service, i));
    }
    co_await sim::when_all(s, std::move(calls));
    // 8 jobs x 100us on 2 workers = 400us of service time serialized in
    // waves, plus request and response flight (overlapped across calls).
    EXPECT_GE(s.now(), 400'000u + 50'000u);
    EXPECT_LT(s.now(), 400'000u + 120'000u);
  }(sim, svc));
  EXPECT_EQ(svc.requests_served(), 8u);
}

TEST(Rpc, SaturationQueuesRatherThanDrops) {
  Simulation sim;
  Fabric fabric(sim, no_jitter());
  RpcService<EchoReq, EchoResp>::Config cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 4;
  RpcService<EchoReq, EchoResp> svc(
      sim, fabric, NodeId{0},
      [&sim](EchoReq r) -> Task<EchoResp> {
        co_await sim.delay(50_us);
        co_return EchoResp{r.x};
      },
      cfg);
  int completed = 0;
  sim::run_task(sim, [](Simulation& s, RpcService<EchoReq, EchoResp>& service, int& done) -> Task<> {
    std::vector<Task<>> calls;
    for (int i = 0; i < 32; ++i) {
      calls.push_back([](RpcService<EchoReq, EchoResp>& sv, int k, int& d) -> Task<> {
        (void)co_await sv.call(NodeId{1}, EchoReq{k});
        ++d;
      }(service, i, done));
    }
    co_await sim::when_all(s, std::move(calls));
  }(sim, svc, completed));
  EXPECT_EQ(completed, 32);
}

void call_throwing_handler() {
  Simulation sim;
  Fabric fabric(sim, no_jitter());
  RpcService<EchoReq, EchoResp> svc(
      sim, fabric, NodeId{0},
      [](EchoReq) -> Task<EchoResp> { throw std::runtime_error("handler blew up"); });
  (void)sim::run_task(sim, svc.call(NodeId{1}, EchoReq{}));
}

// Handlers report failures in their response status; one that throws
// anyway fails its worker, a root process nobody awaits, which ends the
// program.
TEST(RpcDeathTest, ThrowingHandlerTerminates) {
  EXPECT_DEATH(call_throwing_handler(), "handler blew up");
}

TEST(Rpc, CallToDownServerReturnsUnreachable) {
  Simulation sim;
  Fabric fabric(sim, no_jitter());
  RpcService<EchoReq, EchoResp> svc(
      sim, fabric, NodeId{0},
      [](EchoReq r) -> Task<EchoResp> { co_return EchoResp{r.x}; });
  fabric.set_node_down(NodeId{0}, true);
  const auto resp = sim::run_task(sim, svc.call(NodeId{1}, EchoReq{}));
  ASSERT_FALSE(resp.has_value());
  EXPECT_EQ(resp.error(), RpcFailure::unreachable);
}

TEST(Rpc, ShutdownRejectsNewCalls) {
  Simulation sim;
  Fabric fabric(sim, no_jitter());
  RpcService<EchoReq, EchoResp> svc(
      sim, fabric, NodeId{0},
      [](EchoReq r) -> Task<EchoResp> { co_return EchoResp{r.x}; });
  svc.shutdown();
  const auto resp = sim::run_task(sim, svc.call(NodeId{1}, EchoReq{}));
  ASSERT_FALSE(resp.has_value());
  EXPECT_EQ(resp.error(), RpcFailure::shutdown);
}

TEST(Rpc, ShutdownStillCompletesQueuedCalls) {
  Simulation sim;
  Fabric fabric(sim, no_jitter());
  RpcService<EchoReq, EchoResp>::Config cfg;
  cfg.workers = 1;
  RpcService<EchoReq, EchoResp> svc(
      sim, fabric, NodeId{0},
      [&sim](EchoReq r) -> Task<EchoResp> {
        co_await sim.delay(100_us);
        co_return EchoResp{r.x};
      },
      cfg);
  std::vector<int> replies;
  for (int i = 0; i < 4; ++i) {
    sim.spawn([](RpcService<EchoReq, EchoResp>& sv, int k, std::vector<int>& out) -> Task<> {
      const auto resp = co_await sv.call(NodeId{1}, EchoReq{k});
      out.push_back(resp ? resp->x : -1);
    }(svc, i, replies));
  }
  // Every request crossed the wire (one 25us hop); the worker serves the
  // first and the other three wait in the inbox.
  sim.run_until(50'000);
  EXPECT_TRUE(replies.empty());
  svc.shutdown();
  sim.run();
  EXPECT_EQ(replies, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(svc.requests_served(), 4u);
  // New calls are refused once the queued ones drained.
  const auto late = sim::run_task(sim, svc.call(NodeId{1}, EchoReq{9}));
  ASSERT_FALSE(late.has_value());
  EXPECT_EQ(late.error(), RpcFailure::shutdown);
}

// Each caller's reply slot lives in its own frame. Destroying the kernel
// while calls wait behind a busy worker reclaims callers and worker without
// resuming either, so nothing writes into a freed slot (the ASan leg of
// scripts/check.sh runs this).
TEST(Rpc, TeardownWithCallsInFlightIsClean) {
  auto sim = std::make_unique<Simulation>();
  Fabric fabric(*sim, no_jitter());
  RpcService<EchoReq, EchoResp>::Config cfg;
  cfg.workers = 1;
  Simulation& s = *sim;
  RpcService<EchoReq, EchoResp> svc(
      s, fabric, NodeId{0},
      [&s](EchoReq r) -> Task<EchoResp> {
        co_await s.delay(1'000_us);
        co_return EchoResp{r.x};
      },
      cfg);
  int completed = 0;
  for (int i = 0; i < 4; ++i) {
    sim->spawn([](RpcService<EchoReq, EchoResp>& sv, int k, int& done) -> Task<> {
      (void)co_await sv.call(NodeId{1}, EchoReq{k});
      ++done;
    }(svc, i, completed));
  }
  sim->run_until(100'000);
  EXPECT_EQ(completed, 0);
  sim.reset();
}

TEST(Rpc, LostRequestTimesOut) {
  Simulation sim;
  Fabric fabric(sim, no_jitter());
  sim::MessageFaultConfig fcfg;
  fcfg.drop_prob = 1.0;
  sim::LinkFaultMatrix faults(sim.rng().fork("faults"), fcfg);
  fabric.set_fault_matrix(&faults);
  RpcService<EchoReq, EchoResp> svc(
      sim, fabric, NodeId{0},
      [](EchoReq r) -> Task<EchoResp> { co_return EchoResp{r.x}; });
  const auto resp = sim::run_task(sim, svc.call(NodeId{1}, EchoReq{}));
  ASSERT_FALSE(resp.has_value());
  EXPECT_EQ(resp.error(), RpcFailure::timeout);
  // The caller burned exactly the call timeout waiting on the lost request.
  EXPECT_EQ(sim.now(), 5'000'000u);
  const sim::MessageFaultModel* request_lane = faults.lane_model(1, 0);
  ASSERT_NE(request_lane, nullptr);
  EXPECT_EQ(request_lane->drops(), 1u);
  EXPECT_EQ(svc.requests_served(), 0u);
}

TEST(Rpc, LoopbackExemptFromFaultModel) {
  Simulation sim;
  Fabric fabric(sim, no_jitter());
  sim::MessageFaultConfig fcfg;
  fcfg.drop_prob = 1.0;  // every cross-node message would be lost
  sim::LinkFaultMatrix faults(sim.rng().fork("faults"), fcfg);
  fabric.set_fault_matrix(&faults);
  RpcService<EchoReq, EchoResp> svc(
      sim, fabric, NodeId{0},
      [](EchoReq r) -> Task<EchoResp> { co_return EchoResp{r.x}; });
  // Same-host queues do not lose messages: the local call still completes.
  const auto resp = sim::run_task(sim, svc.call(NodeId{0}, EchoReq{3}));
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->x, 3);
  EXPECT_EQ(faults.lane_model(0, 0), nullptr) << "loopback drew a fault verdict";
}

TEST(Retry, BackoffIsDeterministicPerSeed) {
  RetryPolicy policy;
  sim::Rng a(42), b(42), c(43);
  std::vector<sim::SimDuration> seq_a, seq_b, seq_c;
  for (std::size_t i = 0; i < 8; ++i) {
    seq_a.push_back(policy.backoff(i, a));
    seq_b.push_back(policy.backoff(i, b));
    seq_c.push_back(policy.backoff(i, c));
  }
  EXPECT_EQ(seq_a, seq_b) << "equal seeds must reproduce the retry schedule";
  EXPECT_NE(seq_a, seq_c);
  // Exponential growth within jitter bounds, capped at max_delay * (1 + j).
  for (std::size_t i = 0; i < seq_a.size(); ++i) {
    double nominal = static_cast<double>(RetryPolicy::kBaseDelay);
    for (std::size_t k = 0; k < i && nominal < static_cast<double>(policy.max_delay); ++k) {
      nominal *= RetryPolicy::kMultiplier;
    }
    nominal = std::min(nominal, static_cast<double>(policy.max_delay));
    EXPECT_GE(static_cast<double>(seq_a[i]), nominal * (1.0 - RetryPolicy::kJitterFrac) - 1.0);
    EXPECT_LE(static_cast<double>(seq_a[i]), nominal * (1.0 + RetryPolicy::kJitterFrac) + 1.0);
  }
}

TEST(Disk, ChargesLatencyPlusTransfer) {
  Simulation sim;
  sim::DiskConfig cfg;
  cfg.write_latency = 25_us;
  cfg.write_bw_bytes_per_sec = 1e9;
  sim::SimDisk disk(sim, cfg);
  sim::run_task(sim, disk.write(1'000'000));  // 1 MB at 1 GB/s = 1 ms transfer
  EXPECT_EQ(sim.now(), 25'000u + 1'000'000u);
  EXPECT_EQ(disk.writes(), 1u);
}

TEST(Disk, QueueDepthSerializesExcessOps) {
  Simulation sim;
  sim::DiskConfig cfg;
  cfg.write_latency = 100_us;
  cfg.write_bw_bytes_per_sec = 1e12;  // make transfer negligible
  cfg.queue_depth = 2;
  sim::SimDisk disk(sim, cfg);
  sim::run_task(sim, [](Simulation& s, sim::SimDisk& d) -> Task<> {
    std::vector<Task<>> ops;
    for (int i = 0; i < 6; ++i) ops.push_back(d.write(128));
    co_await sim::when_all(s, std::move(ops));
    // 6 writes, 2 at a time, 100us each -> 3 waves.
    EXPECT_EQ(s.now(), 300'000u);
  }(sim, disk));
}

TEST(Disk, ReadsAndWritesCountedSeparately) {
  Simulation sim;
  sim::SimDisk disk(sim, sim::DiskConfig::nvme());
  sim::run_task(sim, [](sim::SimDisk& d) -> Task<> {
    co_await d.read(512);
    co_await d.read(512);
    co_await d.write(512);
  }(disk));
  EXPECT_EQ(disk.reads(), 2u);
  EXPECT_EQ(disk.writes(), 1u);
}

}  // namespace
}  // namespace pacon::net
