// Tests for awaitable synchronization primitives.
#include <gtest/gtest.h>

#include <vector>

#include "sim/combinators.h"
#include "sim/simulation.h"
#include "sim/sync.h"

namespace pacon::sim {
namespace {

TEST(Gate, OpenReleasesAllWaiters) {
  Simulation sim;
  Gate gate(sim);
  int released = 0;
  for (int i = 0; i < 4; ++i) {
    sim.spawn([](Gate& g, int& n) -> Task<> {
      co_await g.wait();
      ++n;
    }(gate, released));
  }
  sim.run();
  EXPECT_EQ(released, 0);
  gate.open();
  sim.run();
  EXPECT_EQ(released, 4);
}

TEST(Gate, WaitAfterOpenPassesThrough) {
  Simulation sim;
  Gate gate(sim);
  gate.open();
  run_task(sim, [](Simulation& s, Gate& g) -> Task<> {
    co_await g.wait();
    EXPECT_EQ(s.now(), 0u);
  }(sim, gate));
}

TEST(Mutex, ProvidesMutualExclusion) {
  Simulation sim;
  Mutex mu(sim);
  int inside = 0;
  int max_inside = 0;
  std::vector<Task<>> tasks;
  for (int i = 0; i < 8; ++i) {
    sim.spawn([](Simulation& s, Mutex& m, int& in, int& peak) -> Task<> {
      for (int round = 0; round < 5; ++round) {
        auto guard = co_await m.scoped_lock();
        ++in;
        peak = std::max(peak, in);
        co_await s.delay(10_us);  // hold across a suspension
        --in;
      }
    }(sim, mu, inside, max_inside));
  }
  sim.run();
  EXPECT_EQ(inside, 0);
  EXPECT_EQ(max_inside, 1);
  // 8 processes x 5 rounds x 10us of serialized critical section.
  EXPECT_EQ(sim.now(), 400'000u);
}

TEST(Mutex, FifoFairness) {
  Simulation sim;
  Mutex mu(sim);
  std::vector<int> order;
  run_task(sim, [](Simulation& s, Mutex& m, std::vector<int>& ord) -> Task<> {
    co_await m.lock();  // hold so contenders queue up
    std::vector<Task<>> contenders;
    for (int i = 0; i < 5; ++i) {
      contenders.push_back([](Mutex& mm, int id, std::vector<int>& o) -> Task<> {
        auto g = co_await mm.scoped_lock();
        o.push_back(id);
      }(m, i, ord));
    }
    // Start all contenders; they block in arrival order 0..4.
    auto joined = when_all(s, std::move(contenders));
    co_await s.delay(1_us);
    m.unlock();
    co_await joined;
    (void)s;
  }(sim, mu, order));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Semaphore, LimitsConcurrency) {
  Simulation sim;
  Semaphore sem(sim, 3);
  int inside = 0;
  int peak = 0;
  for (int i = 0; i < 12; ++i) {
    sim.spawn([](Simulation& s, Semaphore& sm, int& in, int& pk) -> Task<> {
      co_await sm.acquire();
      ++in;
      pk = std::max(pk, in);
      co_await s.delay(100_us);
      --in;
      sm.release();
    }(sim, sem, inside, peak));
  }
  sim.run();
  EXPECT_EQ(peak, 3);
  // 12 jobs, 3 at a time, 100us each -> 4 waves.
  EXPECT_EQ(sim.now(), 400'000u);
}

TEST(Semaphore, ReleaseWithoutWaitersRestoresPermit) {
  Simulation sim;
  Semaphore sem(sim, 1);
  run_task(sim, [](Semaphore& s) -> Task<> {
    co_await s.acquire();
    s.release();
    co_await s.acquire();  // must not block
    s.release();
  }(sem));
  EXPECT_EQ(sem.available(), 1u);
}

TEST(WaitGroup, WaitsForAllDone) {
  Simulation sim;
  WaitGroup wg(sim);
  SimTime done_at = 0;
  wg.add(3);
  for (int i = 1; i <= 3; ++i) {
    sim.spawn([](Simulation& s, WaitGroup& w, int k) -> Task<> {
      co_await s.delay(static_cast<SimDuration>(k) * 10_us);
      w.done();
    }(sim, wg, i));
  }
  sim.spawn([](Simulation& s, WaitGroup& w, SimTime& out) -> Task<> {
    co_await w.wait();
    out = s.now();
  }(sim, wg, done_at));
  sim.run();
  EXPECT_EQ(done_at, 30'000u);
}

TEST(WaitGroup, WaitOnZeroPassesThrough) {
  Simulation sim;
  WaitGroup wg(sim);
  run_task(sim, [](WaitGroup& w) -> Task<> { co_await w.wait(); }(wg));
}

}  // namespace
}  // namespace pacon::sim
