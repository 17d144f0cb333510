// Tests for the discrete-event kernel: clock semantics, ordering,
// spawn/run_task plumbing, and structured concurrency combinators.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "sim/combinators.h"
#include "sim/simulation.h"

namespace pacon::sim {
namespace {

TEST(Simulation, StartsAtTimeZero) {
  Simulation sim;
  EXPECT_EQ(sim.now(), 0u);
}

TEST(Simulation, DelayAdvancesVirtualClock) {
  Simulation sim;
  SimTime observed = 0;
  run_task(sim, [](Simulation& s, SimTime& out) -> Task<> {
    co_await s.delay(5_us);
    out = s.now();
  }(sim, observed));
  EXPECT_EQ(observed, 5'000u);
}

TEST(Simulation, DelaysAccumulate) {
  Simulation sim;
  run_task(sim, [](Simulation& s) -> Task<> {
    co_await s.delay(1_ms);
    co_await s.delay(2_ms);
    co_await s.delay(3_ms);
    EXPECT_EQ(s.now(), 6'000'000u);
  }(sim));
}

TEST(Simulation, ZeroDelayYieldsBehindQueuedEvents) {
  Simulation sim;
  std::vector<int> order;
  sim.spawn([](Simulation& s, std::vector<int>& ord) -> Task<> {
    ord.push_back(1);
    co_await s.yield();
    ord.push_back(3);
  }(sim, order));
  sim.spawn([](Simulation&, std::vector<int>& ord) -> Task<> {
    ord.push_back(2);
    co_return;
  }(sim, order));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulation, EqualTimestampsRunInScheduleOrder) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    sim.schedule_callback(100, [i, &order] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(Simulation, CallbacksRunAtRequestedTime) {
  Simulation sim;
  SimTime seen = 0;
  sim.schedule_callback(42_us, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, 42'000u);
}

TEST(Simulation, RunUntilStopsAtDeadline) {
  Simulation sim;
  int fired = 0;
  sim.schedule_callback(10, [&] { ++fired; });
  sim.schedule_callback(20, [&] { ++fired; });
  sim.schedule_callback(30, [&] { ++fired; });
  EXPECT_TRUE(sim.run_until(20));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 20u);
  EXPECT_FALSE(sim.run_until(100));
  EXPECT_EQ(fired, 3);
}

TEST(Simulation, RunUntilAdvancesClockWhenQueueDrainsEarly) {
  Simulation sim;
  sim.run_until(1_s);
  EXPECT_EQ(sim.now(), 1'000'000'000u);
}

TEST(Simulation, SpawnAtStartsProcessLater) {
  Simulation sim;
  SimTime started = 0;
  sim.spawn_at(7_us, [](Simulation& s, SimTime& out) -> Task<> {
    out = s.now();
    co_return;
  }(sim, started));
  sim.run();
  EXPECT_EQ(started, 7'000u);
}

TEST(Simulation, EventsProcessedCounts) {
  Simulation sim;
  sim.schedule_callback(1, [] {});
  sim.schedule_callback(2, [] {});
  sim.run();
  EXPECT_EQ(sim.events_processed(), 2u);
}

TEST(RunTask, ReturnsValue) {
  Simulation sim;
  const int v = run_task(sim, [](Simulation& s) -> Task<int> {
    co_await s.delay(1_us);
    co_return 17;
  }(sim));
  EXPECT_EQ(v, 17);
}

TEST(RunTask, PropagatesException) {
  Simulation sim;
  EXPECT_THROW(run_task(sim,
                        [](Simulation& s) -> Task<> {
                          co_await s.delay(1_us);
                          throw std::runtime_error("boom");
                        }(sim)),
               std::runtime_error);
}

TEST(Task, NestedAwaitPropagatesValues) {
  Simulation sim;
  auto inner = [](Simulation& s) -> Task<int> {
    co_await s.delay(2_us);
    co_return 21;
  };
  const int v = run_task(sim, [](Simulation& s, auto mk) -> Task<int> {
    const int a = co_await mk(s);
    const int b = co_await mk(s);
    co_return a + b;
  }(sim, inner));
  EXPECT_EQ(v, 42);
  // Kernel time covers both nested delays in sequence.
  EXPECT_EQ(sim.now(), 4'000u);
}

TEST(Task, NestedExceptionPropagatesThroughLayers) {
  Simulation sim;
  auto level2 = [](Simulation& s) -> Task<int> {
    co_await s.delay(1_us);
    throw std::logic_error("deep failure");
  };
  auto level1 = [&](Simulation& s) -> Task<int> { co_return co_await level2(s); };
  EXPECT_THROW(run_task(sim, level1(sim)), std::logic_error);
}

TEST(WhenAll, RunsChildrenConcurrently) {
  Simulation sim;
  run_task(sim, [](Simulation& s) -> Task<> {
    std::vector<Task<>> children;
    for (int i = 0; i < 10; ++i) {
      children.push_back([](Simulation& sm) -> Task<> { co_await sm.delay(100_us); }(s));
    }
    co_await when_all(s, std::move(children));
    // Concurrent, not sequential: total time is one delay, not ten.
    EXPECT_EQ(s.now(), 100'000u);
  }(sim));
}

TEST(WhenAll, CollectsValuesIndexAligned) {
  Simulation sim;
  auto result = run_task(sim, [](Simulation& s) -> Task<std::vector<int>> {
    std::vector<Task<int>> children;
    for (int i = 0; i < 5; ++i) {
      children.push_back([](Simulation& sm, int k) -> Task<int> {
        // Later children finish earlier; results must stay index-aligned.
        co_await sm.delay(SimDuration{100} - static_cast<SimDuration>(10 * k));
        co_return k * k;
      }(s, i));
    }
    co_return co_await when_all_values(s, std::move(children));
  }(sim));
  EXPECT_EQ(result, (std::vector<int>{0, 1, 4, 9, 16}));
}

TEST(WhenAll, PropagatesFirstChildError) {
  Simulation sim;
  EXPECT_THROW(
      run_task(sim,
               [](Simulation& s) -> Task<> {
                 std::vector<Task<>> children;
                 children.push_back([](Simulation& sm) -> Task<> { co_await sm.delay(1_us); }(s));
                 children.push_back([](Simulation& sm) -> Task<> {
                   co_await sm.delay(2_us);
                   throw std::runtime_error("child failed");
                 }(s));
                 co_await when_all(s, std::move(children));
               }(sim)),
      std::runtime_error);
}

TEST(WhenAll, EmptyVectorCompletesImmediately) {
  Simulation sim;
  run_task(sim, [](Simulation& s) -> Task<> {
    co_await when_all(s, {});
    EXPECT_EQ(s.now(), 0u);
  }(sim));
}

TEST(Simulation, ManyInterleavedProcessesDeterministic) {
  // Two identical runs must produce identical event interleavings.
  auto trace = [](std::uint64_t seed) {
    Simulation sim(seed);
    std::vector<std::pair<int, SimTime>> log;
    for (int p = 0; p < 16; ++p) {
      sim.spawn([](Simulation& s, int id, std::vector<std::pair<int, SimTime>>& lg) -> Task<> {
        Rng rng = s.rng().fork(static_cast<std::uint64_t>(id));
        for (int i = 0; i < 50; ++i) {
          co_await s.delay(rng.uniform_in(1, 1000));
          lg.emplace_back(id, s.now());
        }
      }(sim, p, log));
    }
    sim.run();
    return log;
  };
  EXPECT_EQ(trace(7), trace(7));
  EXPECT_NE(trace(7), trace(8));
}

TEST(Simulation, TeardownReclaimsBlockedProcesses) {
  // A process blocked forever must not leak or crash at teardown.
  auto sim = std::make_unique<Simulation>();
  auto gate = std::make_unique<Gate>(*sim);
  sim->spawn([](Gate& g) -> Task<> { co_await g.wait(); }(*gate));
  sim->run();
  sim.reset();  // destroys the suspended frame first
  gate.reset();
}

TEST(Simulation, ReapCompletedRootsKeepsLiveProcesses) {
  Simulation sim;
  bool late_done = false;
  for (int p = 0; p < 4; ++p) {
    sim.spawn([](Simulation& s) -> Task<> { co_await s.delay(5); }(sim));
  }
  // lint-allow: coro-param-ref `late_done` is a named local outliving sim.run()
  sim.spawn([](Simulation& s, bool& done) -> Task<> {
    co_await s.delay(1000);
    done = true;
  }(sim, late_done));

  sim.run_until(100);
  EXPECT_EQ(sim.reap_completed_roots(), 4u);  // the four short processes
  EXPECT_EQ(sim.reap_completed_roots(), 0u);  // idempotent
  sim.run();
  EXPECT_TRUE(late_done);
  EXPECT_EQ(sim.reap_completed_roots(), 1u);
}

}  // namespace
}  // namespace pacon::sim
