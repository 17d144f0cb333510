// Unit tests for the virtual-time flight recorder (obs/recorder.h).
//
// The load-bearing properties: sampling is driven by the *virtual* clock on
// an exact cadence, counters are exported as per-window deltas, the ring
// drops oldest-first with an accurate dropped count, the exported timeline
// JSON is byte-identical across same-seed runs, and a destroyed recorder
// leaves its pending tick inert. Run under `ctest -L obs`.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/recorder.h"
#include "sim/simulation.h"
#include "sim/task.h"
#include "sim/time.h"

namespace pacon::obs {
namespace {

using sim::SimDuration;
using sim::Simulation;
using sim::Task;
using namespace sim::literals;

// A deterministic metric-producing process: every `step`, bump a counter by
// `stride` and move a gauge up then down, for `rounds` rounds.
Task<> churn(Simulation& sim, std::string name, SimDuration step,
             std::uint64_t stride, int rounds) {
  auto scope = sim.metrics().scoped(name);
  for (int i = 0; i < rounds; ++i) {
    co_await sim.delay(step);
    scope.counter("ops").add(stride);
    scope.gauge("depth").set(i % 3);
  }
}

// Id of the series called `name`; fails the test when it was never sampled.
std::uint32_t series_id(const std::vector<std::string>& names, std::string_view name) {
  const auto it = std::find(names.begin(), names.end(), name);
  EXPECT_NE(it, names.end()) << "no series " << name;
  return static_cast<std::uint32_t>(it - names.begin());
}

TEST(FlightRecorder, SamplesOnCadenceWithCounterDeltas) {
  Simulation sim(7);
  FlightRecorder rec(sim, {.cadence = 1_ms, .capacity = 64});
  sim.spawn(churn(sim, "app", 300_us, 2, 20));  // ends at 6 ms
  sim.run_until(5_ms + 1);

  // Ticks at 1..5 ms.
  ASSERT_EQ(rec.frame_count(), 5u);
  EXPECT_EQ(rec.frames_recorded(), 5u);
  EXPECT_EQ(rec.frames_dropped(), 0u);
  const std::uint32_t ops = series_id(rec.counter_names(), "app.ops");
  const std::uint32_t depth = series_id(rec.gauge_names(), "app.depth");

  std::uint64_t delta_sum = 0;
  for (std::size_t i = 0; i < rec.frame_count(); ++i) {
    const TimelineFrame& f = rec.frame(i);
    EXPECT_EQ(f.at, static_cast<sim::SimTime>((i + 1) * 1'000'000));
    for (const auto& [id, delta] : f.counter_deltas) {
      EXPECT_GT(delta, 0u);  // zero deltas are elided
      if (id == ops) delta_sum += delta;
    }
    // Gauges are present in every frame, even when unchanged.
    EXPECT_EQ(std::count_if(f.gauge_values.begin(), f.gauge_values.end(),
                            [depth](const auto& g) { return g.first == depth; }),
              1);
  }
  // Deltas reassemble the counter: 16 steps completed by t=5ms (steps at
  // 0.3, 0.6, ..., 4.8 ms), stride 2 each.
  EXPECT_EQ(delta_sum, sim.metrics().counter("app.ops").value());
  EXPECT_EQ(delta_sum, 32u);
}

TEST(FlightRecorder, RingDropsOldestOnWraparound) {
  Simulation sim(7);
  FlightRecorder rec(sim, {.cadence = 1_ms, .capacity = 4});
  sim.spawn(churn(sim, "app", 500_us, 1, 30));  // keeps metrics moving past 10 ms
  sim.run_until(10_ms + 1);

  // Ticks at 1..10 ms; ring keeps the newest 4 (7, 8, 9, 10 ms).
  EXPECT_EQ(rec.frames_recorded(), 10u);
  EXPECT_EQ(rec.frame_count(), 4u);
  EXPECT_EQ(rec.frames_dropped(), 6u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(rec.frame(i).at, static_cast<sim::SimTime>((7 + i) * 1'000'000));
  }
}

TEST(FlightRecorder, TeardownSampleOnTickBoundaryIsSkipped) {
  Simulation sim(7);
  FlightRecorder rec(sim, {.cadence = 1_ms, .capacity = 8});
  sim.spawn(churn(sim, "app", 400_us, 1, 10));
  sim.run_until(3_ms);  // run_until advances now() to the deadline exactly

  ASSERT_EQ(rec.frame_count(), 3u);
  rec.sample();  // now == last tick time: must not produce a duplicate frame
  EXPECT_EQ(rec.frame_count(), 3u);

  sim.run_until(3_ms + 500'000);
  rec.sample();  // mid-window teardown frame, strictly after the last tick
  ASSERT_EQ(rec.frame_count(), 4u);
  EXPECT_EQ(rec.frame(3).at, static_cast<sim::SimTime>(3'500'000));
}

TEST(FlightRecorder, DestroyedRecorderLeavesPendingTickInert) {
  Simulation sim(7);
  sim.spawn(churn(sim, "app", 400_us, 1, 20));
  {
    FlightRecorder rec(sim, {.cadence = 1_ms, .capacity = 8});
    sim.run_until(2_ms + 1);
    EXPECT_EQ(rec.frame_count(), 2u);
    EXPECT_EQ(sim.recorder(), &rec);
  }  // ~FlightRecorder uninstalls; the armed 3 ms tick is still queued
  EXPECT_EQ(sim.recorder(), nullptr);
  sim.run_until(8_ms);  // the orphaned tick must fire harmlessly
  SUCCEED();
}

// Runs a fixed two-process workload and returns the exported timeline JSON.
std::string run_workload_timeline() {
  Simulation sim(42);
  FlightRecorder rec(sim, {.cadence = 2_ms, .capacity = 32});
  sim.spawn(churn(sim, "alpha", 700_us, 3, 24));
  sim.spawn(churn(sim, "beta", 1100_us, 5, 16));
  sim.run_until(20_ms);
  return rec.export_series_json("workload");
}

TEST(FlightRecorder, TimelineByteIdenticalAcrossRuns) {
  const std::string a = run_workload_timeline();
  const std::string b = run_workload_timeline();
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"label\":\"workload\""), std::string::npos);
}

TEST(FlightRecorder, TimelineIncludesKernelDispatchSeries) {
  EXPECT_NE(run_workload_timeline().find("kernel.dispatched"), std::string::npos);
}

TEST(TimelineReport, WrapsSeriesInSchemaDocument) {
  Simulation sim(7);
  FlightRecorder rec(sim, {.cadence = 1_ms, .capacity = 8});
  sim.spawn(churn(sim, "app", 400_us, 1, 10));
  sim.run_until(4_ms + 1);

  TimelineReport report;
  report.set_name("unit");
  report.capture("bed0", rec);
  report.capture("bed1", rec);
  EXPECT_EQ(report.series_count(), 2u);

  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"schema\":\"pacon-timeline-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"unit\""), std::string::npos);
  EXPECT_NE(json.find("\"label\":\"bed0\""), std::string::npos);
  EXPECT_NE(json.find("\"label\":\"bed1\""), std::string::npos);
}

}  // namespace
}  // namespace pacon::obs
