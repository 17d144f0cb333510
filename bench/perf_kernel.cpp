// Wall-clock performance of the simulation kernel and the Pacon commit path.
//
// Unlike the figure benchmarks (which report *virtual-time* throughput of the
// modelled system), this harness measures how fast the engine itself runs on
// the host: events dispatched per host-second, channel hand-offs, coroutine
// spawn/teardown cycles, and end-to-end commit-pipeline operations. These are
// the numbers that bound every figure reproduction's wall clock, so they are
// tracked across PRs in BENCH_kernel.json (see scripts/perfbench.sh).
//
// Usage: perf_kernel [--json FILE] [--scale N]
//   --json FILE  also write the results as a JSON object to FILE
//   --scale N    multiply iteration counts by N (default 1; CI uses small N)
//
// Each benchmark repeats until it has run for at least kMinSeconds of host
// time and reports the best rate over the repetitions (lowest-noise sample).
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/commit_queue.h"
#include "sim/channel.h"
#include "sim/simulation.h"

namespace {

using namespace pacon;
using namespace pacon::sim::literals;
using Clock = std::chrono::steady_clock;

constexpr double kMinSeconds = 0.25;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Runs `body` (which returns the number of "operations" performed) until
/// kMinSeconds of host time accumulates; returns the best ops/sec observed.
template <typename Body>
double best_rate(Body&& body) {
  double best = 0;
  double total = 0;
  do {
    const auto t0 = Clock::now();
    const std::uint64_t ops = body();
    const double dt = seconds_since(t0);
    total += dt;
    if (dt > 0) best = std::max(best, static_cast<double>(ops) / dt);
  } while (total < kMinSeconds);
  return best;
}

// ---- 1. Raw event dispatch: coroutine handle resumes ----------------------

double bench_events(std::uint64_t scale) {
  const int kProcs = 64;
  const std::uint64_t kIters = 2'000 * scale;
  return best_rate([&] {
    sim::Simulation sim(7);
    for (int p = 0; p < kProcs; ++p) {
      sim.spawn([](sim::Simulation& s, std::uint64_t iters, int rank) -> sim::Task<> {
        for (std::uint64_t i = 0; i < iters; ++i) {
          co_await s.delay(static_cast<sim::SimDuration>(100 + (rank & 7)));
        }
      }(sim, kIters, p));
    }
    sim.run();
    return sim.events_processed();
  });
}

// ---- 2. Scheduled callbacks (the commit-queue delivery path) --------------

double bench_callbacks(std::uint64_t scale) {
  const std::uint64_t kCallbacks = 100'000 * scale;
  return best_rate([&] {
    sim::Simulation sim(7);
    std::uint64_t sink = 0;
    // Schedule in waves so the queue stays at a realistic depth (~1k).
    const std::uint64_t kWave = 1'000;
    for (std::uint64_t scheduled = 0; scheduled < kCallbacks;) {
      const std::uint64_t n = std::min(kWave, kCallbacks - scheduled);
      for (std::uint64_t i = 0; i < n; ++i) {
        sim.schedule_callback(sim.now() + 10 + (i & 63), [&sink] { ++sink; });
      }
      scheduled += n;
      sim.run();
    }
    return sink;
  });
}

// ---- 3. Channel send/recv hand-off ----------------------------------------

double bench_channel(std::uint64_t scale) {
  const std::uint64_t kMsgs = 60'000 * scale;
  return best_rate([&] {
    sim::Simulation sim(7);
    sim::Channel<std::uint64_t> ch(sim, 256);
    std::uint64_t received = 0;
    sim.spawn([](sim::Channel<std::uint64_t>& c, std::uint64_t n) -> sim::Task<> {
      for (std::uint64_t i = 0; i < n; ++i) (void)co_await c.send(i);
      c.close();
    }(ch, kMsgs));
    sim.spawn([](sim::Channel<std::uint64_t>& c, std::uint64_t& count) -> sim::Task<> {
      for (;;) {
        auto v = co_await c.recv();
        if (!v) break;
        ++count;
      }
    }(ch, received));
    sim.run();
    return received;
  });
}

// ---- 4. Coroutine spawn / teardown cycles ---------------------------------

double bench_spawn(std::uint64_t scale) {
  const std::uint64_t kSpawns = 40'000 * scale;
  return best_rate([&] {
    std::uint64_t done = 0;
    const std::uint64_t kBatch = 4'000;
    for (std::uint64_t spawned = 0; spawned < kSpawns;) {
      sim::Simulation sim(7);
      const std::uint64_t n = std::min(kBatch, kSpawns - spawned);
      for (std::uint64_t i = 0; i < n; ++i) {
        sim.spawn([](sim::Simulation& s, std::uint64_t& d) -> sim::Task<> {
          co_await s.delay(10);
          ++d;
        }(sim, done));
      }
      sim.run();
      spawned += n;
    }
    return done;
  });
}

// ---- 5. OpMessage deliveries through a node's commit queue ----------------

double bench_commit_queue(std::uint64_t scale) {
  const std::uint64_t kMsgs = 20'000 * scale;
  return best_rate([&] {
    sim::Simulation sim(7);
    net::Fabric fabric(sim, net::FabricConfig{});
    core::CommitQueue queue(sim, fabric, net::NodeId{0});
    std::uint64_t received = 0;
    sim.spawn([](core::CommitQueue& q, std::uint64_t& count) -> sim::Task<> {
      for (;;) {
        auto m = co_await q.recv();
        if (!m) break;
        ++count;
      }
    }(queue, received));
    core::OpMessage msg;
    msg.kind = core::OpMessage::Kind::create;
    msg.path = "/bench/app/some/realistic/depth/file_000123";
    const std::uint64_t kWave = 512;
    for (std::uint64_t sent = 0; sent < kMsgs;) {
      const std::uint64_t n = std::min(kWave, kMsgs - sent);
      for (std::uint64_t i = 0; i < n; ++i) {
        core::OpMessage m = msg;
        m.op_id = sent + i;
        queue.push(std::move(m));
      }
      sent += n;
      sim.run_for(10_ms);
    }
    queue.close();
    sim.run();
    return received;
  });
}

// ---- 6. End-to-end commit pipeline (Pacon create -> async DFS commit) ------

double bench_commit_pipeline(std::uint64_t scale) {
  const int kNodes = 4;
  const int kClientsPerNode = 4;
  const auto window = static_cast<sim::SimDuration>(40 * scale) * 1'000'000;  // 40ms * scale
  return best_rate([&] {
    bench::TestBedConfig cfg;
    cfg.kind = bench::SystemKind::pacon;
    cfg.client_nodes = kNodes;
    cfg.seed = 7;
    bench::TestBed bed(cfg);
    bench::App app =
        bench::make_app(bed, "/bench", bench::node_range(kNodes), kClientsPerNode);
    const auto r = bench::measure_create(bed, app, "f", 5_ms, window);
    return r.ops;
  });
}

struct Result {
  const char* name;
  double rate;
};

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::uint64_t scale = 1;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--json") && i + 1 < argc) {
      json_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--scale") && i + 1 < argc) {
      scale = std::strtoull(argv[++i], nullptr, 10);
      if (scale == 0) scale = 1;
    } else {
      std::cerr << "usage: perf_kernel [--json FILE] [--scale N]\n";
      return 2;
    }
  }

  std::vector<Result> results;
  results.push_back({"kernel_events_per_sec", bench_events(scale)});
  results.push_back({"callbacks_per_sec", bench_callbacks(scale)});
  results.push_back({"channel_msgs_per_sec", bench_channel(scale)});
  results.push_back({"spawn_teardown_per_sec", bench_spawn(scale)});
  // The key keeps its older name so the BENCH_kernel.json history stays comparable.
  results.push_back({"pubsub_msgs_per_sec", bench_commit_queue(scale)});
  results.push_back({"commit_pipeline_ops_per_sec", bench_commit_pipeline(scale)});

  std::cout << "perf_kernel (scale=" << scale << ")\n";
  for (const auto& r : results) {
    std::cout << "  " << r.name << " = " << static_cast<std::uint64_t>(r.rate) << "\n";
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      out << "  \"" << results[i].name << "\": " << static_cast<std::uint64_t>(results[i].rate)
          << (i + 1 < results.size() ? "," : "") << "\n";
    }
    out << "}\n";
    if (!out) {
      std::cerr << "perf_kernel: failed to write " << json_path << "\n";
      return 1;
    }
  }
  return 0;
}
