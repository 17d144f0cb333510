// Determinism checker for the Pacon simulation kernel (tier-1 gate, run by
// scripts/check.sh under every sanitizer mode).
//
// Runs a representative mdtest workload -- concurrent creates committing
// asynchronously through the region log, readdir-triggered barrier epochs,
// random stats, removes -- twice with identical seeds, recording the full
// event trace through Simulation::set_trace_hook: one record per dispatched
// kernel event (virtual timestamp + kernel sequence number) interleaved with
// the commit path's labelled notes (region-unique op ids, commit outcomes,
// barrier drains). The two traces must be byte-identical; on mismatch the
// test fails printing the FIRST diverging record with context, which is the
// exact point where hidden nondeterminism (pointer-keyed iteration,
// wall-clock reads, address-dependent ordering) entered the run.
//
// A different seed must also produce a different trace -- that guards
// against a hook wiring bug making the trace vacuously identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "fs/path.h"
#include "fs/types.h"
#include "harness/testbed.h"
#include "sim/combinators.h"
#include "sim/fault.h"
#include "sim/simulation.h"
#include "workload/mdtest.h"
#include "workload/meta_client.h"

namespace pacon {
namespace {

using namespace sim::literals;

constexpr int kClients = 4;
constexpr int kFilesPerClient = 12;
constexpr int kStatOps = 20;

/// Flattens one TraceRecord into a comparable line.
std::string format_record(const sim::Simulation::TraceRecord& r) {
  std::ostringstream os;
  os << r.index << " t=" << r.at << " seq=" << r.event_seq;
  if (!r.label.empty()) os << " " << r.label;
  return os.str();
}

sim::Task<> workload(harness::TestBed& bed, std::vector<std::unique_ptr<wl::MetaClient>>& clients,
                     std::uint64_t seed) {
  sim::Simulation& sim = bed.sim();
  const fs::Path base = fs::Path::parse("/w");

  // Phase 1: concurrent creates in the shared parent (async weak commits).
  std::vector<sim::Task<>> creates;
  for (int i = 0; i < kClients; ++i) {
    creates.push_back([](wl::MetaClient& c, fs::Path b, int rank) -> sim::Task<> {
      co_await wl::mdtest_create_phase(c, b, rank, kFilesPerClient);
    }(*clients[static_cast<std::size_t>(i)], base, i));
  }
  co_await sim::when_all(sim, std::move(creates));

  // Phase 2: readdir forces a barrier epoch (strong op drains the log).
  auto listing = co_await clients[0]->readdir(base);
  if (!listing.has_value()) throw std::runtime_error("readdir failed");
  sim.trace_note("phase readdir entries=" + std::to_string(listing.value().size()));

  // Phase 3: random stats across all clients' items, each client on its own
  // Rng stream forked from the run seed.
  std::vector<sim::Task<>> stats;
  for (int i = 0; i < kClients; ++i) {
    sim::Rng rng = sim::Rng(seed).fork("mdtest-stat").fork(static_cast<std::uint64_t>(i));
    stats.push_back([](wl::MetaClient& c, fs::Path b, sim::Rng r) -> sim::Task<> {
      co_await wl::mdtest_stat_phase(c, b, kClients, kFilesPerClient, kStatOps, r);
    }(*clients[static_cast<std::size_t>(i)], base, rng));
  }
  co_await sim::when_all(sim, std::move(stats));

  // Phase 4: concurrent removes, then a final barrier-forcing readdir.
  std::vector<sim::Task<>> removes;
  for (int i = 0; i < kClients; ++i) {
    removes.push_back([](wl::MetaClient& c, fs::Path b, int rank) -> sim::Task<> {
      co_await wl::mdtest_remove_phase(c, b, rank, kFilesPerClient);
    }(*clients[static_cast<std::size_t>(i)], base, i));
  }
  co_await sim::when_all(sim, std::move(removes));

  auto final_listing = co_await clients[0]->readdir(base);
  if (!final_listing.has_value()) throw std::runtime_error("final readdir failed");
  sim.trace_note("phase final-readdir entries=" +
                 std::to_string(final_listing.value().size()));
}

/// Builds a Pacon testbed, runs the workload, returns the full event trace.
std::vector<std::string> run_traced(std::uint64_t seed) {
  harness::TestBedConfig cfg;
  cfg.kind = harness::SystemKind::pacon;
  cfg.client_nodes = kClients;
  cfg.seed = seed;
  harness::TestBed bed(cfg);

  std::vector<std::string> trace;
  // Installed before any event runs, so both runs trace from record 0.
  bed.sim().set_trace_hook([&trace](const sim::Simulation::TraceRecord& r) {
    trace.push_back(format_record(r));
  });

  const fs::Credentials creds{1000, 1000};
  bed.provision_workspace("/w", creds);
  std::vector<std::unique_ptr<wl::MetaClient>> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.push_back(bed.make_client(static_cast<std::size_t>(i), "/w", creds));
  }

  sim::run_task(bed.sim(), workload(bed, clients, seed));
  bed.sim().set_trace_hook(nullptr);  // teardown events are not part of the contract
  return trace;
}

// ---- Faulted runs -----------------------------------------------------------

/// Per-client loop for the faulted scenario: paced creates with periodic
/// stats, pausing while the client's own node is down (a dead host issues no
/// requests; a "zombie" client would only measure failure attribution).
sim::Task<> faulted_client_loop(harness::TestBed& bed, wl::MetaClient& c, int rank) {
  const net::NodeId self = bed.client_node(static_cast<std::size_t>(rank));
  for (int i = 0; i < 40; ++i) {
    while (!bed.fabric().node_up(self)) co_await bed.sim().delay(200_us);
    const fs::Path p =
        fs::Path::parse("/w/c" + std::to_string(rank) + "_" + std::to_string(i));
    (void)co_await c.create(p, fs::FileMode::file_default());
    if (i % 5 == 4) (void)co_await c.getattr(p);
    // Pace the loop so the workload spans the fault plan's window.
    co_await bed.sim().delay(150_us);
  }
}

/// Same contract as run_traced, but with a lossy/delaying message fault
/// model on the fabric and a FaultPlan that takes a cache node down and
/// crashes a commit process mid-run. The fault schedule draws from an Rng
/// forked off the run seed, so it is part of the reproducible schedule: the
/// tier-1 determinism guarantee must hold under injected failures too.
std::vector<std::string> run_traced_with_faults(std::uint64_t seed) {
  harness::TestBedConfig cfg;
  cfg.kind = harness::SystemKind::pacon;
  cfg.client_nodes = kClients;
  cfg.seed = seed;
  harness::TestBed bed(cfg);

  sim::MessageFaultConfig fcfg;
  fcfg.drop_prob = 0.01;
  fcfg.delay_prob = 0.10;
  fcfg.delay_min = 10_us;
  fcfg.delay_max = 200_us;
  bed.link_faults(fcfg);

  std::vector<std::string> trace;
  bed.sim().set_trace_hook([&trace](const sim::Simulation::TraceRecord& r) {
    trace.push_back(format_record(r));
  });

  const fs::Credentials creds{1000, 1000};
  bed.provision_workspace("/w", creds);
  std::vector<std::unique_ptr<wl::MetaClient>> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.push_back(bed.make_client(static_cast<std::size_t>(i), "/w", creds));
  }
  core::ConsistentRegion* region = bed.pacon_region("/w");

  sim::FaultPlan plan;
  plan.down(2'000_us, 2);
  plan.call(3'000_us, [region] { region->crash_commit_process(net::NodeId{1}); });
  plan.up(6'000_us, 2);
  plan.call(6'500_us, [region] { region->node_recovered(net::NodeId{2}); });
  plan.call(7'000_us, [region] { region->restart_commit_process(net::NodeId{1}); });
  plan.arm(bed.sim(), [&bed](std::uint32_t node, bool down) {
    bed.fabric().set_node_down(net::NodeId{node}, down);
  });

  sim::run_task(bed.sim(), [](harness::TestBed& b,
                              std::vector<std::unique_ptr<wl::MetaClient>>& cs) -> sim::Task<> {
    std::vector<sim::Task<>> loops;
    for (int i = 0; i < kClients; ++i) {
      loops.push_back(faulted_client_loop(b, *cs[static_cast<std::size_t>(i)], i));
    }
    co_await sim::when_all(b.sim(), std::move(loops));
    // Barrier-forcing readdir; retried because injected drops can surface
    // as EIO on the strong path.
    for (int attempt = 0; attempt < 100; ++attempt) {
      auto listing = co_await cs[0]->readdir(fs::Path::parse("/w"));
      if (listing.has_value()) {
        b.sim().trace_note("phase faulted-readdir entries=" +
                           std::to_string(listing.value().size()));
        co_return;
      }
      co_await b.sim().delay(500_us);
    }
    throw std::runtime_error("faulted readdir never succeeded");
  }(bed, clients));
  bed.sim().set_trace_hook(nullptr);
  return trace;
}

/// Same contract again, but with the *link-targeted* fault topology: a
/// LinkFaultMatrix carrying a mild global profile plus a lossy override on
/// node 0's commit link to the MDS, and a FaultPlan that partitions cache
/// node 2 from the rest of the cluster mid-run, heals it and rejoins it.
/// `add_unused_link_rule` installs an extra heavy rule on a link no message
/// ever crosses (97 -> 98): because every link draws verdicts from its own
/// endpoint-keyed stream, the rule must leave the full event trace
/// byte-identical -- the acceptance property of per-link targeting, proven
/// end to end rather than just at the matrix API.
std::vector<std::string> run_traced_with_link_faults(std::uint64_t seed,
                                                     bool add_unused_link_rule) {
  harness::TestBedConfig cfg;
  cfg.kind = harness::SystemKind::pacon;
  cfg.client_nodes = kClients;
  cfg.seed = seed;
  harness::TestBed bed(cfg);

  sim::MessageFaultConfig mild;
  mild.drop_prob = 0.005;
  mild.delay_prob = 0.05;
  mild.delay_min = 10_us;
  mild.delay_max = 100_us;
  sim::LinkFaultMatrix& matrix = bed.link_faults(mild);

  const std::uint32_t mds = bed.dfs().config().mds_node.value;
  sim::MessageFaultConfig lossy;
  lossy.drop_prob = 0.10;
  lossy.delay_prob = 0.20;
  lossy.delay_min = 20_us;
  lossy.delay_max = 300_us;
  matrix.set_link(0, mds, lossy);
  if (add_unused_link_rule) {
    sim::MessageFaultConfig heavy;
    heavy.drop_prob = 0.9;
    matrix.set_link(97, 98, heavy);
  }

  std::vector<std::string> trace;
  bed.sim().set_trace_hook([&trace](const sim::Simulation::TraceRecord& r) {
    trace.push_back(format_record(r));
  });

  const fs::Credentials creds{1000, 1000};
  bed.provision_workspace("/w", creds);
  std::vector<std::unique_ptr<wl::MetaClient>> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.push_back(bed.make_client(static_cast<std::size_t>(i), "/w", creds));
  }
  core::ConsistentRegion* region = bed.pacon_region("/w");

  sim::FaultPlan plan;
  plan.partition(2'000_us, {2}, {0, 1, 3, mds});
  plan.heal_partition(6'000_us, {2}, {0, 1, 3, mds});
  plan.call(6'500_us, [region] { region->node_recovered(net::NodeId{2}); });
  plan.arm(
      bed.sim(),
      [&bed](std::uint32_t node, bool down) {
        bed.fabric().set_node_down(net::NodeId{node}, down);
      },
      [&matrix](std::uint32_t s, std::uint32_t d, bool down) {
        matrix.set_link_down(s, d, down);
      });

  sim::run_task(bed.sim(), [](harness::TestBed& b,
                              std::vector<std::unique_ptr<wl::MetaClient>>& cs) -> sim::Task<> {
    std::vector<sim::Task<>> loops;
    for (int i = 0; i < kClients; ++i) {
      loops.push_back(faulted_client_loop(b, *cs[static_cast<std::size_t>(i)], i));
    }
    co_await sim::when_all(b.sim(), std::move(loops));
    for (int attempt = 0; attempt < 100; ++attempt) {
      auto listing = co_await cs[0]->readdir(fs::Path::parse("/w"));
      if (listing.has_value()) {
        b.sim().trace_note("phase linkfault-readdir entries=" +
                           std::to_string(listing.value().size()));
        co_return;
      }
      co_await b.sim().delay(500_us);
    }
    throw std::runtime_error("link-faulted readdir never succeeded");
  }(bed, clients));
  bed.sim().set_trace_hook(nullptr);
  return trace;
}

/// Prints the first diverging index with surrounding context from both runs.
::testing::AssertionResult traces_identical(const std::vector<std::string>& a,
                                            const std::vector<std::string>& b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) {
      std::ostringstream os;
      os << "traces diverge at record " << i << " (of " << a.size() << "/" << b.size()
         << "):\n";
      const std::size_t from = i >= 3 ? i - 3 : 0;
      for (std::size_t j = from; j < std::min(n, i + 2); ++j) {
        const char* marker = j == i ? ">>" : "  ";
        os << marker << " run1[" << j << "]: " << a[j] << "\n";
        os << marker << " run2[" << j << "]: " << b[j] << "\n";
      }
      return ::testing::AssertionFailure() << os.str();
    }
  }
  if (a.size() != b.size()) {
    const auto& longer = a.size() > b.size() ? a : b;
    return ::testing::AssertionFailure()
           << "trace lengths differ (" << a.size() << " vs " << b.size()
           << "); first extra record: " << longer[n];
  }
  return ::testing::AssertionSuccess();
}

bool any_contains(const std::vector<std::string>& trace, const std::string& needle) {
  return std::any_of(trace.begin(), trace.end(), [&needle](const std::string& line) {
    return line.find(needle) != std::string::npos;
  });
}

TEST(PaconDeterminism, SameSeedProducesIdenticalEventTrace) {
  const std::vector<std::string> run1 = run_traced(42);
  const std::vector<std::string> run2 = run_traced(42);
  EXPECT_TRUE(traces_identical(run1, run2));

  // With PACON_TRACE_DUMP=<file> set, persist the reference-seed trace so
  // separate builds can be compared byte-for-byte. This is how kernel
  // optimizations (e.g. the event-heap swap) prove they did not reorder the
  // schedule: dump from the old build, dump from the new, diff the files.
  if (const char* dump = std::getenv("PACON_TRACE_DUMP")) {
    std::ofstream out(dump);
    for (const auto& line : run1) out << line << "\n";
    ASSERT_TRUE(out.good()) << "failed to write trace dump to " << dump;
  }
}

TEST(PaconDeterminism, SameSeedIdenticalAcrossSeeds) {
  // A second seed exercises different jitter/stat choices; determinism must
  // hold for each seed independently.
  for (std::uint64_t seed : {7ull, 1234567ull}) {
    const std::vector<std::string> run1 = run_traced(seed);
    const std::vector<std::string> run2 = run_traced(seed);
    EXPECT_TRUE(traces_identical(run1, run2)) << "seed=" << seed;
  }
}

TEST(PaconDeterminism, TraceCoversKernelAndCommitPath) {
  const std::vector<std::string> trace = run_traced(42);
  // The workload is ~hundreds of ops across 4 clients; a thin trace means
  // the kernel hook is not firing per dispatch.
  EXPECT_GT(trace.size(), 1000u);
  // Commit-path notes: async publishes with region-unique op ids, commit
  // application on replicas, and the readdir-triggered barrier drain.
  EXPECT_TRUE(any_contains(trace, "publish op=")) << "no publish notes in trace";
  EXPECT_TRUE(any_contains(trace, "commit op=")) << "no commit notes in trace";
  EXPECT_TRUE(any_contains(trace, "barrier-drained epoch=")) << "no barrier note in trace";
  EXPECT_TRUE(any_contains(trace, "phase final-readdir")) << "workload note missing";
}

TEST(PaconDeterminism, FaultedRunSameSeedProducesIdenticalEventTrace) {
  // Fault injection (wire drops/delays, a node outage, a commit-process
  // crash) is part of the deterministic schedule: same seed, same trace.
  const std::vector<std::string> run1 = run_traced_with_faults(42);
  const std::vector<std::string> run2 = run_traced_with_faults(42);
  EXPECT_TRUE(traces_identical(run1, run2));
  EXPECT_GT(run1.size(), 1000u);
  EXPECT_TRUE(any_contains(run1, "phase faulted-readdir")) << "workload note missing";
}

TEST(PaconDeterminism, FaultedRunDifferentSeedProducesDifferentTrace) {
  const std::vector<std::string> run1 = run_traced_with_faults(42);
  const std::vector<std::string> run2 = run_traced_with_faults(43);
  EXPECT_NE(run1, run2) << "different seeds produced identical faulted traces";
}

TEST(PaconDeterminism, PartitionedLinkRunSameSeedProducesIdenticalEventTrace) {
  // Link-targeted faults (per-link lossy override, a mid-run partition of
  // one cache node, heal + rejoin) are part of the deterministic schedule.
  const std::vector<std::string> run1 = run_traced_with_link_faults(42, false);
  const std::vector<std::string> run2 = run_traced_with_link_faults(42, false);
  EXPECT_TRUE(traces_identical(run1, run2));
  EXPECT_GT(run1.size(), 1000u);
  EXPECT_TRUE(any_contains(run1, "phase linkfault-readdir")) << "workload note missing";
}

TEST(PaconDeterminism, UnusedLinkRuleLeavesTraceByteIdentical) {
  // The tentpole acceptance property, proven end to end: adding a fault rule
  // for a link the workload never crosses must not shift a single event in
  // the run -- per-link verdict streams are keyed by endpoints alone, so no
  // other link's schedule (and hence no delivery, retry or commit timing)
  // can move.
  const std::vector<std::string> baseline = run_traced_with_link_faults(42, false);
  const std::vector<std::string> with_rule = run_traced_with_link_faults(42, true);
  EXPECT_TRUE(traces_identical(baseline, with_rule));
}

TEST(PaconDeterminism, PartitionedLinkRunDifferentSeedProducesDifferentTrace) {
  const std::vector<std::string> run1 = run_traced_with_link_faults(42, false);
  const std::vector<std::string> run2 = run_traced_with_link_faults(43, false);
  EXPECT_NE(run1, run2) << "different seeds produced identical link-faulted traces";
}

TEST(PaconDeterminism, DifferentSeedProducesDifferentTrace) {
  // Guards against a vacuous pass (hook emitting nothing seed-dependent).
  const std::vector<std::string> run1 = run_traced(42);
  const std::vector<std::string> run2 = run_traced(43);
  EXPECT_NE(run1, run2) << "different seeds produced identical traces; the "
                           "trace is not capturing the run's actual schedule";
}

}  // namespace
}  // namespace pacon
