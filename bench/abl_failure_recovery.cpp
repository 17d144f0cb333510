// Ablation: failure-recovery cost (FAULTS.md; paper Section III.G).
//
// Part 1 -- checkpoint-driven region recovery: how long a client-node crash
// takes to repair as a function of how much work happened since the last
// checkpoint. recover_from_node_failure() detaches the dead cache node and
// rolls the workspace back to the newest checkpoint, so its cost is the
// drain of the surviving queues plus the DFS subtree restore.
//
// Part 2 -- cache-node failover: throughput timeline of a create storm when
// one cache-only node dies mid-run and later rejoins. The dip is the window
// where clients burn RPC failures against the dead server before the ring
// marks it suspect; the recovery edge is the cold rejoin.
#include "bench_common.h"

using namespace pacon;
using namespace pacon::bench;

namespace {

constexpr int kBaseFiles = 200;

sim::Task<> recovery_scenario(harness::TestBed& bed, App& app,
                              core::ConsistentRegion* region, int ops_since,
                              double& out_ms, bool& ok) {
  const fs::Path base = fs::Path::parse(app.workspace);
  const std::size_t n = app.clients.size();
  // Baseline population, snapshotted by the checkpoint.
  for (int i = 0; i < kBaseFiles; ++i) {
    (void)co_await app.clients[static_cast<std::size_t>(i) % n]->create(
        base.child("base" + std::to_string(i)), fs::FileMode::file_default());
  }
  auto ckpt = co_await region->checkpoint();
  ok = ckpt.has_value();
  if (!ok) co_return;
  // Work since the checkpoint: lost by the rollback, and (while still
  // in-flight) lengthening the drain the restore must wait out.
  for (int i = 0; i < ops_since; ++i) {
    (void)co_await app.clients[static_cast<std::size_t>(i) % n]->create(
        base.child("post" + std::to_string(i)), fs::FileMode::file_default());
  }
  bed.fabric().set_node_down(net::NodeId{3}, true);
  const sim::SimTime t0 = bed.sim().now();
  auto r = co_await region->recover_from_node_failure(net::NodeId{3});
  ok = r.has_value();
  out_ms = static_cast<double>(bed.sim().now() - t0) / 1e6;
}

double measure_recovery_ms(int ops_since) {
  TestBedConfig cfg;
  cfg.kind = SystemKind::pacon;
  cfg.client_nodes = 4;
  TestBed bed(cfg);
  App app = make_app(bed, "/bench", node_range(4), 1);
  auto* region = bed.pacon_region("/bench");
  double ms = 0;
  bool ok = false;
  sim::run_task(bed.sim(), recovery_scenario(bed, app, region, ops_since, ms, ok));
  if (!ok) {
    std::cout << "recovery scenario failed (ops_since=" << ops_since << ")\n";
    return 0;
  }
  return ms;
}

// ---- Part 2: cache-node failover timeline ------------------------------------

struct Timeline {
  std::vector<double> kops_per_bucket;
  std::uint64_t failovers = 0;
};

constexpr sim::SimDuration kBucket = 5_ms;
constexpr int kBuckets = 30;
constexpr sim::SimTime kFailAt = 75_ms;
constexpr sim::SimTime kRejoinAt = 120_ms;

sim::Task<> storm_client(harness::TestBed& bed, wl::MetaClient& c, std::size_t rank,
                         sim::SimTime deadline, std::uint64_t& ops) {
  const fs::Path base = fs::Path::parse("/bench");
  for (std::uint64_t i = 0; bed.sim().now() < deadline; ++i) {
    auto r = co_await c.create(
        base.child("s" + std::to_string(rank) + "_" + std::to_string(i)),
        fs::FileMode::file_default());
    if (r) ++ops;
  }
}

sim::Task<> bucket_monitor(harness::TestBed& bed, const std::uint64_t& ops,
                           std::vector<double>& out) {
  std::uint64_t last = 0;
  for (int b = 0; b < kBuckets; ++b) {
    co_await bed.sim().delay(kBucket);
    out.push_back(static_cast<double>(ops - last) / (static_cast<double>(kBucket) / 1e9) /
                  1e3);
    last = ops;
  }
}

Timeline failover_timeline() {
  TestBedConfig cfg;
  cfg.kind = SystemKind::pacon;
  cfg.client_nodes = 8;
  TestBed bed(cfg);
  // Clients on nodes 0-3; the region's cache ring spans nodes 0-7, so nodes
  // 4-7 are cache-only and one can die without killing a client.
  App app;
  app.workspace = "/bench";
  bed.provision_workspace("/bench", app_creds());
  for (std::size_t n = 0; n < 4; ++n) {
    for (int c = 0; c < 4; ++c) {
      app.clients.push_back(bed.make_client(n, "/bench", app_creds(), node_range(8)));
    }
  }
  auto* region = bed.pacon_region("/bench");

  sim::FaultPlan plan;
  plan.down(kFailAt, 6);
  plan.up(kRejoinAt, 6);
  plan.call(kRejoinAt, [region] { region->node_recovered(net::NodeId{6}); });
  plan.arm(bed.sim(), [&bed](std::uint32_t node, bool down) {
    bed.fabric().set_node_down(net::NodeId{node}, down);
  });

  Timeline out;
  std::uint64_t ops = 0;
  const sim::SimTime deadline = static_cast<sim::SimTime>(kBucket) * kBuckets;
  sim::run_task(bed.sim(), [](harness::TestBed& b, App& a, std::uint64_t& o,
                              std::vector<double>& buckets,
                              sim::SimTime dl) -> sim::Task<> {
    std::vector<sim::Task<>> procs;
    procs.push_back(bucket_monitor(b, o, buckets));
    for (std::size_t c = 0; c < a.clients.size(); ++c) {
      procs.push_back(storm_client(b, *a.clients[c], c, dl, o));
    }
    co_await sim::when_all(b.sim(), std::move(procs));
  }(bed, app, ops, out.kops_per_bucket, deadline));
  out.failovers = region->cache().failovers();
  return out;
}

// ---- Part 3: three-system degraded throughput under an asymmetric fault ------

struct DegradedResult {
  double healthy_kops = 0;
  double degraded_kops = 0;
  double app_error_pct = 0;  // share of degraded-run ops that surfaced as errors
};

constexpr sim::SimTime kDegradedWindow = 40_ms;

sim::Task<> degraded_client(harness::TestBed& bed, wl::MetaClient& c, std::size_t rank,
                            std::uint64_t& ok, std::uint64_t& failed) {
  const fs::Path base = fs::Path::parse("/bench");
  for (std::uint64_t i = 0; bed.sim().now() < kDegradedWindow; ++i) {
    // Baselines surface wire loss to the app as FsError::io: a failed op.
    auto r = co_await c.create(base.child("d" + std::to_string(rank) + "_" + std::to_string(i)),
                               fs::FileMode::file_default());
    if (r) ++ok; else ++failed;
  }
}

/// One fixed-seed run of `kind`: 8 clients on 4 nodes hammer creates for
/// kDegradedWindow. When `faulty`, everything node 1 *sends* crosses a lossy
/// lane (drops + delays) while the reverse direction stays clean -- the
/// asymmetric fault per-link targeting exists for.
std::pair<double, double> degraded_run(SystemKind kind, bool faulty) {
  TestBedConfig cfg;
  cfg.kind = kind;
  cfg.client_nodes = 4;
  cfg.seed = 7;
  TestBed bed(cfg);
  App app = make_app(bed, "/bench", node_range(4), 2);
  // Install the fault after provisioning: the workspace setup has no retry
  // loop, the measured workload below does (or tolerates errors).
  if (faulty) {
    sim::MessageFaultConfig lossy;
    lossy.drop_prob = 0.25;
    lossy.delay_prob = 0.20;
    lossy.delay_min = 50_us;
    lossy.delay_max = 500_us;
    bed.link_faults().set_node_egress(1, lossy);
  }
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  sim::run_task(bed.sim(), [](harness::TestBed& b, App& a, std::uint64_t& okc,
                              std::uint64_t& failc) -> sim::Task<> {
    std::vector<sim::Task<>> procs;
    for (std::size_t c = 0; c < a.clients.size(); ++c) {
      procs.push_back(degraded_client(b, *a.clients[c], c, okc, failc));
    }
    co_await sim::when_all(b.sim(), std::move(procs));
  }(bed, app, ok, failed));
  const double secs = static_cast<double>(kDegradedWindow) / 1e9;
  const double kops = static_cast<double>(ok) / secs / 1e3;
  const double err_pct =
      ok + failed == 0 ? 0.0
                       : 100.0 * static_cast<double>(failed) / static_cast<double>(ok + failed);
  return {kops, err_pct};
}

DegradedResult degraded_mode(SystemKind kind) {
  DegradedResult r;
  r.healthy_kops = degraded_run(kind, false).first;
  const auto [kops, err] = degraded_run(kind, true);
  r.degraded_kops = kops;
  r.app_error_pct = err;
  return r;
}

}  // namespace

int main() {
  harness::enable_run_report("abl_failure_recovery");
  harness::enable_timeline("abl_failure_recovery");
  harness::print_banner("Ablation: Failure Recovery Cost",
                        "checkpoint-rollback recovery time vs work since checkpoint, and "
                        "the throughput dip while a cache node fails over.");

  harness::SeriesTable table(
      "4 nodes x 1 client; " + std::to_string(kBaseFiles) +
          " checkpointed files; node 3 crashes, recover_from_node_failure()",
      "ops since ckpt", {"recovery ms", "lost ops"});
  for (const int since : {0, 100, 400, 1600}) {
    table.add_row(std::to_string(since), {measure_recovery_ms(since), double(since)});
  }
  table.print();
  std::cout << "\nRecovery = drain surviving queues + DFS subtree rollback. The rollback\n"
               "deletes everything newer than the checkpoint, so recovery time grows\n"
               "with the work done since it -- checkpoint cadence bounds both the lost\n"
               "window and the repair bill.\n\n";

  const Timeline tl = failover_timeline();
  std::cout << "Cache-node failover timeline (16 clients on 4 nodes, 8-node ring;\n"
            << "cache-only node 6 dies at t=75ms, rejoins cold at t=120ms):\n\n"
            << "    t(ms)   create kops/s\n";
  for (int b = 0; b < static_cast<int>(tl.kops_per_bucket.size()); ++b) {
    const sim::SimTime t = static_cast<sim::SimTime>(kBucket) * (b + 1);
    const char* mark = "";
    if (t == kFailAt + static_cast<sim::SimTime>(kBucket)) mark = "  <- node 6 down";
    if (t == kRejoinAt + static_cast<sim::SimTime>(kBucket)) mark = "  <- node 6 rejoins";
    std::cout << "    " << static_cast<double>(t) / 1e6 << "\t" << tl.kops_per_bucket[b]
              << mark << "\n";
  }
  std::cout << "\nfailovers recorded by the cluster: " << tl.failovers
            << "\nA dead host refuses connections immediately, so the first client to "
               "touch\nthe dead server burns suspect_after_failures fail-fast RPCs, the "
               "ring marks\nit suspect, and every later request routes straight to the "
               "successor: the\ndip stays within bucket noise. (Silent packet loss would "
               "instead cost a\nfull call_timeout per attempt -- the case the retry layer's "
               "backoff bounds.)\nThe rejoin is cold (the server restarts empty) so no "
               "stale entry survives\nthe flap.\n";

  harness::SeriesTable degraded(
      "Degraded mode, all three systems: 8 clients on 4 nodes, seed 7; node 1's "
      "egress lossy (25% drop, 20% delay), reverse direction clean",
      "system", {"healthy kops", "degraded kops", "retained %", "app errors %"});
  for (const SystemKind kind :
       {SystemKind::beegfs, SystemKind::indexfs, SystemKind::pacon}) {
    const DegradedResult r = degraded_mode(kind);
    const double retained =
        r.healthy_kops == 0 ? 0.0 : 100.0 * r.degraded_kops / r.healthy_kops;
    degraded.add_row(harness::to_string(kind),
                     {r.healthy_kops, r.degraded_kops, retained, r.app_error_pct});
  }
  degraded.print();
  std::cout << "\nOnly node 1's two clients sit behind the lossy lane, so the fault\n"
               "costs every system roughly that share of throughput -- but it lands\n"
               "very differently at the application. The synchronous baselines pay a\n"
               "full call_timeout for each request lost on the wire and hand the miss\n"
               "to the app as an error (IndexFS loses the most: a timed-out client\n"
               "also stalls partition-split handshakes others wait on). Pacon commits\n"
               "through the local cache node and the cache cluster absorbs nearly all\n"
               "of the loss internally, so it keeps ~3x the baselines' absolute\n"
               "throughput while its app-visible error rate stays near zero.\n";
  return 0;
}
