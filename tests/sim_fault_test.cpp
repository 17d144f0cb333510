// Determinism properties of the fault-injection layer: the fixed-draw
// contract of MessageFaultModel, per-link stream independence of
// LinkFaultMatrix, rule-resolution precedence, hard link state, counter
// accuracy against configured probabilities, the FaultPlan arming latch,
// and the fabric/RPC integration of the matrix.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "net/fabric.h"
#include "net/rpc.h"
#include "sim/fault.h"
#include "sim/metrics.h"
#include "sim/random.h"
#include "sim/simulation.h"

namespace pacon::sim {
namespace {

using namespace literals;

/// A profile noticeably heavier than any global default used in these tests.
MessageFaultConfig lossier() {
  MessageFaultConfig cfg;
  cfg.drop_prob = 0.6;
  cfg.delay_prob = 0.5;
  cfg.delay_min = 1_us;
  cfg.delay_max = 20_us;
  return cfg;
}

/// Flattens a verdict into a comparable token.
std::string fmt(const FaultDecision& d) {
  std::ostringstream os;
  os << (d.drop ? 'D' : '.') << ':' << d.extra_delay;
  return os.str();
}

std::vector<std::string> stream_of(MessageFaultModel& m, int n) {
  std::vector<std::string> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) out.push_back(fmt(m.next()));
  return out;
}

// ---- MessageFaultModel: fixed draws per verdict ------------------------------

// Regression: toggling drop_prob must not reshuffle the delay schedule of
// later messages. The old next() returned early on a drop verdict (and
// skipped disabled classes entirely), so enabling drops re-aligned every
// downstream draw.
TEST(MessageFaultModel, TogglingDropDoesNotReshuffleDelay) {
  MessageFaultConfig base;
  base.delay_prob = 0.4;
  base.delay_min = 10_us;
  base.delay_max = 90_us;
  MessageFaultConfig with_drops = base;
  with_drops.drop_prob = 0.5;

  MessageFaultModel clean(Rng(77), base);
  MessageFaultModel lossy(Rng(77), with_drops);
  int dropped = 0;
  for (int i = 0; i < 2000; ++i) {
    const FaultDecision a = clean.next();
    const FaultDecision b = lossy.next();
    if (b.drop) {
      ++dropped;
      continue;  // a dropped message reports no delay; the draws still burned
    }
    EXPECT_EQ(a.extra_delay, b.extra_delay) << "message " << i;
  }
  EXPECT_GT(dropped, 0);
}

TEST(MessageFaultModel, TogglingDelayDoesNotReshuffleDrops) {
  MessageFaultConfig drops_only;
  drops_only.drop_prob = 0.5;
  MessageFaultConfig both = drops_only;
  both.delay_prob = 0.9;
  both.delay_min = 1_us;
  both.delay_max = 40_us;

  MessageFaultModel a(Rng(5), drops_only);
  MessageFaultModel b(Rng(5), both);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_EQ(a.next().drop, b.next().drop) << "message " << i;
  }
}

// p = 1 and p = 0 must consume draws like any other probability: a stream
// with a certain class still matches a stream where that class is merely
// probable, message for message, on the other classes.
TEST(MessageFaultModel, DegenerateProbabilitiesStillBurnDraws) {
  MessageFaultConfig certain;
  certain.drop_prob = 1.0;
  MessageFaultConfig likely;
  likely.drop_prob = 0.6;
  likely.delay_prob = 0.5;
  likely.delay_max = 10_us;
  MessageFaultModel a(Rng(11), certain);
  MessageFaultModel b(Rng(11), likely);
  for (int i = 0; i < 500; ++i) {
    EXPECT_TRUE(a.next().drop);
    (void)b.next();
  }
  // Reconfigure the certain-drop model down to the likely profile: its
  // stream position must line up with the model that ran likely all along.
  a.set_config(likely);
  EXPECT_EQ(stream_of(a, 500), stream_of(b, 500));
}

// set_config swaps the profile without restarting the stream: a model
// reconfigured after N messages continues exactly where a fresh model with
// that config (same seed) would be after N messages.
TEST(MessageFaultModel, SetConfigPreservesStreamPosition) {
  MessageFaultConfig first;
  first.drop_prob = 0.2;
  MessageFaultConfig second;
  second.drop_prob = 0.3;
  second.delay_prob = 0.25;
  second.delay_min = 5_us;
  second.delay_max = 50_us;

  MessageFaultModel reconfigured(Rng(123), first);
  MessageFaultModel reference(Rng(123), second);
  for (int i = 0; i < 300; ++i) {
    (void)reconfigured.next();
    (void)reference.next();
  }
  reconfigured.set_config(second);
  EXPECT_EQ(stream_of(reconfigured, 300), stream_of(reference, 300));
}

// ---- LinkFaultMatrix: per-link stream independence ---------------------------

struct Hop {
  std::uint32_t src;
  std::uint32_t dst;
};

/// Drives `hops` through the matrix in order, returning one verdict stream
/// per distinct link (keyed "src-dst").
std::map<std::string, std::vector<std::string>> drive(LinkFaultMatrix& m,
                                                      const std::vector<Hop>& hops) {
  std::map<std::string, std::vector<std::string>> streams;
  for (const Hop& h : hops) {
    streams[std::to_string(h.src) + "-" + std::to_string(h.dst)].push_back(
        fmt(m.next(h.src, h.dst)));
  }
  return streams;
}

/// An interleaved message schedule over four links.
std::vector<Hop> interleaved_hops(int rounds) {
  std::vector<Hop> hops;
  for (int i = 0; i < rounds; ++i) {
    hops.push_back({0, 1});
    hops.push_back({1, 0});
    if (i % 2 == 0) hops.push_back({2, 5});
    hops.push_back({3, 7});
  }
  return hops;
}

// Seed sweep: same seed + same rules => byte-identical verdict streams on
// every link; different seeds diverge.
TEST(LinkFaultMatrix, SeedSweepProducesByteIdenticalStreams) {
  MessageFaultConfig global;
  global.drop_prob = 0.1;
  global.delay_prob = 0.2;
  global.delay_max = 100_us;
  const std::vector<Hop> hops = interleaved_hops(300);
  for (const std::uint64_t seed : {1ull, 7ull, 42ull, 1000ull, 123456ull}) {
    LinkFaultMatrix a(Rng(seed), global);
    LinkFaultMatrix b(Rng(seed), global);
    a.set_node_egress(3, lossier());
    b.set_node_egress(3, lossier());
    EXPECT_EQ(drive(a, hops), drive(b, hops)) << "seed=" << seed;
  }
  LinkFaultMatrix a(Rng(1), global);
  LinkFaultMatrix c(Rng(2), global);
  EXPECT_NE(drive(a, hops), drive(c, hops));
}

// The acceptance property: adding a fault rule for one link leaves every
// other link's verdict schedule byte-identical.
TEST(LinkFaultMatrix, AddingLinkRuleLeavesOtherLanesByteIdentical) {
  MessageFaultConfig global;
  global.drop_prob = 0.15;
  global.delay_prob = 0.05;
  global.delay_max = 10_us;
  const std::vector<Hop> hops = interleaved_hops(400);

  LinkFaultMatrix plain(Rng(42), global);
  LinkFaultMatrix ruled(Rng(42), global);
  ruled.set_link(3, 7, lossier());

  const auto before = drive(plain, hops);
  const auto after = drive(ruled, hops);
  for (const char* lane : {"0-1", "1-0", "2-5"}) {
    EXPECT_EQ(before.at(lane), after.at(lane)) << "lane " << lane << " was perturbed";
  }
  EXPECT_NE(before.at("3-7"), after.at("3-7")) << "the ruled lane must actually change";
}

// A lane's schedule depends only on its own message count: traffic on other
// links cannot shift it.
TEST(LinkFaultMatrix, LaneStreamsAreIndependentOfOtherLinksTraffic) {
  MessageFaultConfig global;
  global.drop_prob = 0.3;
  LinkFaultMatrix sparse(Rng(9), global);
  LinkFaultMatrix busy(Rng(9), global);
  std::vector<std::string> sparse_stream, busy_stream;
  for (int i = 0; i < 500; ++i) {
    sparse_stream.push_back(fmt(sparse.next(0, 1)));
    // The busy matrix carries interleaved traffic on three other links.
    (void)busy.next(4, 5);
    busy_stream.push_back(fmt(busy.next(0, 1)));
    (void)busy.next(5, 4);
    (void)busy.next(8, 9);
  }
  EXPECT_EQ(sparse_stream, busy_stream);
}

// Resolution precedence: link override > node egress > node ingress > global.
TEST(LinkFaultMatrix, ResolutionPrecedence) {
  MessageFaultConfig link_cfg;  // always drop
  link_cfg.drop_prob = 1.0;
  MessageFaultConfig egress_cfg;  // always delay by exactly 3ns
  egress_cfg.delay_prob = 1.0;
  egress_cfg.delay_min = 3;
  egress_cfg.delay_max = 3;
  MessageFaultConfig ingress_cfg;  // always delay by exactly 7ns
  ingress_cfg.delay_prob = 1.0;
  ingress_cfg.delay_min = 7;
  ingress_cfg.delay_max = 7;

  LinkFaultMatrix m(Rng(1), MessageFaultConfig{});
  m.set_link(3, 7, link_cfg);
  m.set_node_egress(3, egress_cfg);
  m.set_node_ingress(7, ingress_cfg);

  EXPECT_TRUE(m.next(3, 7).drop) << "link override beats both node rules";
  EXPECT_EQ(m.next(3, 8).extra_delay, 3) << "egress rule applies to the src's other links";
  EXPECT_EQ(m.next(9, 7).extra_delay, 7) << "ingress rule applies to the dst's other links";
  const FaultDecision clean = m.next(9, 8);
  EXPECT_FALSE(clean.drop);
  EXPECT_EQ(clean.extra_delay, 0);

  // Removing the override falls back to the next tier (egress), and the
  // lane keeps its stream position rather than restarting.
  m.clear_link(3, 7);
  EXPECT_EQ(m.next(3, 7).extra_delay, 3);
}

// Counter totals match the configured probabilities over a long stream.
TEST(LinkFaultMatrix, CounterTotalsMatchConfiguredProbabilities) {
  MessageFaultConfig cfg;
  cfg.drop_prob = 0.2;
  cfg.delay_prob = 0.3;
  cfg.delay_min = 1_us;
  cfg.delay_max = 10_us;
  LinkFaultMatrix m(Rng(4242), cfg);
  const int n = 20000;
  for (int i = 0; i < n; ++i) (void)m.next(1, 2);
  const MessageFaultModel* lane = m.lane_model(1, 2);
  ASSERT_NE(lane, nullptr);
  const double drops = static_cast<double>(lane->drops()) / n;
  // Delays only count on non-dropped messages.
  const double delays = static_cast<double>(lane->delays()) / n;
  EXPECT_NEAR(drops, cfg.drop_prob, 0.02);
  EXPECT_NEAR(delays, cfg.delay_prob * (1.0 - cfg.drop_prob), 0.02);
}

// Hard link state: a down link eats everything (counted separately from
// wire faults), a partition severs both directions, and healing restores
// normal verdicts without having shifted the lane's schedule.
TEST(LinkFaultMatrix, LinkDownAndPartitionEatMessages) {
  LinkFaultMatrix quiet(Rng(6), MessageFaultConfig{});
  LinkFaultMatrix flapped(Rng(6), MessageFaultConfig{});

  flapped.set_partition({1}, {2, 3}, true);
  EXPECT_FALSE(flapped.link_up(1, 2));
  EXPECT_FALSE(flapped.link_up(2, 1));
  EXPECT_FALSE(flapped.link_up(3, 1));
  EXPECT_TRUE(flapped.link_up(2, 3)) << "links inside a side stay up";
  EXPECT_TRUE(flapped.next(1, 2).drop);
  EXPECT_TRUE(flapped.next(3, 1).drop);
  EXPECT_EQ(flapped.partition_drops(), 2u);

  flapped.set_partition({1}, {2, 3}, false);
  EXPECT_TRUE(flapped.link_up(1, 2));
  // Partition drops burned no lane draws: post-heal verdicts line up with a
  // matrix that never partitioned.
  std::vector<std::string> healed, reference;
  for (int i = 0; i < 200; ++i) {
    healed.push_back(fmt(flapped.next(1, 2)));
    reference.push_back(fmt(quiet.next(1, 2)));
  }
  EXPECT_EQ(healed, reference);
}

// Per-link counters surface through the bound MetricScope.
TEST(LinkFaultMatrix, MetricScopeSurfacesPerLinkCounters) {
  MessageFaultConfig cfg;
  cfg.drop_prob = 0.5;
  cfg.delay_prob = 0.3;
  MetricRegistry registry;
  LinkFaultMatrix m(Rng(8), cfg);
  m.bind_metrics(registry.scoped("fault"));
  m.set_link_down(2, 3, true);
  for (int i = 0; i < 400; ++i) (void)m.next(1, 2);
  for (int i = 0; i < 50; ++i) (void)m.next(2, 3);

  const MessageFaultModel* lane = m.lane_model(1, 2);
  ASSERT_NE(lane, nullptr);
  EXPECT_GT(lane->drops(), 0u);
  EXPECT_EQ(registry.counter("fault.link.1-2.drops").value(), lane->drops());
  EXPECT_EQ(registry.counter("fault.link.1-2.delays").value(), lane->delays());
  EXPECT_EQ(registry.counter("fault.partition.drops").value(), 50u);
  EXPECT_EQ(m.lane_model(2, 3), nullptr) << "partition drops never touch a lane";
}

// Late binding back-fills totals accumulated before the scope existed.
TEST(LinkFaultMatrix, LateMetricBindBackfillsTotals) {
  MessageFaultConfig cfg;
  cfg.drop_prob = 0.4;
  MetricRegistry registry;
  LinkFaultMatrix m(Rng(21), cfg);
  for (int i = 0; i < 300; ++i) (void)m.next(4, 9);
  m.bind_metrics(registry.scoped("fault"));
  const std::uint64_t at_bind = m.lane_model(4, 9)->drops();
  EXPECT_EQ(registry.counter("fault.link.4-9.drops").value(), at_bind);
  for (int i = 0; i < 300; ++i) (void)m.next(4, 9);
  EXPECT_EQ(registry.counter("fault.link.4-9.drops").value(), m.lane_model(4, 9)->drops());
  EXPECT_GT(m.lane_model(4, 9)->drops(), at_bind);
}

// ---- FaultPlan --------------------------------------------------------------

// Satellite regression: a second arm() must throw instead of silently
// re-scheduling every liveness flip.
TEST(FaultPlan, SecondArmThrows) {
  Simulation sim;
  FaultPlan plan;
  int flips = 0;
  plan.down(10, 1).up(20, 1);
  auto sink = [&flips](std::uint32_t, bool) { ++flips; };
  plan.arm(sim, sink);
  EXPECT_TRUE(plan.armed());
  EXPECT_THROW(plan.arm(sim, sink), std::logic_error);
  sim.run();
  EXPECT_EQ(flips, 2) << "each planned flip fires exactly once";
}

TEST(FaultPlan, LinkEventsRequireLinkSink) {
  Simulation sim;
  FaultPlan plan;
  plan.link_down(5, 0, 1);
  EXPECT_THROW(plan.arm(sim, [](std::uint32_t, bool) {}), std::logic_error);
  EXPECT_FALSE(plan.armed()) << "a rejected arm leaves the plan armable";
  plan.arm(sim, [](std::uint32_t, bool) {}, [](std::uint32_t, std::uint32_t, bool) {});
  EXPECT_TRUE(plan.armed());
}

// A partition schedule flips the matrix's link state at the pinned instants.
TEST(FaultPlan, PartitionScheduleDrivesLinkMatrix) {
  Simulation sim;
  LinkFaultMatrix matrix(sim.rng().fork("faults"), MessageFaultConfig{});
  FaultPlan plan;
  plan.partition(1'000, {2}, {0, 1});
  plan.heal_partition(5'000, {2}, {0, 1});
  plan.link_down(2'000, 0, 1);
  plan.link_up(3'000, 0, 1);
  plan.arm(
      sim, [](std::uint32_t, bool) {},
      [&matrix](std::uint32_t s, std::uint32_t d, bool down) {
        matrix.set_link_down(s, d, down);
      });

  EXPECT_TRUE(matrix.link_up(2, 0));
  sim.run_until(1'500);
  EXPECT_FALSE(matrix.link_up(2, 0));
  EXPECT_FALSE(matrix.link_up(0, 2));
  EXPECT_FALSE(matrix.link_up(1, 2));
  EXPECT_TRUE(matrix.link_up(0, 1));
  sim.run_until(2'500);
  EXPECT_FALSE(matrix.link_up(0, 1));
  sim.run_until(4'000);
  EXPECT_TRUE(matrix.link_up(0, 1));
  EXPECT_FALSE(matrix.link_up(2, 1));
  sim.run_until(6'000);
  EXPECT_TRUE(matrix.link_up(2, 0));
  EXPECT_TRUE(matrix.link_up(1, 2));
}

// ---- Fabric integration -----------------------------------------------------

struct EchoReq {
  int x = 0;
};
struct EchoResp {
  int x = 0;
};

// A matrix-targeted dead link times out the RPC on that link only; calls on
// clean links are untouched, and loopback stays exempt.
TEST(LinkFaultMatrix, FabricRoutesVerdictsPerLink) {
  Simulation sim;
  net::Fabric fabric(sim, net::FabricConfig{});
  LinkFaultMatrix matrix(sim.rng().fork("faults"), MessageFaultConfig{});
  MessageFaultConfig dead;
  dead.drop_prob = 1.0;
  matrix.set_link(1, 0, dead);
  fabric.set_fault_matrix(&matrix);
  EXPECT_NE(fabric.fault_matrix(), nullptr);

  net::RpcService<EchoReq, EchoResp> svc(
      sim, fabric, net::NodeId{0},
      [](EchoReq r) -> Task<EchoResp> { co_return EchoResp{r.x}; });
  const auto dead_link = sim::run_task(sim, svc.call(net::NodeId{1}, EchoReq{1}));
  ASSERT_FALSE(dead_link.has_value()) << "expected a timeout on the dead link";
  EXPECT_EQ(dead_link.error(), net::RpcFailure::timeout);
  EXPECT_EQ(sim::run_task(sim, svc.call(net::NodeId{2}, EchoReq{2}))->x, 2)
      << "an untargeted link must not see the fault";
  EXPECT_EQ(sim::run_task(sim, svc.call(net::NodeId{0}, EchoReq{3}))->x, 3)
      << "loopback is exempt from the matrix";
  ASSERT_NE(matrix.lane_model(1, 0), nullptr);
  EXPECT_EQ(matrix.lane_model(1, 0)->drops(), 1u);
}

}  // namespace
}  // namespace pacon::sim
