// Scaled-down smoke of the mega scenario (`ctest -L mega`, run in every
// scripts/check.sh sanitizer leg).
//
// Exercises the full bench path -- wave-spawned clients, zipf hot-directory
// load, shared path-intern arena -- at a few hundred clients, and asserts
// that a same-config rerun reproduces every result field that describes the
// simulated system (ops, events, virtual time, interned namespace).
// bench/mega_scalability is this exact scenario at >= 10^6 clients.
#include <gtest/gtest.h>

#include <cstdint>

#include "fs/interner.h"
#include "harness/mega_scenario.h"
#include "sim/random.h"
#include "workload/hotdir.h"

namespace pacon {
namespace {

harness::MegaConfig smoke_config() {
  harness::MegaConfig cfg;
  cfg.clients = 600;
  cfg.nodes = 8;
  cfg.wave = 128;
  cfg.seed = 11;
  cfg.hot.directories = 16;
  cfg.hot.files_per_dir = 64;
  return cfg;
}

TEST(MegaSmoke, RerunProducesIdenticalSimulatedResults) {
  const harness::MegaConfig cfg = smoke_config();
  const harness::MegaResult base = harness::run_mega(cfg);
  EXPECT_EQ(base.clients_completed, cfg.clients);
  EXPECT_EQ(base.ops_failed, 0u);
  EXPECT_GT(base.ops_ok, 0u);

  const harness::MegaResult r = harness::run_mega(cfg);
  EXPECT_EQ(r.ops_ok, base.ops_ok);
  EXPECT_EQ(r.events, base.events);
  EXPECT_DOUBLE_EQ(r.virtual_seconds, base.virtual_seconds);
  EXPECT_EQ(r.interned_paths, base.interned_paths);
  EXPECT_EQ(r.region_pending_paths, base.region_pending_paths);
  EXPECT_EQ(r.reaped_roots, base.reaped_roots);
}

TEST(MegaSmoke, WaveSpawningBoundsResidentFrames) {
  const harness::MegaConfig cfg = smoke_config();
  const harness::MegaResult r = harness::run_mega(cfg);
  // Every client coroutine parks at completion and must be reaped by the
  // between-wave sweeps, or a 10^6-client run would hold 10^6 frames.
  EXPECT_GE(r.reaped_roots, cfg.clients);
}

// ---- Hot-directory workload (the mega bench's default load) ---------------

TEST(HotDirWorkload, DrawsAreDeterministicPerStream) {
  fs::PathInterner interner;
  wl::HotDirConfig cfg;
  cfg.directories = 8;
  cfg.files_per_dir = 32;
  wl::HotDirWorkload load(interner, fs::Path::parse("/w"), cfg);

  sim::Rng a(42);
  sim::Rng b(42);
  for (int i = 0; i < 500; ++i) {
    const fs::InternedPath x = load.next_file(a);
    const fs::InternedPath y = load.next_file(b);
    EXPECT_EQ(x, y) << "same rng stream diverged at draw " << i;
    ASSERT_TRUE(x.valid());
  }
}

TEST(HotDirWorkload, ZipfSkewConcentratesOnHotDirectories) {
  fs::PathInterner interner;
  wl::HotDirConfig cfg;
  cfg.directories = 32;
  cfg.files_per_dir = 16;
  cfg.dir_theta = 0.99;
  wl::HotDirWorkload load(interner, fs::Path::parse("/w"), cfg);

  sim::Rng rng(7);
  const std::uint64_t kDraws = 20'000;
  for (std::uint64_t i = 0; i < kDraws; ++i) (void)load.next_file(rng);

  const std::vector<std::uint64_t>& draws = load.dir_draws();
  std::uint64_t total = 0;
  for (const std::uint64_t d : draws) total += d;
  ASSERT_EQ(total, kDraws);
  // Rank 0 is the hot spot: far above the uniform share (1/32) and hotter
  // than the tail combined half.
  EXPECT_GT(draws[0] * 32, kDraws * 4) << "rank-0 share below 4x uniform";
  std::uint64_t tail = 0;
  for (std::size_t d = 16; d < draws.size(); ++d) tail += draws[d];
  EXPECT_GT(draws[0], tail) << "hottest directory colder than the whole tail half";
}

TEST(HotDirWorkload, InternsLazilyAndOnce) {
  fs::PathInterner interner;
  wl::HotDirConfig cfg;
  cfg.directories = 4;
  cfg.files_per_dir = 8;
  wl::HotDirWorkload load(interner, fs::Path::parse("/w"), cfg);
  // Construction interns exactly the directory paths (parents only appear
  // via explicit parent() walks, which nothing here performs).
  EXPECT_EQ(interner.size(), 4u);

  sim::Rng rng(3);
  const std::size_t before = interner.size();
  for (int i = 0; i < 5'000; ++i) {
    const fs::InternedPath h = load.next_file(rng);
    const fs::Path& p = load.resolve(h);
    EXPECT_TRUE(p.valid());
    EXPECT_EQ(p.parent_hash(), load.resolve(load.directory(load.last_dir_rank())).hash());
  }
  // At most the full namespace was added, and repeats added nothing.
  EXPECT_LE(interner.size(), before + 4u * 8u);
  EXPECT_GT(interner.size(), before);
}

}  // namespace
}  // namespace pacon
