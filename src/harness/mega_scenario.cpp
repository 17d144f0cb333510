#include "harness/mega_scenario.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <string>
#include <vector>

#include "core/region.h"
#include "fs/interner.h"

namespace pacon::harness {
namespace {

struct MegaTallies {
  std::uint64_t clients_done = 0;
  std::uint64_t ops_ok = 0;
  std::uint64_t ops_failed = 0;
};

// The referenced services (client, workload, tallies) are named locals of
// run_mega's frame, which outlives every wave's step loop.
// lint-allow: coro-param-ref run_mega owns all referents across the whole run
sim::Task<> mega_client(wl::MetaClient& mc, wl::HotDirWorkload& load, MegaTallies& t,
                        sim::Rng rng) {
  const fs::Path& p = load.resolve(load.next_file(rng));
  auto created = co_await mc.create(p, fs::FileMode::file_default());
  if (created || created.error() == fs::FsError::exists) {
    ++t.ops_ok;
  } else {
    ++t.ops_failed;
  }
  auto attr = co_await mc.getattr(p);
  if (attr) {
    ++t.ops_ok;
  } else {
    ++t.ops_failed;
  }
  ++t.clients_done;
}

// lint-allow: coro-param-ref run_mega owns all referents across the whole run
sim::Task<> make_hot_dirs(wl::MetaClient& mc, wl::HotDirWorkload& load, bool& done) {
  for (std::size_t k = 0; k < load.directory_count(); ++k) {
    (void)co_await mc.mkdir(load.resolve(load.directory(k)), fs::FileMode::dir_default());
  }
  done = true;
}

}  // namespace

MegaResult run_mega(const MegaConfig& cfg) {
  assert(cfg.clients > 0 && cfg.nodes > 0 && cfg.wave > 0);
  TestBedConfig bed_cfg;
  bed_cfg.kind = SystemKind::pacon;
  bed_cfg.client_nodes = cfg.nodes;
  bed_cfg.seed = cfg.seed;
  TestBed bed(bed_cfg);
  sim::Simulation& sim = bed.sim();

  const std::string workspace = "/mega";
  const fs::Credentials creds{static_cast<fs::Uid>(1000), static_cast<fs::Gid>(1000)};
  bed.provision_workspace(workspace, creds);

  // One MetaClient per node, shared by every client process homed there: a
  // million simulated processes, `nodes` protocol stacks.
  std::vector<std::unique_ptr<wl::MetaClient>> node_clients;
  node_clients.reserve(cfg.nodes);
  for (std::size_t n = 0; n < cfg.nodes; ++n) {
    node_clients.push_back(bed.make_client(n, workspace, creds));
  }

  fs::PathInterner interner;
  wl::HotDirWorkload load(interner, fs::Path::parse(workspace), cfg.hot);

  MegaResult res;

  // Hot directories first (node 0's client), so every create's parent
  // permission check hits a cached directory.
  {
    bool done = false;
    sim.spawn(make_hot_dirs(*node_clients[0], load, done));
    while (!done && sim.step()) {
    }
    assert(done && "hot-dir setup deadlocked");
  }

  MegaTallies tallies;
  std::uint64_t spawned = 0;
  while (spawned < cfg.clients) {
    const std::uint64_t n = std::min<std::uint64_t>(cfg.wave, cfg.clients - spawned);
    const std::uint64_t wave_target = tallies.clients_done + n;
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t id = spawned + i;
      const std::size_t node = static_cast<std::size_t>(id % cfg.nodes);
      sim.spawn(mega_client(*node_clients[node], load, tallies, sim.rng().fork(id)));
    }
    spawned += n;
    while (tallies.clients_done < wave_target && sim.step()) {
    }
    assert(tallies.clients_done == wave_target && "client wave deadlocked");
    res.reaped_roots += sim.reap_completed_roots();
  }

  // Drain the async commit queues so "to completion" includes the tail of
  // the write-back pipeline, not just the client returns.
  if (core::ConsistentRegion* region = bed.pacon_region(workspace)) {
    while (region->pending_commits() > 0 && sim.step()) {
    }
    res.region_pending_paths = region->pending_paths();
  }

  res.clients_completed = tallies.clients_done;
  res.ops_ok = tallies.ops_ok;
  res.ops_failed = tallies.ops_failed;
  res.events = sim.events_processed();
  res.virtual_seconds = static_cast<double>(sim.now()) / 1e9;
  res.interned_paths = interner.size();
  res.interner_bytes = interner.memory_bytes();
  return res;
}

}  // namespace pacon::harness
