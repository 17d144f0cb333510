// Million-client mega scenario, shared by bench/mega_scalability and the
// scaled-down `ctest -L mega` smoke tests.
//
// The scenario drives `clients` simulated client processes (coroutines)
// against one Pacon deployment. Clients are wave-spawned -- at most
// `wave` coroutine frames live at once, with completed roots reaped between
// waves -- so a 10^6-client run holds thousands, not millions, of parked
// frames. Each client forks its own rng stream and performs one
// create+getattr pair on a zipf-hot file (workload/hotdir), all spellings
// shared through one fs::PathInterner arena.
#pragma once

#include <cstddef>
#include <cstdint>

#include "harness/testbed.h"
#include "workload/hotdir.h"

namespace pacon::harness {

struct MegaConfig {
  /// Simulated client processes driven to completion.
  std::uint64_t clients = 1'000'000;
  /// Client nodes; each hosts one shared MetaClient and clients % nodes.
  std::size_t nodes = 64;
  /// Client coroutines in flight at once (wave-spawned, reaped between).
  std::size_t wave = 8192;
  std::uint64_t seed = 7;
  wl::HotDirConfig hot{};
};

struct MegaResult {
  std::uint64_t clients_completed = 0;
  /// Successful ops (create hitting an existing hot file counts as success).
  std::uint64_t ops_ok = 0;
  std::uint64_t ops_failed = 0;
  std::uint64_t events = 0;
  double virtual_seconds = 0;
  /// Workload path-arena footprint (handles replace Path copies).
  std::size_t interned_paths = 0;
  std::size_t interner_bytes = 0;
  /// Region-side pending table size after the final drain (0: every queued
  /// commit reached the DFS).
  std::size_t region_pending_paths = 0;
  std::uint64_t reaped_roots = 0;
};

/// Runs the scenario to completion (all clients done, commit queues
/// drained) and returns the tallies.
MegaResult run_mega(const MegaConfig& cfg);

}  // namespace pacon::harness
