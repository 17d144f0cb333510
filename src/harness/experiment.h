// Fixed-window throughput measurement over a set of client processes.
//
// The pattern every figure uses: N clients loop an operation; after a warmup
// the harness opens a measurement window of virtual time and counts the
// operations completing inside it. Deterministic given the seed.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/combinators.h"
#include "sim/simulation.h"
#include "workload/meta_client.h"

namespace pacon::harness {

using namespace sim::literals;  // _ms window lengths at call sites

struct WindowResult {
  std::uint64_t ops = 0;
  double seconds = 0;
  double ops_per_sec() const { return seconds > 0 ? static_cast<double>(ops) / seconds : 0; }
};

/// Per-client operation factory: (client_index, op_index) -> one operation.
/// Returning a Task that resolves false does not count the op as completed.
using OpFactory = std::function<sim::Task<bool>(std::size_t client, std::uint64_t op_index)>;

/// Runs `n_clients` loops of `op` with warmup, then measures for `window`.
/// The simulation keeps running until every client observed the deadline, so
/// post-run state (e.g. commit-queue drain) is still possible afterwards.
WindowResult measure_throughput(sim::Simulation& sim, std::size_t n_clients, const OpFactory& op,
                                sim::SimDuration warmup, sim::SimDuration window);

}  // namespace pacon::harness
