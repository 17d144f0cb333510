// Shared scenario vocabulary for the per-system failure suites.
//
// The Pacon, IndexFS and DFS (BeeGFS-style) suites run the *same* asymmetric
// fault scenarios -- lossy link, single-node partition, flapping link -- on
// the same seeds and the same MessageFaultConfig profiles, so degraded-mode
// behaviour is compared apples-to-apples across the three systems
// (ROADMAP "Asymmetric failure scenarios"; FAULTS.md "Asymmetric fault
// topology").
#pragma once

#include <cstdint>

#include "fs/error.h"
#include "sim/fault.h"
#include "sim/simulation.h"
#include "sim/time.h"

namespace pacon::ftest {

using namespace sim::literals;

/// Seeds every system's failure suite iterates over. Keep in sync across
/// failure_injection_test (Pacon), indexfs_failure_test and dfs_failure_test:
/// the acceptance bar is that all three pass the same scenarios on the same
/// seeds.
inline constexpr std::uint64_t kSuiteSeeds[] = {42, 1337};

/// One bad link: a quarter of its messages vanish, a fifth arrive late.
inline sim::MessageFaultConfig lossy_link_profile() {
  sim::MessageFaultConfig cfg;
  cfg.drop_prob = 0.25;
  cfg.delay_prob = 0.20;
  cfg.delay_min = 50_us;
  cfg.delay_max = 500_us;
  return cfg;
}

/// Flapping-link schedule: `cycles` down/up square waves on (src -> dst)
/// starting at `start`, each `period` long with the link dark for the first
/// `dark` of it.
inline void flap_link(sim::FaultPlan& plan, std::uint32_t src, std::uint32_t dst,
                      sim::SimTime start, sim::SimDuration period, sim::SimDuration dark,
                      int cycles) {
  for (int i = 0; i < cycles; ++i) {
    const sim::SimTime t = start + static_cast<sim::SimTime>(period) * i;
    plan.link_down(t, src, dst);
    plan.link_up(t + dark, src, dst);
  }
}

/// Application-level retry loop for the synchronous baselines: the DFS and
/// IndexFS clients surface wire loss as FsError::io (they model clients
/// without a transparent retry layer), so their failure suites retry at the
/// application, the way an HPC job script re-runs a failed shell command.
/// `op()` returns a Task<FsResult<...>>; success and `exists` (a retried
/// create whose first attempt did land but whose response was lost --
/// at-least-once semantics) both terminate the loop; any other error backs
/// off and resubmits.
///
/// Lifetime contract (toolchain workaround): `op` is taken by reference and
/// must stay alive across the whole `co_await eventually(...)` expression.
/// Either name the closure as a local in the calling coroutine, or pass a
/// temporary closure that captures *only references to named locals* (a
/// trivially copyable closure). Never pass a temporary closure with a
/// non-trivial capture (`[w = Path::parse("/w")] {...}` inline in the call):
/// GCC 12 relocates temporaries that span a suspension point into the
/// coroutine frame bitwise, which corrupts self-referential members such as
/// SSO strings and aborts in the closure's destructor. Arguments the closure
/// passes by reference into a lazily-started coroutine (e.g. a Path handed to
/// mkdir) must likewise be named locals, since the Task is awaited after op's
/// return full-expression ends. pacon-analyze enforces both halves of this
/// contract at call sites tree-wide: `coro-temp-lambda` flags temporary
/// closures with by-value captures handed to a coroutine, and
/// `coro-param-view` / `coro-param-ref` flag coroutine parameters that can
/// dangle before the first await.
template <typename F>
// lint-allow: coro-param-ref `op` is reference-by-contract; the Lifetime contract above binds callers
sim::Task<bool> eventually(sim::Simulation& sim, const F& op, int attempts = 400,
                           sim::SimDuration gap = 300_us) {
  for (int i = 0; i < attempts; ++i) {
    auto r = co_await op();
    if (r.has_value() || r.error() == fs::FsError::exists) co_return true;
    co_await sim.delay(gap);
  }
  co_return false;
}

}  // namespace pacon::ftest
