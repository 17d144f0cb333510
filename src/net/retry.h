// Retry/backoff policy shared by the two layers that resubmit failed work:
// the memcache cluster client (kClusterRetry in kv/memcache.cpp, cache-node
// failover) and the region's commit-resubmission worker (kCommitRetry in
// core/region.cpp).
//
// Backoff is exponential with full-range multiplicative jitter. The jitter
// is drawn from a *simulation* Rng stream passed in by the caller, never
// from OS randomness, so a fixed seed reproduces the exact retry schedule
// -- the property the deterministic fault-injection suite asserts.
#pragma once

#include <algorithm>
#include <cstddef>

#include "sim/random.h"
#include "sim/time.h"

namespace pacon::net {

struct RetryPolicy {
  /// Delay before the first retry; doubles (by `kMultiplier`) per attempt.
  static constexpr sim::SimDuration kBaseDelay = 200_us;
  static constexpr double kMultiplier = 2.0;
  /// Jittered delay = nominal * (1 +- U(0, kJitterFrac)); spreads retries
  /// from concurrent clients so they do not re-collide in lockstep.
  static constexpr double kJitterFrac = 0.25;

  /// Total attempts (first try included). 0 = retry forever.
  std::size_t max_attempts = 4;
  /// Backoff ceiling (pre-jitter).
  sim::SimDuration max_delay = 5'000_us;

  /// True when attempt index `attempt` (0-based) may be followed by another.
  bool should_retry(std::size_t attempt) const {
    return max_attempts == 0 || attempt + 1 < max_attempts;
  }

  /// Delay to wait after failed attempt `attempt` (0-based).
  sim::SimDuration backoff(std::size_t attempt, sim::Rng& rng) const {
    double nominal = static_cast<double>(kBaseDelay);
    for (std::size_t i = 0; i < attempt && nominal < static_cast<double>(max_delay); ++i) {
      nominal *= kMultiplier;
    }
    nominal = std::min(nominal, static_cast<double>(max_delay));
    const double jitter = 1.0 + (rng.uniform01() * 2.0 - 1.0) * kJitterFrac;
    return static_cast<sim::SimDuration>(std::max(0.0, nominal * jitter));
  }
};

}  // namespace pacon::net
