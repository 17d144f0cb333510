// memaslap-model raw-KV load generator (paper Fig. 10 baseline).
#pragma once

#include <cstdint>

#include "kv/memcache.h"
#include "sim/simulation.h"

namespace pacon::wl {

struct KvLoadConfig {
  /// Single outstanding request per client, as in the paper's
  /// no-concurrency overhead experiment.
  int ops = 10'000;
};

/// Runs sequential inserts from `node` against `cluster`; returns the number
/// of accepted operations.
sim::Task<std::uint64_t> kv_insert_load(kv::MemCacheCluster& cluster, net::NodeId node,
                                        const KvLoadConfig& config);

}  // namespace pacon::wl
