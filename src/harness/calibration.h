// The fabric's one-way wire latency, for code that reads it without a
// testbed.
//
// Every calibrated constant of the simulated testbed sits beside its only
// reader (net/fabric.h, dfs/meta_server.cpp, indexfs/indexfs.cpp, ...), with
// its provenance note. This header only re-exports the cross-node latency,
// whose home is net::FabricConfig::remote_one_way.
#pragma once

#include "net/fabric.h"
#include "sim/time.h"

namespace pacon::harness {

struct Calibration {
  sim::SimDuration net_one_way = net::FabricConfig{}.remote_one_way;
};

/// The value above, for code that reads it without a testbed.
inline const Calibration& default_calibration() {
  static const Calibration cal{};
  return cal;
}

}  // namespace pacon::harness
