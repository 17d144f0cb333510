// Calibration constants for the simulated testbed, in one place.
//
// The paper's experiments ran on TIANHE-II: a 16-node client cluster
// (2x Xeon E5, 64 GB each, 20 mdtest clients per node) against BeeGFS with
// 1 MDS (Intel P3600 NVMe) + 3 storage servers. The constants below are not
// fitted to the paper's absolute numbers; they are plausible
// hardware/software figures chosen once, from which the *shapes* of the
// paper's figures emerge. Provenance notes inline.
#pragma once

#include "sim/time.h"

namespace pacon::harness {

using namespace sim::literals;

struct Calibration {
  // Interconnect: TH-Express style fabric driven through a sockets-like
  // software stack -- ~50us small-message RTT (half each way).
  sim::SimDuration net_one_way = 25_us;
  double net_bandwidth_bytes_per_sec = 5.0e9;

  // MDS service: BeeGFS meta operations involve locking, dentry+inode
  // updates and journaling; tens-of-kilo-ops/s per MDS is the published
  // ballpark for one NVMe-backed MDS. 8 workers x ~95us per mutation
  // saturates near ~80 kops/s of writes; reads are cheaper.
  sim::SimDuration mds_write_cpu = 95_us;
  sim::SimDuration mds_read_cpu = 18_us;
};

/// The defaults above, for code that reads a constant without a testbed.
inline const Calibration& default_calibration() {
  static const Calibration cal{};
  return cal;
}

}  // namespace pacon::harness
