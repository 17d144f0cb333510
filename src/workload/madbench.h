// MADbench2-model application workload (paper Section IV.F).
//
// Phase structure from Borrill et al.: each process creates one file and
// writes the evaluation data (S phase), then repeatedly reads, computes and
// writes over it (W/C phases). We model the compute component as virtual
// CPU time so the experiment can report the same init/read/write/other
// breakdown as the paper's Fig. 12.
#pragma once

#include <cstdint>

#include "sim/simulation.h"
#include "workload/meta_client.h"

namespace pacon::wl {

using namespace sim::literals;

struct MadbenchConfig {
  fs::Path base;                       // working directory
  std::uint64_t file_bytes = 4 << 20;  // 4 MiB per process, as in the paper
  int io_rounds = 8;                   // read/compute/write iterations
};

/// Per-phase virtual time accumulated by one MADbench2 process.
struct MadbenchBreakdown {
  sim::SimDuration init = 0;   // file creation
  sim::SimDuration write = 0;  // data writes
  sim::SimDuration read = 0;   // data reads
  sim::SimDuration other = 0;  // compute + everything else

  sim::SimDuration total() const { return init + write + read + other; }

  MadbenchBreakdown& operator+=(const MadbenchBreakdown& o) {
    init += o.init;
    write += o.write;
    read += o.read;
    other += o.other;
    return *this;
  }
};

/// Runs one MADbench2 process (rank `rank`) against `client`.
sim::Task<MadbenchBreakdown> madbench_process(sim::Simulation& sim, MetaClient& client,
                                              const MadbenchConfig& config, int rank);

}  // namespace pacon::wl
