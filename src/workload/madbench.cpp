#include "workload/madbench.h"

namespace pacon::wl {

namespace {

/// Virtual CPU time of one compute phase.
constexpr sim::SimDuration kComputePerRound = 20_ms;
/// Transfer granularity of the data phases.
constexpr std::uint64_t kIoChunkBytes = 1 << 20;

}  // namespace

sim::Task<MadbenchBreakdown> madbench_process(sim::Simulation& sim, MetaClient& client,
                                              const MadbenchConfig& config, int rank) {
  MadbenchBreakdown out;
  const fs::Path file = config.base.child("madbench_rank" + std::to_string(rank));

  // Init: create this rank's file (the metadata-heavy moment).
  sim::SimTime t0 = sim.now();
  (void)co_await client.create(file, fs::FileMode::file_default());
  out.init += sim.now() - t0;

  // S phase: generate and write the evaluation data.
  t0 = sim.now();
  for (std::uint64_t off = 0; off < config.file_bytes; off += kIoChunkBytes) {
    const std::uint64_t len = std::min(kIoChunkBytes, config.file_bytes - off);
    (void)co_await client.write(file, off, len);
  }
  out.write += sim.now() - t0;

  // W/C phases: repeated read, compute, write over the file.
  for (int round = 0; round < config.io_rounds; ++round) {
    t0 = sim.now();
    for (std::uint64_t off = 0; off < config.file_bytes; off += kIoChunkBytes) {
      const std::uint64_t len = std::min(kIoChunkBytes, config.file_bytes - off);
      (void)co_await client.read(file, off, len);
    }
    out.read += sim.now() - t0;

    t0 = sim.now();
    co_await sim.delay(kComputePerRound);
    out.other += sim.now() - t0;

    t0 = sim.now();
    for (std::uint64_t off = 0; off < config.file_bytes; off += kIoChunkBytes) {
      const std::uint64_t len = std::min(kIoChunkBytes, config.file_bytes - off);
      (void)co_await client.write(file, off, len);
    }
    out.write += sim.now() - t0;
  }
  co_return out;
}

}  // namespace pacon::wl
