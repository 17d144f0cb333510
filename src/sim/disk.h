// Storage-device model.
//
// A SimDisk charges virtual time for reads and writes: fixed access latency
// plus a size-proportional transfer term, with a bounded number of in-flight
// operations (queue depth). Saturated devices therefore queue, which is the
// effect that caps metadata-server throughput in the experiments.
#pragma once

#include <cstddef>

#include "sim/simulation.h"
#include "sim/sync.h"
#include "sim/time.h"

namespace pacon::sim {

struct DiskConfig {
  /// Fixed per-operation access latency.
  SimDuration read_latency = 80_us;
  SimDuration write_latency = 25_us;
  /// Sustained transfer bandwidth, bytes per second.
  double read_bw_bytes_per_sec = 2.0e9;
  double write_bw_bytes_per_sec = 1.2e9;
  /// Device-internal parallelism.
  std::size_t queue_depth = 8;

  /// Defaults modelled on a datacenter NVMe SSD (the paper's MDS used an
  /// Intel P3600 PCIe NVMe drive).
  static DiskConfig nvme() { return DiskConfig{}; }
};

class SimDisk {
 public:
  SimDisk(Simulation& sim, DiskConfig config)
      : sim_(sim), config_(config), slots_(sim, config.queue_depth) {}
  SimDisk(const SimDisk&) = delete;
  SimDisk& operator=(const SimDisk&) = delete;

  Task<> read(std::size_t bytes) {
    return access(config_.read_latency, config_.read_bw_bytes_per_sec, bytes, reads_);
  }
  Task<> write(std::size_t bytes) {
    return access(config_.write_latency, config_.write_bw_bytes_per_sec, bytes, writes_);
  }

  std::uint64_t reads() const { return reads_; }
  std::uint64_t writes() const { return writes_; }

 private:
  Task<> access(SimDuration latency, double bw, std::size_t bytes, std::uint64_t& counter) {
    co_await slots_.acquire();
    const auto transfer =
        static_cast<SimDuration>(static_cast<double>(bytes) / bw * 1e9);
    co_await sim_.delay(latency + transfer);
    slots_.release();
    ++counter;
  }

  Simulation& sim_;
  DiskConfig config_;
  Semaphore slots_;
  std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
};

}  // namespace pacon::sim
