// Mega scalability: a million simulated clients through the event kernel.
//
// Drives harness::run_mega at full scale -- >= 10^6 client processes,
// wave-spawned, zipf hot-directory load (workload/hotdir), every path
// spelling shared through one fs::PathInterner arena -- and reports how the
// engine holds up: host events/second, wall seconds, arena footprint and the
// process's peak resident memory.
// Tracked across PRs in BENCH_kernel.json as the mega_*
// keys (scripts/perfbench.sh --mega leg).
//
// Usage: mega_scalability [--clients N] [--nodes N] [--wave N] [--json FILE]
#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "harness/mega_scenario.h"
#include "harness/run_report.h"

int main(int argc, char** argv) {
  using namespace pacon;

  harness::MegaConfig cfg;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--clients") && i + 1 < argc) {
      cfg.clients = std::strtoull(argv[++i], nullptr, 10);
    } else if (!std::strcmp(argv[i], "--nodes") && i + 1 < argc) {
      cfg.nodes = std::strtoull(argv[++i], nullptr, 10);
    } else if (!std::strcmp(argv[i], "--wave") && i + 1 < argc) {
      cfg.wave = std::strtoull(argv[++i], nullptr, 10);
    } else if (!std::strcmp(argv[i], "--json") && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::cerr << "usage: mega_scalability [--clients N] [--nodes N] [--wave N] "
                   "[--json FILE]\n";
      return 2;
    }
  }
  if (cfg.clients == 0 || cfg.nodes == 0 || cfg.wave == 0) {
    std::cerr << "mega_scalability: counts must be positive\n";
    return 2;
  }

  harness::enable_run_report("mega_scalability");
  harness::enable_timeline("mega_scalability");

  const auto t0 = std::chrono::steady_clock::now();
  const harness::MegaResult r = harness::run_mega(cfg);
  const double wall = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  const double events_per_sec = wall > 0 ? static_cast<double>(r.events) / wall : 0;
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
  std::cout << "mega_scalability: " << r.clients_completed << " clients on " << cfg.nodes
            << " nodes\n"
            << "  ops ok/failed      = " << r.ops_ok << " / " << r.ops_failed << "\n"
            << "  events             = " << r.events << " (" << static_cast<std::uint64_t>(
                   events_per_sec) << "/s host)\n"
            << "  wall seconds       = " << wall << "\n"
            << "  peak rss MiB       = " << peak_rss_mb << "\n"
            << "  virtual seconds    = " << r.virtual_seconds << "\n"
            << "  interned paths     = " << r.interned_paths << " (" << r.interner_bytes
            << " bytes arena; region pending after drain " << r.region_pending_paths << ")\n"
            << "  reaped roots       = " << r.reaped_roots << "\n";

  if (r.clients_completed != cfg.clients || r.ops_failed != 0) {
    std::cerr << "mega_scalability: FAILED (incomplete clients or failed ops)\n";
    return 1;
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n"
        << "  \"mega_clients\": " << r.clients_completed << ",\n"
        << "  \"mega_events\": " << r.events << ",\n"
        << "  \"mega_events_per_sec\": " << static_cast<std::uint64_t>(events_per_sec) << ",\n"
        << "  \"mega_wall_seconds\": " << wall << ",\n"
        << "  \"mega_interned_paths\": " << r.interned_paths << ",\n"
        << "  \"mega_interner_bytes\": " << r.interner_bytes << ",\n"
        << "  \"mega_peak_rss_mb\": " << peak_rss_mb << "\n"
        << "}\n";
    if (!out) {
      std::cerr << "mega_scalability: failed to write " << json_path << "\n";
      return 1;
    }
  }
  return 0;
}
