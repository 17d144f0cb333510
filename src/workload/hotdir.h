// Zipfian hot-directory workload generator (MIDAS-style hotspot skew).
//
// HPC and deep-learning ingest traffic concentrates metadata operations on
// a few hot directories (MIDAS models exactly this adaptive-proxy case;
// FalconFS's DL pipelines show the same shape): a handful of directories
// take most of the traffic while a long tail stays cold. This generator
// draws (directory, file) targets from two independent zipf streams --
// a sharply skewed directory rank and a milder in-directory file rank --
// over a fixed namespace under one workspace root.
//
// Paths are interned into a shared fs::PathInterner on first draw, so a
// million clients drawing billions of ops share one arena of spellings and
// pass 4-byte handles around; resolve() hands back the cached-hash Path
// the MetaClient facade wants. Draw streams are deterministic: every
// client forks its own rng stream, and the generator itself holds no rng.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "fs/interner.h"
#include "fs/path.h"
#include "sim/random.h"

namespace pacon::wl {

struct HotDirConfig {
  /// Distinct directories under the workspace root.
  std::size_t directories = 64;
  /// Namespace width per directory.
  std::size_t files_per_dir = 1024;
  /// Zipf skew of the directory draw; 0.99 concentrates hard on rank 0.
  double dir_theta = 0.99;
};

class HotDirWorkload {
 public:
  /// Pre-interns the `cfg.directories` directory paths under `root`; file
  /// paths are interned lazily on first draw.
  HotDirWorkload(fs::PathInterner& interner, const fs::Path& root, HotDirConfig cfg);

  const fs::Path& root() const { return root_; }
  std::size_t directory_count() const { return dirs_.size(); }

  /// Directory handle by rank (0 = hottest).
  fs::InternedPath directory(std::size_t rank) const { return dirs_[rank]; }

  /// Draws the next target: a file in a zipf-chosen directory. The same
  /// rng stream always yields the same sequence of handles.
  fs::InternedPath next_file(sim::Rng& rng);

  /// Directory rank of the last next_file() draw (rank 0 = hottest).
  std::size_t last_dir_rank() const { return last_dir_; }

  /// The full path behind a handle (cached hash/depth ride along).
  const fs::Path& resolve(fs::InternedPath h) const { return interner_.resolve(h); }

  /// Draws per directory rank so far (skew verification / balance reports).
  const std::vector<std::uint64_t>& dir_draws() const { return dir_draws_; }

 private:
  fs::PathInterner& interner_;
  fs::Path root_;
  HotDirConfig cfg_;
  sim::ZipfGenerator dir_zipf_;
  sim::ZipfGenerator file_zipf_;
  std::vector<fs::InternedPath> dirs_;
  /// Dir-major file handles, lazily interned (invalid until first drawn).
  std::vector<fs::InternedPath> files_;
  std::vector<std::uint64_t> dir_draws_;
  std::size_t last_dir_ = 0;
};

}  // namespace pacon::wl
