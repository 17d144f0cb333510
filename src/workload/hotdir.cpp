#include "workload/hotdir.h"

#include <cassert>
#include <string>

namespace pacon::wl {

namespace {

/// Zipf skew of the file draw inside the chosen directory, milder than the
/// directory draw's.
constexpr double kFileTheta = 0.4;

}  // namespace

HotDirWorkload::HotDirWorkload(fs::PathInterner& interner, const fs::Path& root,
                               HotDirConfig cfg)
    : interner_(interner),
      root_(root),
      cfg_(cfg),
      dir_zipf_(cfg.directories, cfg.dir_theta),
      file_zipf_(cfg.files_per_dir, kFileTheta) {
  assert(root_.valid());
  assert(cfg_.directories > 0 && cfg_.files_per_dir > 0);
  dirs_.reserve(cfg_.directories);
  for (std::size_t k = 0; k < cfg_.directories; ++k) {
    dirs_.push_back(interner_.intern(root_.child("d" + std::to_string(k))));
  }
  // Lazily filled: a million-client run touches a zipf-shaped subset of the
  // namespace, so only drawn files ever pay the intern cost.
  files_.resize(cfg_.directories * cfg_.files_per_dir);
  dir_draws_.assign(cfg_.directories, 0);
}

fs::InternedPath HotDirWorkload::next_file(sim::Rng& rng) {
  const std::size_t dir = dir_zipf_.next(rng);
  const std::size_t file = file_zipf_.next(rng);
  last_dir_ = dir;
  ++dir_draws_[dir];
  fs::InternedPath& slot = files_[dir * cfg_.files_per_dir + file];
  if (!slot.valid()) {
    slot = interner_.intern(
        interner_.resolve(dirs_[dir]).child("f" + std::to_string(file)));
  }
  return slot;
}

}  // namespace pacon::wl
