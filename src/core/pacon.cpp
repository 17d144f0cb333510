#include "core/pacon.h"

#include <cassert>

#include "obs/trace.h"

namespace pacon::core {

using fs::FsError;
using fs::FsResult;

/// Capacity and lifetime of a client's parent hints (Pacon::parent_hints_).
constexpr std::size_t kParentHintCapacity = 1024;
constexpr sim::SimDuration kParentHintTtl = 100_ms;

ConsistentRegion& RegionRegistry::get_or_create(const RegionConfig& config) {
  // Overlap resolution (paper use case 3): if an existing region encloses
  // the requested workspace (or vice versa the request encloses nothing),
  // the application joins the enclosing region.
  if (ConsistentRegion* enclosing = containing(config.root)) return *enclosing;
  auto [it, inserted] =
      regions_.emplace(config.root, std::make_unique<ConsistentRegion>(sim_, fabric_, dfs_, config));
  (void)inserted;
  return *it->second;
}

ConsistentRegion* RegionRegistry::by_root(const fs::Path& root) {
  auto it = regions_.find(root);
  return it == regions_.end() ? nullptr : it->second.get();
}

ConsistentRegion* RegionRegistry::containing(const fs::Path& path) {
  ConsistentRegion* best = nullptr;
  std::size_t best_depth = 0;
  for (auto& [root, region] : regions_) {
    if (root.is_prefix_of(path) && (best == nullptr || root.depth() >= best_depth)) {
      best = region.get();
      best_depth = root.depth();
    }
  }
  return best;
}

Pacon::Pacon(RegionRegistry& registry, net::NodeId node, const RegionConfig& config)
    : registry_(registry),
      node_(node),
      region_(&registry.get_or_create(config)),
      client_id_(region_->register_client(node)),
      dfs_fallback_(std::make_unique<dfs::DfsClient>(registry.sim(), registry.dfs(), node,
                                                     dfs::DfsClientConfig{.creds = config.creds})),
      parent_hints_(kParentHintCapacity, kParentHintTtl),
      hints_valid_at_(region_->invalidation_epoch()) {
  assert(config.root.valid() && !config.root.is_root());
}

FsResult<ConsistentRegion*> Pacon::region_for(const fs::Path& path, bool mutates) {
  if (region_->contains(path)) return region_;
  for (ConsistentRegion* merged : merged_) {
    if (!merged->contains(path)) continue;
    if (mutates) return fs::fail(FsError::permission);  // merged regions are read-only
    return merged;
  }
  return nullptr;
}

void Pacon::refresh_hints() {
  if (hints_valid_at_ != region_->invalidation_epoch()) {
    parent_hints_.clear();
    hints_valid_at_ = region_->invalidation_epoch();
  }
}

// Every operation opens its root span (whenever a tracer is installed on the
// simulation; every layer below hangs its work off op.id()), asks
// region_for where the path is served, and awaits the region or the DFS
// client. The two awaits stay in separate branches with a result of their
// own: one conditional expression over both, or a helper taking the
// awaited result, grows the frame by a pool class.

sim::Task<FsResult<void>> Pacon::mkdir(const fs::Path& path, fs::FileMode mode) {
  obs::Span op(registry_.sim().tracer(), "pacon.mkdir", obs::kNoSpan, node_.value);
  const FsResult<ConsistentRegion*> region = region_for(path, /*mutates=*/true);
  if (!region) co_return fs::fail(region.error());
  if (*region == nullptr) {
    auto r = co_await dfs_fallback_->mkdir(path, mode, op.id());
    op.finish(r ? "ok" : "error");
    if (!r) co_return fs::fail(r.error());
    co_return FsResult<void>{};
  }
  refresh_hints();
  const bool parent_known =
      parent_hints_.find(path.parent_hash(), registry_.sim().now()) != nullptr;
  auto r = co_await (*region)->mkdir(node_, client_id_, path, mode, parent_known, op.id());
  if (r) {
    parent_hints_.insert(path.hash(), {}, registry_.sim().now());
    parent_hints_.insert(path.parent_hash(), {}, registry_.sim().now());
  }
  op.finish(r ? "ok" : "error");
  co_return r;
}

sim::Task<FsResult<void>> Pacon::create(const fs::Path& path, fs::FileMode mode) {
  obs::Span op(registry_.sim().tracer(), "pacon.create", obs::kNoSpan, node_.value);
  const FsResult<ConsistentRegion*> region = region_for(path, /*mutates=*/true);
  if (!region) co_return fs::fail(region.error());
  if (*region == nullptr) {
    auto r = co_await dfs_fallback_->create(path, mode, op.id());
    op.finish(r ? "ok" : "error");
    if (!r) co_return fs::fail(r.error());
    co_return FsResult<void>{};
  }
  refresh_hints();
  const bool parent_known =
      parent_hints_.find(path.parent_hash(), registry_.sim().now()) != nullptr;
  auto r = co_await (*region)->create(node_, client_id_, path, mode, parent_known, op.id());
  if (r) parent_hints_.insert(path.parent_hash(), {}, registry_.sim().now());
  op.finish(r ? "ok" : "error");
  co_return r;
}

sim::Task<FsResult<fs::InodeAttr>> Pacon::getattr(const fs::Path& path) {
  obs::Span op(registry_.sim().tracer(), "pacon.getattr", obs::kNoSpan, node_.value);
  ConsistentRegion* const region = *region_for(path, /*mutates=*/false);
  if (region == nullptr) {
    auto r = co_await dfs_fallback_->getattr(path, op.id());
    op.finish(r ? "ok" : "error");
    co_return r;
  }
  auto r = co_await region->getattr(node_, path, op.id());
  op.finish(r ? "ok" : "error");
  co_return r;
}

sim::Task<FsResult<void>> Pacon::remove(const fs::Path& path) {
  obs::Span op(registry_.sim().tracer(), "pacon.remove", obs::kNoSpan, node_.value);
  const FsResult<ConsistentRegion*> region = region_for(path, /*mutates=*/true);
  if (!region) co_return fs::fail(region.error());
  if (*region == nullptr) {
    auto r = co_await dfs_fallback_->unlink(path, op.id());
    op.finish(r ? "ok" : "error");
    co_return r;
  }
  auto r = co_await (*region)->remove(node_, client_id_, path, op.id());
  op.finish(r ? "ok" : "error");
  co_return r;
}

sim::Task<FsResult<void>> Pacon::rmdir(const fs::Path& path) {
  obs::Span op(registry_.sim().tracer(), "pacon.rmdir", obs::kNoSpan, node_.value);
  const FsResult<ConsistentRegion*> region = region_for(path, /*mutates=*/true);
  if (!region) co_return fs::fail(region.error());
  if (*region == nullptr) {
    auto r = co_await dfs_fallback_->rmdir(path, op.id());
    op.finish(r ? "ok" : "error");
    co_return r;
  }
  auto r = co_await (*region)->rmdir(node_, path, op.id());
  op.finish(r ? "ok" : "error");
  co_return r;
}

sim::Task<FsResult<std::vector<fs::DirEntry>>> Pacon::readdir(const fs::Path& path) {
  obs::Span op(registry_.sim().tracer(), "pacon.readdir", obs::kNoSpan, node_.value);
  ConsistentRegion* const region = *region_for(path, /*mutates=*/false);
  if (region == nullptr) {
    auto r = co_await dfs_fallback_->readdir(path, op.id());
    op.finish(r ? "ok" : "error");
    co_return r;
  }
  auto r = co_await region->readdir(node_, path, op.id());
  op.finish(r ? "ok" : "error");
  co_return r;
}

sim::Task<FsResult<std::uint64_t>> Pacon::write(const fs::Path& path, std::uint64_t offset,
                                                std::uint64_t length) {
  obs::Span op(registry_.sim().tracer(), "pacon.write", obs::kNoSpan, node_.value);
  const FsResult<ConsistentRegion*> region = region_for(path, /*mutates=*/true);
  if (!region) co_return fs::fail(region.error());
  if (*region == nullptr) {
    auto r = co_await dfs_fallback_->write(path, offset, length, op.id());
    op.finish(r ? "ok" : "error");
    co_return r;
  }
  auto r = co_await (*region)->write(node_, client_id_, path, offset, length, op.id());
  op.finish(r ? "ok" : "error");
  co_return r;
}

sim::Task<FsResult<std::uint64_t>> Pacon::read(const fs::Path& path, std::uint64_t offset,
                                               std::uint64_t length) {
  obs::Span op(registry_.sim().tracer(), "pacon.read", obs::kNoSpan, node_.value);
  ConsistentRegion* const region = *region_for(path, /*mutates=*/false);
  if (region == nullptr) {
    auto r = co_await dfs_fallback_->read(path, offset, length, op.id());
    op.finish(r ? "ok" : "error");
    co_return r;
  }
  auto r = co_await region->read(node_, path, offset, length, op.id());
  op.finish(r ? "ok" : "error");
  co_return r;
}

sim::Task<FsResult<void>> Pacon::fsync(const fs::Path& path) {
  obs::Span op(registry_.sim().tracer(), "pacon.fsync", obs::kNoSpan, node_.value);
  const FsResult<ConsistentRegion*> region = region_for(path, /*mutates=*/true);
  if (!region) co_return fs::fail(region.error());
  if (*region == nullptr) {
    auto r = co_await dfs_fallback_->fsync(path, op.id());
    op.finish(r ? "ok" : "error");
    co_return r;
  }
  auto r = co_await (*region)->fsync(node_, path, op.id());
  op.finish(r ? "ok" : "error");
  co_return r;
}

sim::Task<FsResult<void>> Pacon::merge_region(const fs::Path& other_root) {
  ConsistentRegion* other = registry_.by_root(other_root);
  if (!other) co_return fs::fail(FsError::not_found);
  if (other == region_) co_return FsResult<void>{};
  // Step 1 of the merge: fetch the region's basic information; step 2:
  // connect to its distributed cache. One round trip to its first node.
  co_await registry_.sim().delay(
      2 * registry_.fabric().one_way(node_, other->config().nodes.front(), 512));
  if (std::find(merged_.begin(), merged_.end(), other) == merged_.end()) {
    merged_.push_back(other);
  }
  co_return FsResult<void>{};
}

sim::Task<FsResult<std::uint64_t>> Pacon::checkpoint() {
  return region_->checkpoint();
}

sim::Task<FsResult<void>> Pacon::restore(std::uint64_t id) {
  return region_->restore(id);
}

sim::Task<FsResult<void>> Pacon::recover_node_failure(net::NodeId failed) {
  return region_->recover_from_node_failure(failed);
}

sim::Task<> Pacon::drain() { return region_->drain(); }

}  // namespace pacon::core
