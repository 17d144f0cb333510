#include "core/consistency_check.h"

#include <algorithm>
#include <optional>

namespace pacon::core {
namespace {

/// One cached entry of the workspace; the DFS walk fills in the `dfs_*`
/// fields when the same path exists there.
struct AuditEntry {
  std::string path;
  bool removed = false;
  bool is_dir = false;
  std::uint64_t size = 0;
  bool on_dfs = false;
  bool dfs_is_dir = false;
  std::uint64_t dfs_size = 0;
};

/// A directory whose listing the walk is part-way through.
struct WalkFrame {
  fs::Path dir;
  std::vector<fs::DirEntry> entries;
  std::size_t next = 0;
};

}  // namespace

sim::Task<ConsistencyReport> check_consistency(ConsistentRegion& region,
                                               dfs::DfsClient& probe) {
  ConsistencyReport report;
  const fs::Path root = region.root();
  const std::string prefix = root.str() + "/";

  // Primary copy: every cached entry under the workspace, across servers,
  // sorted by path. It is taken before the walk, whose DFS round trips let
  // queued commits land in the meantime.
  std::vector<AuditEntry> cached;
  for (const auto node : region.config().nodes) {
    auto& server = region.cache().server_on(node);
    for (auto& key : server.keys_with_prefix(prefix)) {
      const auto resp = server.apply(kv::KvRequest{kv::KvRequest::Op::get, key, {}, 0, 0});
      if (resp.status != kv::KvStatus::ok) continue;
      if (auto meta = decode_meta(resp.value)) {
        cached.push_back(AuditEntry{std::move(key), meta->removed, meta->attr.is_dir(),
                                    meta->attr.size});
      }
    }
  }
  // A key cached on two servers counts once, as seen on the earlier node.
  std::ranges::stable_sort(cached, {}, &AuditEntry::path);
  cached.erase(std::ranges::unique(cached, {}, &AuditEntry::path).begin(), cached.end());

  // Backup copy: a pre-order walk of the DFS subtree. Each directory is
  // listed, then every child is probed, descending into a subdirectory
  // before moving on to the next sibling.
  std::vector<WalkFrame> stack;
  std::optional<fs::Path> to_list = root;
  for (;;) {
    if (to_list) {
      auto entries = co_await probe.readdir(*to_list);
      if (entries) stack.push_back(WalkFrame{std::move(*to_list), std::move(*entries)});
      to_list.reset();
    }
    if (stack.empty()) break;
    WalkFrame& top = stack.back();
    if (top.next == top.entries.size()) {
      stack.pop_back();
      continue;
    }
    const fs::DirEntry& entry = top.entries[top.next++];
    fs::Path child = top.dir.child(entry.name);
    const bool descend = entry.type == fs::FileType::directory;
    auto attr = co_await probe.getattr(child);
    if (!attr) continue;  // raced with a concurrent remove
    const auto it = std::ranges::lower_bound(cached, child.str(), {}, &AuditEntry::path);
    if (it != cached.end() && it->path == child.str()) {
      it->on_dfs = true;
      it->dfs_is_dir = attr->is_dir();
      it->dfs_size = attr->size;
    } else {
      report.dfs_only.push_back(child.str());
    }
    if (descend) to_list = std::move(child);
  }
  std::ranges::sort(report.dfs_only);

  for (const auto& e : cached) {
    if (e.removed) {
      report.marked_removed.push_back(e.path);
      continue;
    }
    if (!e.on_dfs) {
      if (region.has_pending(e.path)) {
        report.in_flight.push_back(e.path);
      } else {
        report.cache_only.push_back(e.path);
      }
      continue;
    }
    const bool type_ok = e.is_dir == e.dfs_is_dir;
    const bool size_ok = e.is_dir || region.has_pending(e.path) || e.size == e.dfs_size;
    if (!type_ok || !size_ok) report.mismatched.push_back(e.path);
  }
  co_return report;
}

}  // namespace pacon::core
