#include "workload/kvload.h"

#include <string>

namespace pacon::wl {

namespace {

/// Keys are this prefix plus the op index; every value is this many bytes.
constexpr const char* kKeyPrefix = "/kv/item";
constexpr std::uint64_t kValueBytes = 128;

}  // namespace

sim::Task<std::uint64_t> kv_insert_load(kv::MemCacheCluster& cluster, net::NodeId node,
                                        const KvLoadConfig& config) {
  std::uint64_t ok = 0;
  const std::string value(kValueBytes, 'v');
  for (int i = 0; i < config.ops; ++i) {
    const auto r = co_await cluster.set(node, kKeyPrefix + std::to_string(i), value);
    if (r.status == kv::KvStatus::ok) ++ok;
  }
  co_return ok;
}

}  // namespace pacon::wl
