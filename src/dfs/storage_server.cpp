#include "dfs/storage_server.h"

#include <algorithm>

namespace pacon::dfs {

namespace {

/// CPU service time per chunk access, before the disk transfer.
constexpr sim::SimDuration kOpCpuTime = 15_us;
/// RPC worker pool (storage daemon threads) and its accept queue.
constexpr std::size_t kWorkers = 16;
constexpr std::size_t kQueueCapacity = 4096;

}  // namespace

StorageServer::StorageServer(sim::Simulation& sim, net::Fabric& fabric, net::NodeId node,
                             sim::SimDisk& disk)
    : sim_(sim), node_(node), disk_(disk) {
  net::RpcService<DataRequest, DataResponse>::Config rpc_cfg;
  rpc_cfg.workers = kWorkers;
  rpc_cfg.queue_capacity = kQueueCapacity;
  // Data messages carry their payload on the wire.
  rpc_cfg.request_bytes = 4096;
  rpc_cfg.response_bytes = 4096;
  rpc_ = std::make_unique<net::RpcService<DataRequest, DataResponse>>(
      sim, fabric, node, [this](DataRequest req) { return handle(std::move(req)); }, rpc_cfg);
}

sim::Task<DataResponse> StorageServer::handle(DataRequest req) {
  co_await sim_.delay(kOpCpuTime);
  DataResponse resp;
  const auto key = std::make_pair(req.ino, req.chunk);
  if (req.op == DataOp::write) {
    co_await disk_.write(req.length);
    auto& filled = chunks_[key];
    filled = std::max(filled, req.offset_in_chunk + req.length);
    bytes_written_ += req.length;
    resp.transferred = req.length;
    co_return resp;
  }
  // A read crossing the chunk's filled bytes is short, and one past them
  // moves nothing, as at end of file; the disk moves only what is returned.
  const auto it = chunks_.find(key);
  const std::uint32_t filled = it == chunks_.end() ? 0 : it->second;
  const std::uint32_t held =
      filled > req.offset_in_chunk ? std::min(req.length, filled - req.offset_in_chunk) : 0;
  if (held > 0) co_await disk_.read(held);
  bytes_read_ += held;
  resp.transferred = held;
  co_return resp;
}

}  // namespace pacon::dfs
