// Chunk storage server of the BeeGFS-like DFS.
//
// Holds striped file chunks. Data contents are not materialized (no
// experiment reads payloads back); what matters for the evaluation is the
// time: every access pays CPU service plus a disk transfer on the server's
// own device. Chunk fill levels are tracked so a read past a chunk's filled
// bytes is short; the client tells a hole from end of file by the file size.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <utility>

#include "dfs/protocol.h"
#include "net/fabric.h"
#include "net/rpc.h"
#include "sim/disk.h"
#include "sim/simulation.h"

namespace pacon::dfs {

using namespace sim::literals;

class StorageServer {
 public:
  StorageServer(sim::Simulation& sim, net::Fabric& fabric, net::NodeId node, sim::SimDisk& disk);
  StorageServer(const StorageServer&) = delete;
  StorageServer& operator=(const StorageServer&) = delete;

  net::NodeId node() const { return node_; }

  sim::Task<net::RpcResult<DataResponse>> call(net::NodeId from, DataRequest req,
                                               obs::SpanId parent = obs::kNoSpan) {
    return rpc_->call(from, std::move(req), parent);
  }

  std::uint64_t chunks_stored() const { return chunks_.size(); }
  std::uint64_t bytes_written() const { return bytes_written_; }
  std::uint64_t bytes_read() const { return bytes_read_; }

 private:
  sim::Task<DataResponse> handle(DataRequest req);

  sim::Simulation& sim_;
  net::NodeId node_;
  sim::SimDisk& disk_;
  std::map<std::pair<fs::Ino, std::uint64_t>, std::uint32_t> chunks_;  // -> filled bytes
  std::uint64_t bytes_written_ = 0;
  std::uint64_t bytes_read_ = 0;
  std::unique_ptr<net::RpcService<DataRequest, DataResponse>> rpc_;
};

}  // namespace pacon::dfs
