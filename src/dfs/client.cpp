#include "dfs/client.h"

#include <algorithm>

#include "obs/trace.h"
#include "sim/combinators.h"

namespace pacon::dfs {

using fs::FsError;
using fs::FsResult;

namespace {

/// Bytes a read or write moved: the sum over its chunk responses, or the
/// first chunk's failure.
FsResult<std::uint64_t> transferred(const std::vector<DataResponse>& responses) {
  std::uint64_t bytes = 0;
  for (const auto& r : responses) {
    if (r.status != FsError::ok) return fs::fail(r.status);
    bytes += r.transferred;
  }
  return bytes;
}

}  // namespace

DfsClient::DfsClient(sim::Simulation& sim, DfsCluster& cluster, net::NodeId node,
                     DfsClientConfig config)
    : sim_(sim),
      cluster_(cluster),
      node_(node),
      config_(config),
      dentries_(config.dentry_cache_capacity, config.dentry_ttl) {}

sim::Task<MetaResponse> DfsClient::meta_call(MetaRequest req, obs::SpanId span) {
  ++meta_rpcs_;
  if (req.op == MetaOp::lookup) ++lookup_rpcs_;
  auto resp = co_await cluster_.mds().call(node_, std::move(req), span);
  if (!resp) co_return MetaResponse{.status = FsError::io};
  co_return std::move(*resp);
}

sim::Task<DataResponse> DfsClient::data_call(DataRequest req, obs::SpanId span) {
  ++data_rpcs_;
  StorageServer& server = cluster_.storage_for_chunk(req.chunk);
  auto resp = co_await server.call(node_, std::move(req), span);
  if (!resp) co_return DataResponse{.status = FsError::io};
  co_return std::move(*resp);
}

sim::Task<FsResult<fs::InodeAttr>> DfsClient::resolve(const fs::Path& path, bool fresh_leaf,
                                                      obs::SpanId span) {
  fs::InodeAttr current;
  current.ino = fs::kRootIno;
  current.type = fs::FileType::directory;
  current.mode = fs::FileMode::dir_default();
  if (path.is_root()) co_return current;

  // Find the deepest cached ancestor, then walk the rest over the wire.
  // When the caller needs fresh leaf attributes the leaf itself is excluded
  // from cache hits (a cached entry may carry stale size/mtime).
  const auto comps = path.components();
  std::size_t start = 0;
  {
    fs::Path probe = fresh_leaf ? path.parent() : path;
    std::size_t remaining = fresh_leaf ? comps.size() - 1 : comps.size();
    while (!probe.is_root()) {
      if (const Dentry* hit = dentries_.find(probe, sim_.now())) {
        current = fs::InodeAttr{.ino = hit->ino, .type = hit->type};
        start = remaining;
        break;
      }
      probe = probe.parent();
      --remaining;
    }
  }

  fs::Path walked;  // rebuilt prefix for cache keys
  for (std::size_t i = 0; i < start; ++i) walked = walked.child(comps[i]);
  for (std::size_t i = start; i < comps.size(); ++i) {
    if (!current.is_dir()) co_return fs::fail(FsError::not_a_directory);
    MetaRequest req;
    req.op = MetaOp::lookup;
    req.parent = current.ino;
    req.name = std::string(comps[i]);
    req.creds = config_.creds;
    const MetaResponse resp = co_await meta_call(std::move(req), span);
    if (resp.status != FsError::ok) co_return fs::fail(resp.status);
    current = resp.attr;
    walked = walked.child(comps[i]);
    dentries_.insert(walked, dentry_of(current), sim_.now());
  }
  co_return current;
}

sim::Task<FsResult<fs::InodeAttr>> DfsClient::resolve_dir(const fs::Path& path,
                                                          obs::SpanId span) {
  auto attr = co_await resolve(path, /*fresh_leaf=*/false, span);
  if (!attr) co_return attr;
  if (!attr->is_dir()) co_return fs::fail(FsError::not_a_directory);
  co_return attr;
}

// lint-allow: coro-param-ref plain function: copies the path into make_entry before returning
sim::Task<FsResult<fs::InodeAttr>> DfsClient::mkdir(const fs::Path& path, fs::FileMode mode,
                                                    obs::SpanId span) {
  return make_entry(path, fs::FileType::directory, mode, span);
}

// lint-allow: coro-param-ref plain function: copies the path into make_entry before returning
sim::Task<FsResult<fs::InodeAttr>> DfsClient::create(const fs::Path& path, fs::FileMode mode,
                                                     obs::SpanId span) {
  return make_entry(path, fs::FileType::file, mode, span);
}

sim::Task<FsResult<fs::InodeAttr>> DfsClient::make_entry(fs::Path path, fs::FileType type,
                                                         fs::FileMode mode, obs::SpanId span) {
  if (!path.valid() || path.is_root()) co_return fs::fail(FsError::invalid);
  obs::Span op(span != obs::kNoSpan ? sim_.tracer() : nullptr,
               type == fs::FileType::directory ? "dfs.mkdir" : "dfs.create", span, node_.value);
  auto parent = co_await resolve_dir(path.parent(), op.id());
  if (!parent) co_return fs::fail(parent.error());
  MetaRequest req;
  req.op = MetaOp::create;
  req.parent = parent->ino;
  req.name = std::string(path.name());
  req.type = type;
  req.mode = mode;
  req.creds = config_.creds;
  const MetaResponse resp = co_await meta_call(std::move(req), op.id());
  if (resp.status != FsError::ok) co_return fs::fail(resp.status);
  dentries_.insert(path, dentry_of(resp.attr), sim_.now());
  op.finish("ok");
  co_return resp.attr;
}

sim::Task<FsResult<fs::InodeAttr>> DfsClient::getattr(const fs::Path& path, obs::SpanId span) {
  if (!path.valid()) co_return fs::fail(FsError::invalid);
  obs::Span op(span != obs::kNoSpan ? sim_.tracer() : nullptr, "dfs.getattr", span, node_.value);
  co_return co_await resolve(path, /*fresh_leaf=*/true, op.id());
}

// lint-allow: coro-param-ref plain function: copies the path into remove_entry before returning
sim::Task<FsResult<void>> DfsClient::unlink(const fs::Path& path, obs::SpanId span) {
  return remove_entry(path, MetaOp::unlink, span);
}

// lint-allow: coro-param-ref plain function: copies the path into remove_entry before returning
sim::Task<FsResult<void>> DfsClient::rmdir(const fs::Path& path, obs::SpanId span) {
  return remove_entry(path, MetaOp::rmdir, span);
}

sim::Task<FsResult<void>> DfsClient::remove_entry(fs::Path path, MetaOp op_kind,
                                                  obs::SpanId span) {
  if (!path.valid() || path.is_root()) co_return fs::fail(FsError::invalid);
  obs::Span op(span != obs::kNoSpan ? sim_.tracer() : nullptr,
               op_kind == MetaOp::rmdir ? "dfs.rmdir" : "dfs.unlink", span, node_.value);
  auto parent = co_await resolve_dir(path.parent(), op.id());
  if (!parent) co_return fs::fail(parent.error());
  MetaRequest req;
  req.op = op_kind;
  req.parent = parent->ino;
  req.name = std::string(path.name());
  req.creds = config_.creds;
  const MetaResponse resp = co_await meta_call(std::move(req), op.id());
  if (resp.status != FsError::ok) co_return fs::fail(resp.status);
  dentries_.erase(path);
  op.finish("ok");
  co_return FsResult<void>{};
}

sim::Task<FsResult<std::vector<fs::DirEntry>>> DfsClient::readdir(const fs::Path& path,
                                                                  obs::SpanId span) {
  obs::Span op(span != obs::kNoSpan ? sim_.tracer() : nullptr, "dfs.readdir", span, node_.value);
  auto dir = co_await resolve_dir(path, op.id());
  if (!dir) co_return fs::fail(dir.error());
  MetaRequest req;
  req.op = MetaOp::readdir;
  req.ino = dir->ino;
  req.creds = config_.creds;
  MetaResponse resp = co_await meta_call(std::move(req), op.id());
  if (resp.status != FsError::ok) co_return fs::fail(resp.status);
  op.finish("ok");
  co_return std::move(resp.entries);
}

std::vector<sim::Task<DataResponse>> DfsClient::chunk_calls(DataOp kind, fs::Ino ino,
                                                            std::uint64_t offset,
                                                            std::uint64_t length,
                                                            obs::SpanId span) {
  std::vector<sim::Task<DataResponse>> calls;
  std::uint64_t pos = offset;
  const std::uint64_t end = offset + length;
  while (pos < end) {
    const std::uint64_t chunk = pos / kChunkBytes;
    const std::uint64_t in_chunk = pos % kChunkBytes;
    const std::uint64_t take = std::min(end - pos, kChunkBytes - in_chunk);
    DataRequest req;
    req.op = kind;
    req.ino = ino;
    req.chunk = chunk;
    req.offset_in_chunk = static_cast<std::uint32_t>(in_chunk);
    req.length = static_cast<std::uint32_t>(take);
    calls.push_back(data_call(std::move(req), span));
    pos += take;
  }
  return calls;
}

sim::Task<FsResult<std::uint64_t>> DfsClient::write(const fs::Path& path, std::uint64_t offset,
                                                    std::uint64_t length, obs::SpanId span) {
  obs::Span op(span != obs::kNoSpan ? sim_.tracer() : nullptr, "dfs.write", span, node_.value);
  auto attr = co_await resolve(path, /*fresh_leaf=*/false, op.id());
  if (!attr) co_return fs::fail(attr.error());
  if (attr->is_dir()) co_return fs::fail(FsError::is_a_directory);
  const auto written = transferred(co_await sim::when_all_values(
      sim_, chunk_calls(DataOp::write, attr->ino, offset, length, op.id())));
  if (!written) co_return written;
  // Size propagation to the MDS (the real client piggybacks this on close).
  MetaRequest size_req;
  size_req.op = MetaOp::set_size;
  size_req.ino = attr->ino;
  size_req.size = offset + length;
  size_req.creds = config_.creds;
  const MetaResponse size_resp = co_await meta_call(std::move(size_req), op.id());
  if (size_resp.status != FsError::ok) co_return fs::fail(size_resp.status);
  dentries_.insert(path, dentry_of(size_resp.attr), sim_.now());
  op.finish("ok");
  co_return written;
}

sim::Task<FsResult<std::uint64_t>> DfsClient::read(const fs::Path& path, std::uint64_t offset,
                                                   std::uint64_t length, obs::SpanId span) {
  obs::Span op(span != obs::kNoSpan ? sim_.tracer() : nullptr, "dfs.read", span, node_.value);
  auto attr = co_await resolve(path, /*fresh_leaf=*/false, op.id());
  if (!attr) co_return fs::fail(attr.error());
  if (attr->is_dir()) co_return fs::fail(FsError::is_a_directory);
  const auto bytes = transferred(co_await sim::when_all_values(
      sim_, chunk_calls(DataOp::read, attr->ino, offset, length, op.id())));
  if (!bytes || *bytes == length) {
    if (bytes) op.finish("ok");
    co_return bytes;
  }
  // Short: the range crosses end of file or a hole (a never-written range,
  // which reads as zeros). The file size tells the two apart.
  const auto size = co_await size_of(attr->ino, op.id());
  if (!size) co_return size;
  op.finish("ok");
  co_return offset >= *size ? 0 : std::min(length, *size - offset);
}

sim::Task<FsResult<std::uint64_t>> DfsClient::size_of(fs::Ino ino, obs::SpanId span) {
  MetaRequest req;
  req.op = MetaOp::getattr;
  req.ino = ino;
  req.creds = config_.creds;
  const MetaResponse resp = co_await meta_call(std::move(req), span);
  if (resp.status != FsError::ok) co_return fs::fail(resp.status);
  co_return resp.attr.size;
}

sim::Task<FsResult<void>> DfsClient::fsync(const fs::Path& path, obs::SpanId span) {
  obs::Span op(span != obs::kNoSpan ? sim_.tracer() : nullptr, "dfs.fsync", span, node_.value);
  auto attr = co_await resolve(path, /*fresh_leaf=*/false, op.id());
  if (!attr) co_return fs::fail(attr.error());
  const auto size = co_await size_of(attr->ino, op.id());
  if (!size) co_return fs::fail(size.error());
  op.finish("ok");
  co_return FsResult<void>{};
}

}  // namespace pacon::dfs
