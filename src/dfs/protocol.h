// Wire protocol between DFS clients and the metadata / storage servers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fs/error.h"
#include "fs/types.h"

namespace pacon::dfs {

/// Metadata-server operation codes.
enum class MetaOp : std::uint8_t {
  lookup,    // (parent, name) -> attr
  getattr,   // (ino) -> attr
  create,    // (parent, name, mode, type) -> attr
  unlink,    // (parent, name) -> ok          [files only]
  rmdir,     // (parent, name) -> ok          [empty dirs only]
  readdir,   // (ino) -> entries
  set_size,  // (ino, size) -> attr           [data-path bookkeeping]
};

struct MetaRequest {
  MetaOp op = MetaOp::lookup;
  fs::Ino parent = fs::kInvalidIno;
  fs::Ino ino = fs::kInvalidIno;
  std::string name;
  fs::FileType type = fs::FileType::file;
  fs::FileMode mode{};
  std::uint64_t size = 0;
  fs::Credentials creds{};
};

struct MetaResponse {
  fs::FsError status = fs::FsError::ok;
  fs::InodeAttr attr{};
  std::vector<fs::DirEntry> entries{};
};

/// Storage-server operation codes (chunked file data).
enum class DataOp : std::uint8_t { write, read };

struct DataRequest {
  DataOp op = DataOp::write;
  fs::Ino ino = fs::kInvalidIno;
  std::uint64_t chunk = 0;
  std::uint32_t offset_in_chunk = 0;
  std::uint32_t length = 0;
};

struct DataResponse {
  fs::FsError status = fs::FsError::ok;
  std::uint32_t transferred = 0;
};

}  // namespace pacon::dfs
