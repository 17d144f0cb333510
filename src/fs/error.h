// Error vocabulary shared by every filesystem layer (DFS, IndexFS, Pacon).
#pragma once

#include <string_view>

#include "fs/expected.h"

namespace pacon::fs {

enum class FsError {
  ok = 0,          // never stored in an Expected error slot; for reporting
  not_found,       // ENOENT
  exists,          // EEXIST
  not_a_directory, // ENOTDIR
  is_a_directory,  // EISDIR
  not_empty,       // ENOTEMPTY
  permission,      // EACCES
  io,              // backend or network failure
  no_space,        // cache or device full
  invalid,         // malformed path / argument
  unsupported,     // operation not provided by this layer
};

constexpr std::string_view to_string(FsError e) {
  switch (e) {
    case FsError::ok: return "ok";
    case FsError::not_found: return "not_found";
    case FsError::exists: return "exists";
    case FsError::not_a_directory: return "not_a_directory";
    case FsError::is_a_directory: return "is_a_directory";
    case FsError::not_empty: return "not_empty";
    case FsError::permission: return "permission";
    case FsError::io: return "io";
    case FsError::no_space: return "no_space";
    case FsError::invalid: return "invalid";
    case FsError::unsupported: return "unsupported";
  }
  return "unknown";
}

template <typename T>
using FsResult = Expected<T, FsError>;

/// Shorthand for the ubiquitous error-return.
inline Unexpected<FsError> fail(FsError e) { return Unexpected<FsError>(e); }

}  // namespace pacon::fs
