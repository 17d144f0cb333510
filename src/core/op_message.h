// Messages flowing through the Pacon commit queue (paper Fig. 5/6).
#pragma once

#include <cstdint>
#include <string>

#include "fs/types.h"
#include "obs/span_id.h"
#include "sim/time.h"

namespace pacon::core {

struct OpMessage {
  enum class Kind : std::uint8_t {
    mkdir,       // non-dependent: independent commit
    create,      // non-dependent: independent commit (may carry inline size)
    remove,      // non-dependent: independent commit
    write_data,  // small-file backup-copy update
    barrier,     // epoch boundary marker (one per client per barrier)
  };

  Kind kind = Kind::create;
  std::string path;
  /// sim::Rng::hash(path), copied from the publisher's fs::Path::hash() when
  /// the message is built: the commit side's pending-map lookups and WAL
  /// redelivery reuse it instead of rehashing the spelling.
  std::uint64_t path_hash = 0;
  fs::FileMode mode{};
  fs::Credentials creds{};
  /// write_data: bytes to push to the DFS; create: inline payload size.
  std::uint64_t size = 0;
  /// Barrier epoch this message belongs to (paper Section III.E.2).
  std::uint64_t epoch = 0;
  /// Region-wide client id of the publisher.
  std::uint32_t client_id = 0;
  sim::SimTime timestamp = 0;
  /// Region-unique id assigned at publish time (0 = never published). Keys
  /// the determinism trace so same-seed runs can be compared op-by-op.
  std::uint64_t op_id = 0;
  /// Tracing context: the commit span opened when this op was published
  /// (0 = untraced run). Riding in the message is what carries causality
  /// across the commit-queue hop -- and, because the WAL stores whole messages,
  /// across commit-process crashes into redelivery.
  obs::SpanId span = obs::kNoSpan;
};

constexpr const char* to_string(OpMessage::Kind kind) {
  switch (kind) {
    case OpMessage::Kind::mkdir:
      return "mkdir";
    case OpMessage::Kind::create:
      return "create";
    case OpMessage::Kind::remove:
      return "remove";
    case OpMessage::Kind::write_data:
      return "write_data";
    case OpMessage::Kind::barrier:
      return "barrier";
  }
  return "unknown";
}

constexpr bool is_barrier(const OpMessage& m) { return m.kind == OpMessage::Kind::barrier; }

}  // namespace pacon::core
