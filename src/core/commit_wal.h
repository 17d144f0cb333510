// Node-local durable commit log: at-least-once redelivery across
// commit-process crashes.
//
// The sorter half of a commit process appends every operation it takes off
// the node's commit queue *before* forwarding it to the committer; the
// committer (or retry worker) acknowledges an op once the DFS accepted it.
// If the commit process dies, everything between append and ack is replayed
// on restart -- the op may reach the DFS twice, which is why commit
// application must stay idempotent (op ids + EEXIST-tolerant replay).
//
// Durability cost is modelled with group commit: appends and acks accumulate
// dirty bytes that a background flusher writes to the node-local disk once
// per flush period, the way a real WAL batches fsyncs. The in-memory deque
// is the log's contents; acknowledged prefixes are compacted away.
//
// The log is the only owner of a queued op's message. Everything downstream
// of the sorter -- the ordered stream, the retry queue, the redelivery pass
// -- passes a CommitTicket naming the record by its sequence number and
// copies the message out only for the apply it is running, so a backlog of
// N ops holds N messages, not one per stage.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "core/op_message.h"
#include "sim/disk.h"
#include "sim/metrics.h"
#include "sim/simulation.h"
#include "sim/time.h"

namespace pacon::core {

/// One entry of a node's ordered stream or retry queue: a WAL record's
/// sequence number, or a barrier sentinel (which is never logged).
struct CommitTicket {
  std::uint64_t seq = 0;  // unused for barriers
  std::uint64_t epoch = 0;
  bool barrier = false;
};

class CommitWal {
 public:
  CommitWal(sim::Simulation& sim, sim::SimDisk& disk, sim::SimDuration flush_period)
      : sim_(sim), disk_(disk), flush_period_(flush_period) {}
  CommitWal(const CommitWal&) = delete;
  CommitWal& operator=(const CommitWal&) = delete;

  /// Records `msg` before it is handed to the committer and returns its
  /// sequence number. Barrier sentinels are never logged: an aborted barrier
  /// is replayed by the dependent operation itself, not from the log.
  std::uint64_t append(OpMessage msg) {
    dirty_bytes_ += kRecordOverhead + msg.path.size();
    log_.push_back(Record{std::move(msg), false});
    ++appends_;
    note_backlog();
    return first_seq_ + log_.size() - 1;
  }

  /// The DFS applied record `seq`; it will not be redelivered. Acking an
  /// already-acked record still costs its log write but changes nothing.
  void ack(std::uint64_t seq) {
    dirty_bytes_ += kAckBytes;
    ++acks_;
    if (!acked(seq)) {
      log_[seq - first_seq_].acked = true;
      ++acked_in_log_;
      compact();
    }
    note_backlog();
  }

  /// True once record `seq` was acknowledged, including after compaction
  /// dropped it.
  bool acked(std::uint64_t seq) const {
    return seq < first_seq_ || log_[seq - first_seq_].acked;
  }

  /// Record `seq`'s message, or nullptr once it was acked and compacted
  /// away. The pointer lives until the record is compacted: copy the
  /// message before suspending.
  const OpMessage* find(std::uint64_t seq) const {
    return seq < first_seq_ ? nullptr : &log_[seq - first_seq_].msg;
  }

  /// Sequence numbers of the appended-but-unacknowledged records in append
  /// order -- the redelivery set a restarted commit process replays first.
  std::vector<std::uint64_t> unacked() const {
    std::vector<std::uint64_t> out;
    out.reserve(backlog());
    for (std::size_t i = 0; i < log_.size(); ++i) {
      if (!log_[i].acked) out.push_back(first_seq_ + i);
    }
    return out;
  }

  std::size_t backlog() const { return log_.size() - acked_in_log_; }

  /// Optional metrics hook: the WAL cannot name a registry metric itself
  /// (it does not know which region/node it belongs to), so the owner
  /// resolves a gauge and hands it in. Tracks the unacked backlog.
  void set_backlog_gauge(sim::Gauge* g) {
    backlog_gauge_ = g;
    note_backlog();
  }
  std::uint64_t appends() const { return appends_; }
  std::uint64_t acks() const { return acks_; }
  std::uint64_t flushes() const { return flushes_; }

  /// Stops the flusher at its next tick (region teardown).
  void stop() { stopped_ = true; }

  /// Group-commit flusher; spawn once per WAL. Runs until stop().
  sim::Task<> flusher_loop() {
    for (;;) {
      co_await sim_.delay(flush_period_);
      if (stopped_) co_return;
      if (dirty_bytes_ == 0) continue;
      const std::uint64_t batch = dirty_bytes_;
      dirty_bytes_ = 0;
      co_await disk_.write(batch);
      ++flushes_;
    }
  }

 private:
  /// Serialized record framing: op id, kind, epoch, mode, timestamps.
  static constexpr std::uint64_t kRecordOverhead = 48;
  static constexpr std::uint64_t kAckBytes = 16;

  struct Record {
    OpMessage msg;
    bool acked;
  };

  /// Drops the fully-acknowledged log prefix.
  void compact() {
    while (!log_.empty() && log_.front().acked) {
      log_.pop_front();
      ++first_seq_;
      --acked_in_log_;
    }
  }

  void note_backlog() {
    if (backlog_gauge_ != nullptr) backlog_gauge_->set(static_cast<std::int64_t>(backlog()));
  }

  sim::Simulation& sim_;
  sim::SimDisk& disk_;
  sim::SimDuration flush_period_;
  std::deque<Record> log_;
  /// Sequence number of log_.front(); sequence numbers start at 0.
  std::uint64_t first_seq_ = 0;
  std::size_t acked_in_log_ = 0;
  std::uint64_t dirty_bytes_ = 0;
  std::uint64_t appends_ = 0;
  std::uint64_t acks_ = 0;
  std::uint64_t flushes_ = 0;
  bool stopped_ = false;
  sim::Gauge* backlog_gauge_ = nullptr;
};

}  // namespace pacon::core
