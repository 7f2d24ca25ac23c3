/// \file
/// Leader side of commit-log replication: a per-shard CommitLogObserver
/// that streams every WAL record the shard logs to a follower's
/// ReplicaServer over the repl_protocol wire, byte-for-byte. Attached via
/// CommitLogConfig::observer (the gateway wires one per shard when
/// GatewayConfig::replication is engaged), it sees exactly the write-side
/// events of the log it mirrors:
///
///   on_open    connect + HELLO/WELCOME handshake; ship the catch-up delta
///              (records the follower is missing, read from the leader's
///              own log in cap-sized APPENDs, two in flight) before any
///              new append streams
///   on_record  buffer the record; flush a full APPEND
///   on_batch   flush and block for the group's ACK — the shard publishes
///              the group's decisions only after it, so every accept a
///              client is told is on the follower
///   on_close   flush and drain the final ACK — a clean shutdown leaves
///              follower == leader, and a close after the session was
///              lost is clean only if the follower had acked every record
///
/// There is one failure rule: every replication failure (connect refusal,
/// NACK, stale leader, ack timeout, torn connection, unreadable leader
/// log) throws ReplError out of the commit path, so no commit
/// externalizes beyond what the follower acknowledged. The shard worker
/// dies, the supervisor restarts it, and the restart's on_open reconnects
/// and catches the follower up; while the follower stays unreachable the
/// restarts fail, the shard stops admitting, and once its circuit breaks
/// only force_recover re-arms it. A leader that lost the newest records
/// (the follower holds more) must not serve, let alone overwrite them.
/// Every blocking send and ack wait is bounded by ack_timeout, so a
/// follower that stops reading cannot hang the leader.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "common/health.hpp"
#include "replication/repl_protocol.hpp"
#include "service/commit_log.hpp"
#include "service/fault_injection.hpp"

namespace slacksched::repl {

/// Records per catch-up APPEND: as many as the protocol's payload cap holds
/// (20,164), so a 95k-record history ships in a handful of frames.
inline constexpr std::size_t kCatchUpRecords =
    (kMaxReplPayload - (kAppendPrefixBytes - kReplHeaderSize)) /
    kWalRecordBytes;
static_assert(kAppendPrefixBytes - kReplHeaderSize +
                      kCatchUpRecords * kWalRecordBytes <=
                  kMaxReplPayload,
              "a full catch-up APPEND must fit the payload cap");
static_assert(kWalFlushBytes <= kCatchUpRecords * kWalRecordBytes,
              "a live APPEND flushed at kWalFlushBytes must fit the "
              "payload cap");

/// Leader-side replication knobs (one set shared by every shard).
struct ReplicationConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// The one ack contract (kAckOnBatch), sent in HELLO.
  ReplAckMode ack_mode = ReplAckMode::kAckOnBatch;
  /// Longest on_open blocks establishing the session.
  std::chrono::milliseconds connect_timeout{2000};
  /// Longest the leader blocks on one follower ACK, and longest
  /// any one frame send may block on a follower that does not read.
  std::chrono::milliseconds ack_timeout{5000};
  /// Idle liveness probe cadence (0 disables the heartbeat thread).
  std::chrono::milliseconds heartbeat_interval{100};
  /// Observer of follower acknowledgement progress, invoked (under the
  /// replicator's I/O lock — keep it fast) whenever the acked watermark
  /// advances. The chaos harness journals this to prove the ack contract.
  std::function<void(int shard, std::uint64_t watermark)> on_ack;
  /// Optional deterministic fault injector (kReplicationFrame site).
  FaultInjector* faults = nullptr;

  /// Human-readable problems, empty when valid.
  [[nodiscard]] std::vector<std::string> validate() const;
};

/// One shard's replication stream. Thread-compatible with the commit log
/// it observes: on_record/on_batch/on_close arrive on the shard's worker
/// thread, on_open on whichever thread spawns the shard; an internal
/// heartbeat thread shares the socket under a lock.
class ShardReplicator : public CommitLogObserver {
 public:
  ShardReplicator(int shard, const ReplicationConfig& config);

  /// Closes the socket and joins the heartbeat thread. Does NOT drain —
  /// a clean drain happens in on_close (CommitLog::close); destruction
  /// with unflushed records models the leader dying.
  ~ShardReplicator() override;

  ShardReplicator(const ShardReplicator&) = delete;
  ShardReplicator& operator=(const ShardReplicator&) = delete;

  // --- CommitLogObserver ---
  void on_open(const std::string& path, int machines,
               std::uint64_t base_records) override;
  void on_record(const char* frame, std::size_t size,
                 std::uint64_t seq) override;
  void on_batch(std::uint64_t watermark) override;
  void on_close(std::uint64_t watermark) override;

  /// Highest record sequence the follower has acknowledged as durable.
  [[nodiscard]] std::uint64_t acked_watermark() const {
    return acked_.load(std::memory_order_acquire);
  }

  /// True while a session is established.
  [[nodiscard]] bool connected() const {
    return connected_.load(std::memory_order_acquire);
  }

  /// APPEND frames sent over the session's lifetime (all sessions).
  [[nodiscard]] std::uint64_t frames_sent() const {
    return frames_sent_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] int shard() const { return shard_; }

 private:
  /// Sends raw bytes within ack_timeout (ReplError past it), with the
  /// kReplicationFrame crash point armed mid-frame (half the bytes are on
  /// the wire when it fires). Caller holds io_mutex_.
  void send_all(const char* data, std::size_t size, bool crash_point);
  /// Seals `frame` (kAppendPrefixBytes, then `count` records) as the APPEND
  /// of records [base, base + count) and sends it. Caller holds io_mutex_.
  void send_append(char* frame, std::uint64_t base, std::uint64_t count);
  /// Flushes buffered live records as one APPEND. Caller holds io_mutex_.
  void flush_pending();
  /// Blocks until acked_ >= target or ack_timeout. Caller holds io_mutex_.
  void wait_for_ack(std::uint64_t target);
  /// Flushes and waits for the ACK of `watermark`; throws ReplError (and
  /// tears the session down) when there is no session or it fails.
  /// Caller holds io_mutex_.
  void sync_to(std::uint64_t watermark);
  /// Non-blocking drain of whatever ACK/HEARTBEAT_ACK frames arrived.
  /// Caller holds io_mutex_. Throws ReplError when the connection died.
  void drain_acks();
  /// Reads one frame by `deadline`. Caller holds io_mutex_. Throws
  /// ReplError on corruption, connection loss or timeout.
  void read_frame(ReplFrame& out,
                  std::chrono::steady_clock::time_point deadline);
  /// Applies one follower frame (ACK/HEARTBEAT_ACK advance the watermark,
  /// NACK throws). Caller holds io_mutex_.
  void handle_frame(const ReplFrame& frame);
  /// Ships records [from, to) of the leader's log, read by sequence number,
  /// as kCatchUpRecords APPENDs, two in flight: frame k goes out before
  /// frame k-1's ACK is awaited, so the follower's write+fsync overlaps the
  /// next read and send. Returns once the follower ACKs `to`. Caller holds
  /// io_mutex_.
  void catch_up(const std::string& path, int machines, std::uint64_t from,
                std::uint64_t to);
  /// Tears the session down (closes the socket). Caller holds io_mutex_.
  void fail_session();
  /// One heartbeat-thread beat: an idle-liveness HEARTBEAT plus an ACK
  /// drain, skipped while the worker holds the socket.
  void heartbeat();

  const int shard_;
  const ReplicationConfig config_;

  std::mutex io_mutex_;
  int fd_ = -1;
  ReplFrameDecoder decoder_;
  /// The next live APPEND: kAppendPrefixBytes, then the buffered records
  /// (raw WAL); empty when nothing is buffered.
  std::vector<char> pending_;
  std::uint64_t pending_base_ = 0;  ///< seq of pending_'s first record
  std::uint64_t next_seq_ = 0;      ///< follower's expected next base_seq

  std::atomic<std::uint64_t> acked_{0};
  std::atomic<bool> connected_{false};
  std::atomic<std::uint64_t> frames_sent_{0};

  PeriodicThread heartbeat_;
};

}  // namespace slacksched::repl
