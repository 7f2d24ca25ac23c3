/// \file
/// Follower side of commit-log replication: a TCP server that accepts one
/// replication session per shard (repl_protocol), persists the shipped WAL
/// records verbatim into its own per-shard logs, and answers heartbeats
/// with its replication watermark. The replica logs use the exact on-disk
/// format of service/commit_log.hpp, so promotion replays them through the
/// unchanged recover_commit_log path.
///
/// Every refusal fails safe — the bad frame persists nothing:
///
///   stale leader    HELLO.leader_records < the replica's own record count
///                   -> NACK{stale-leader}; a leader that lost records must
///                   not overwrite the survivor's
///   sequence gap    APPEND.base_seq != the replica's record count
///                   -> NACK{sequence-gap}; the stream lost a frame
///   corrupt record  any shipped record fails its length/CRC frame check
///                   -> NACK{corrupt-record}, the whole APPEND is
///                   quarantined (counted, not written — all-or-nothing)
///   torn stream     a partial frame at connection teardown is discarded
///                   by the decoder (kNeedMore is not an error)
///
/// An APPEND is acknowledged only after write + fsync: an ACK'd watermark
/// is durable on the follower by construction.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "replication/repl_protocol.hpp"

namespace slacksched::repl {

/// Follower deployment shape.
struct ReplicaServerConfig {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0: ephemeral (read the bound one via port())
  /// Directory of the replica logs ("<dir>/shard-<s>.wal").
  std::string dir;
  int shards = 1;
};

/// The follower process's replication endpoint. Construction binds,
/// listens and starts the accept thread; stop() (or destruction) tears
/// everything down. Thread-safe accessors throughout.
class ReplicaServer {
 public:
  explicit ReplicaServer(ReplicaServerConfig config);
  ~ReplicaServer();

  ReplicaServer(const ReplicaServer&) = delete;
  ReplicaServer& operator=(const ReplicaServer&) = delete;

  void stop();

  /// The bound TCP port (resolves an ephemeral request).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Records durable (written + fsynced) in shard `shard`'s replica log.
  [[nodiscard]] std::uint64_t watermark(int shard) const;

  /// True while a leader session is attached for the shard.
  [[nodiscard]] bool attached(int shard) const;

  /// Time since the last valid frame from any leader session. Returns
  /// duration::max() before the first frame — silence with no history is
  /// not evidence of a live leader.
  [[nodiscard]] std::chrono::steady_clock::duration last_activity_age() const;

  /// APPEND frames refused and quarantined for carrying a corrupt record.
  [[nodiscard]] std::uint64_t records_quarantined() const {
    return quarantined_.load(std::memory_order_relaxed);
  }

  /// Leader sessions accepted (HELLO/WELCOME handshakes completed).
  [[nodiscard]] std::uint64_t sessions_accepted() const {
    return sessions_.load(std::memory_order_relaxed);
  }

  /// Path of shard `shard`'s replica log.
  [[nodiscard]] std::string shard_log_path(int shard) const;

  [[nodiscard]] const ReplicaServerConfig& config() const { return config_; }

 private:
  /// Per-shard replica log state. `epoch` implements session supersession:
  /// a new HELLO for the shard bumps it, and the old session's handler
  /// finds its epoch stale on the next frame and bows out — the newest
  /// leader always wins the log.
  struct ShardState {
    std::mutex mutex;
    int fd = -1;
    std::uint64_t epoch = 0;
    std::atomic<std::uint64_t> records{0};
    std::atomic<bool> attached{false};
  };

  void accept_loop();
  void handle_connection(int fd);
  /// Handles one decoded frame; false closes the connection. `epochs` is
  /// the connection's shard -> session-epoch map.
  bool handle_frame(int fd, const ReplFrame& frame,
                    std::unordered_map<int, std::uint64_t>& epochs);
  /// (Re)opens the shard's replica log through open_wal (kAppend: created,
  /// its header checked against the leader's `machines`) and counts its
  /// intact records, truncating a torn tail. Caller holds the shard mutex.
  /// Returns false (with `why`) on an unusable log, leaving the live one.
  bool open_shard_log(ShardState& state, int shard, std::uint32_t machines,
                      std::string* why);
  void touch_activity();
  static void send_frame(int fd, const std::vector<char>& bytes);

  ReplicaServerConfig config_;
  std::uint16_t port_ = 0;
  int listen_fd_ = -1;
  std::vector<std::unique_ptr<ShardState>> states_;
  std::atomic<std::uint64_t> quarantined_{0};
  std::atomic<std::uint64_t> sessions_{0};
  /// steady_clock nanos of the last valid frame; 0 = never.
  std::atomic<std::int64_t> last_activity_ns_{0};

  std::atomic<bool> stop_{false};
  std::thread acceptor_;
  std::mutex conn_mutex_;
  std::vector<std::thread> handlers_;
  std::vector<int> conn_fds_;
};

}  // namespace slacksched::repl
