#include "replication/replicator.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "net/admission_client.hpp"
#include "net/protocol.hpp"

namespace slacksched::repl {

namespace {

using Clock = std::chrono::steady_clock;

int ceil_ms(Clock::duration d) {
  const auto ms = std::chrono::ceil<std::chrono::milliseconds>(d).count();
  return static_cast<int>(std::clamp<std::int64_t>(ms, 0, 1 << 30));
}

/// Polls `fd` for `events` until it is ready (true) or `deadline` passes
/// (false). Readiness includes error and hang-up; the caller's next
/// send/recv reports those.
bool wait_ready(int fd, short events, Clock::time_point deadline) {
  while (true) {
    const auto now = Clock::now();
    if (now >= deadline) return false;
    pollfd pfd{fd, events, 0};
    const int ready = ::poll(&pfd, 1, ceil_ms(deadline - now));
    if (ready > 0) return true;
    if (ready < 0 && errno != EINTR) {
      throw ReplError(std::string("replication poll: ") +
                      std::strerror(errno));
    }
  }
}

}  // namespace

std::vector<std::string> ReplicationConfig::validate() const {
  std::vector<std::string> problems;
  if (port == 0) {
    problems.emplace_back("replication.port must be set (0 is not a port)");
  }
  if (connect_timeout.count() <= 0) {
    problems.emplace_back("replication.connect_timeout must be positive");
  }
  if (ack_timeout.count() <= 0) {
    problems.emplace_back("replication.ack_timeout must be positive");
  }
  if (heartbeat_interval.count() < 0) {
    problems.emplace_back(
        "replication.heartbeat_interval must be >= 0 (0 disables)");
  }
  return problems;
}

ShardReplicator::ShardReplicator(int shard, const ReplicationConfig& config)
    : shard_(shard), config_(config) {
  if (config_.heartbeat_interval.count() > 0) {
    heartbeat_.start(config_.heartbeat_interval, [this] {
      heartbeat();
      return true;
    });
  }
}

ShardReplicator::~ShardReplicator() {
  heartbeat_.stop();
  std::lock_guard lock(io_mutex_);
  if (fd_ >= 0) ::close(fd_);
}

void ShardReplicator::on_open(const std::string& path, int machines,
                              std::uint64_t base_records) {
  std::lock_guard lock(io_mutex_);
  fail_session();
  decoder_ = ReplFrameDecoder();
  pending_.clear();

  try {
    fd_ = net::connect_with_timeout(config_.host, config_.port,
                                    config_.connect_timeout);
  } catch (const net::NetError& e) {
    throw ReplError(std::string("replication connect failed: ") + e.what());
  }

  try {
    HelloMsg hello;
    hello.machines = static_cast<std::uint32_t>(machines);
    hello.ack_mode = config_.ack_mode;
    hello.leader_records = base_records;
    std::vector<char> out;
    encode_hello(out, static_cast<std::uint16_t>(shard_), hello);
    send_all(out.data(), out.size(), /*crash_point=*/false);

    ReplFrame frame;
    read_frame(frame, Clock::now() + config_.connect_timeout);
    if (frame.type == ReplFrameType::kNack) {
      handle_frame(frame);  // throws the refusal
    }
    if (frame.type != ReplFrameType::kWelcome) {
      throw ReplError("expected WELCOME, got frame type " +
                      std::to_string(static_cast<int>(frame.type)));
    }
    std::uint64_t follower = 0;
    std::string error;
    if (!parse_watermark(frame, follower, &error)) throw ReplError(error);
    if (follower > base_records) {
      throw ReplError("stale leader: follower holds " +
                      std::to_string(follower) + " records, this log only " +
                      std::to_string(base_records));
    }
    acked_.store(follower, std::memory_order_release);
    if (follower < base_records) {
      catch_up(path, machines, follower, base_records);
    }
    next_seq_ = base_records;
    connected_.store(true, std::memory_order_release);
  } catch (...) {
    fail_session();
    throw;
  }
}

void ShardReplicator::on_record(const char* frame, std::size_t size,
                                std::uint64_t seq) {
  std::lock_guard lock(io_mutex_);
  if (fd_ < 0) {
    throw ReplError("replication session lost before record " +
                    std::to_string(seq));
  }
  if (pending_.empty()) {
    pending_base_ = seq - 1;
    pending_.resize(kAppendPrefixBytes);
  }
  pending_.insert(pending_.end(), frame, frame + size);
  if (pending_.size() - kAppendPrefixBytes >= kWalFlushBytes) {
    try {
      flush_pending();
    } catch (const ReplError&) {
      fail_session();
      throw;
    }
  }
}

void ShardReplicator::on_batch(std::uint64_t watermark) {
  std::lock_guard lock(io_mutex_);
  sync_to(watermark);
}

void ShardReplicator::on_close(std::uint64_t watermark) {
  std::lock_guard lock(io_mutex_);
  // The heartbeat can tear the session down after the last batch; that
  // close is clean only if the follower already acked every record.
  if (fd_ < 0 && acked_.load(std::memory_order_acquire) >= watermark) return;
  sync_to(watermark);
}

void ShardReplicator::sync_to(std::uint64_t watermark) {
  if (fd_ < 0) {
    throw ReplError("replication session lost at watermark " +
                    std::to_string(watermark) + " (follower acked " +
                    std::to_string(acked_.load()) + ")");
  }
  try {
    flush_pending();
    wait_for_ack(watermark);
  } catch (const ReplError&) {
    fail_session();
    throw;
  }
}

void ShardReplicator::send_all(const char* data, std::size_t size,
                               bool crash_point) {
  // One deadline for the whole frame: a follower that stops reading fills
  // the socket buffers, and the send must fail rather than block forever.
  const auto deadline = Clock::now() + config_.ack_timeout;
  const auto send_chunk = [this, deadline](const char* chunk, std::size_t n) {
    std::size_t sent = 0;
    while (sent < n) {
      const ssize_t written = ::send(fd_, chunk + sent, n - sent,
                                     MSG_NOSIGNAL | MSG_DONTWAIT);
      if (written > 0) {
        sent += static_cast<std::size_t>(written);
        continue;
      }
      if (written < 0 && errno == EINTR) continue;
      if (written < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        if (!wait_ready(fd_, POLLOUT, deadline)) {
          throw ReplError("replication send timed out after " +
                          std::to_string(config_.ack_timeout.count()) +
                          " ms with " + std::to_string(n - sent) +
                          " bytes unsent");
        }
        continue;
      }
      throw ReplError(std::string("replication send: ") +
                      std::strerror(errno));
    }
  };
  if (crash_point && config_.faults != nullptr) {
    // Torn-frame site: half the frame is on the wire when the fault fires
    // — the follower must discard the partial frame, not persist it.
    const std::size_t half = size / 2;
    send_chunk(data, half);
    SLACKSCHED_FAULT_CRASH_POINT(config_.faults,
                                 FaultSite::kReplicationFrame, shard_);
    send_chunk(data + half, size - half);
    return;
  }
  send_chunk(data, size);
}

void ShardReplicator::send_append(char* frame, std::uint64_t base,
                                  std::uint64_t count) {
  seal_append(frame, static_cast<std::uint16_t>(shard_), base,
              static_cast<std::uint32_t>(count));
  send_all(frame, kAppendPrefixBytes + count * kWalRecordBytes,
           /*crash_point=*/true);
  frames_sent_.fetch_add(1, std::memory_order_relaxed);
}

void ShardReplicator::flush_pending() {
  if (pending_.empty()) return;
  const std::uint64_t count =
      (pending_.size() - kAppendPrefixBytes) / kWalRecordBytes;
  send_append(pending_.data(), pending_base_, count);
  next_seq_ = pending_base_ + count;
  pending_.clear();
}

void ShardReplicator::wait_for_ack(std::uint64_t target) {
  const auto deadline = Clock::now() + config_.ack_timeout;
  while (acked_.load(std::memory_order_acquire) < target) {
    if (Clock::now() >= deadline) {
      throw ReplError("follower ack timeout: waited " +
                      std::to_string(config_.ack_timeout.count()) +
                      " ms for record " + std::to_string(target) +
                      " (acked " + std::to_string(acked_.load()) + ")");
    }
    ReplFrame frame;
    read_frame(frame, deadline);
    handle_frame(frame);
  }
}

void ShardReplicator::drain_acks() {
  while (true) {
    ReplFrame frame;
    const ReplFrameDecoder::Status status = decoder_.next(frame);
    if (status == ReplFrameDecoder::Status::kFrame) {
      handle_frame(frame);
      continue;
    }
    if (status == ReplFrameDecoder::Status::kError) {
      throw ReplError("replication ack stream corrupt: " + decoder_.error());
    }
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 0);
    if (ready <= 0) return;  // nothing buffered right now
    char buf[65536];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      decoder_.feed(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EINTR || errno == EAGAIN)) return;
    if (n == 0) throw ReplError("follower closed the connection");
    throw ReplError(std::string("replication recv: ") + std::strerror(errno));
  }
}

void ShardReplicator::read_frame(ReplFrame& out, Clock::time_point deadline) {
  while (true) {
    const ReplFrameDecoder::Status status = decoder_.next(out);
    if (status == ReplFrameDecoder::Status::kFrame) return;
    if (status == ReplFrameDecoder::Status::kError) {
      throw ReplError("replication stream corrupt: " + decoder_.error());
    }
    if (!wait_ready(fd_, POLLIN, deadline)) {
      throw ReplError("timed out waiting for a follower frame");
    }
    char buf[65536];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      decoder_.feed(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n == 0) throw ReplError("follower closed the connection");
    throw ReplError(std::string("replication recv: ") + std::strerror(errno));
  }
}

void ShardReplicator::handle_frame(const ReplFrame& frame) {
  std::string error;
  switch (frame.type) {
    case ReplFrameType::kAck:
    case ReplFrameType::kHeartbeatAck: {
      std::uint64_t watermark = 0;
      if (!parse_watermark(frame, watermark, &error)) throw ReplError(error);
      const std::uint64_t prev = acked_.load(std::memory_order_relaxed);
      if (watermark > prev) {
        acked_.store(watermark, std::memory_order_release);
        if (config_.on_ack) config_.on_ack(shard_, watermark);
      }
      return;
    }
    case ReplFrameType::kNack: {
      NackMsg nack;
      if (!parse_nack(frame, nack, &error)) throw ReplError(error);
      throw ReplError("follower refused (" + to_string(nack.reason) +
                      "): " + nack.message);
    }
    default:
      throw ReplError("unexpected replication frame type " +
                      std::to_string(static_cast<int>(frame.type)));
  }
}

void ShardReplicator::catch_up(const std::string& path, int machines,
                               std::uint64_t from, std::uint64_t to) {
  std::size_t size = 0;
  std::string error;
  const int file = open_wal(path, machines, WalMode::kRead, &size, &error);
  if (file < 0) {
    throw ReplError(error.empty() ? "catch-up: no leader log " + path
                                  : "catch-up: " + error);
  }
  try {
    // One frame buffer for the whole stream: records are read straight
    // behind the APPEND prefix and the header is sealed in place.
    std::vector<char> frame(
        kAppendPrefixBytes +
        std::min<std::uint64_t>(kCatchUpRecords, to - from) * kWalRecordBytes);
    for (std::uint64_t base = from; base < to;) {
      const std::uint64_t count =
          std::min<std::uint64_t>(kCatchUpRecords, to - base);
      if (!read_wal_records(file, base, count,
                            frame.data() + kAppendPrefixBytes)) {
        throw ReplError("leader log " + path +
                        " is shorter than its recovered record count "
                        "during catch-up");
      }
      send_append(frame.data(), base, count);
      // Frame k is on the wire; settle frame k-1, whose ACK is `base`. The
      // first frame has no predecessor: WELCOME already acked `from`.
      wait_for_ack(base);
      base += count;
    }
    wait_for_ack(to);
  } catch (...) {
    ::close(file);
    throw;
  }
  ::close(file);
}

void ShardReplicator::fail_session() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  connected_.store(false, std::memory_order_release);
}

void ShardReplicator::heartbeat() {
  std::unique_lock lock(io_mutex_, std::try_to_lock);
  // A busy worker holds the lock — and a busy worker is already making
  // progress the follower can see; skip the beat.
  if (!lock.owns_lock()) return;
  if (fd_ < 0 || !connected_.load(std::memory_order_acquire)) return;
  try {
    std::vector<char> out;
    encode_heartbeat(out, static_cast<std::uint16_t>(shard_), next_seq_);
    send_all(out.data(), out.size(), /*crash_point=*/false);
    drain_acks();
  } catch (const ReplError&) {
    // Cannot throw from a background thread: tear the session down and
    // let the worker's next commit-path call report the loss.
    fail_session();
  }
}

}  // namespace slacksched::repl
