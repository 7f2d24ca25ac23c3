#include "replication/replica_server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/expects.hpp"
#include "service/commit_log.hpp"

namespace slacksched::repl {

namespace {

using Clock = std::chrono::steady_clock;

/// True iff every record in an APPEND body passes its frame check.
bool records_well_formed(const char* records, std::uint32_t count) {
  for (std::uint32_t i = 0; i < count; ++i) {
    if (!wal_record_intact(records +
                           static_cast<std::size_t>(i) * kWalRecordBytes)) {
      return false;
    }
  }
  return true;
}

}  // namespace

ReplicaServer::ReplicaServer(ReplicaServerConfig config)
    : config_(std::move(config)) {
  SLACKSCHED_EXPECTS(config_.shards >= 1);
  SLACKSCHED_EXPECTS(!config_.dir.empty());
  states_.reserve(static_cast<std::size_t>(config_.shards));
  for (int s = 0; s < config_.shards; ++s) {
    states_.push_back(std::make_unique<ShardState>());
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    throw ReplError(std::string("replica socket: ") + std::strerror(errno));
  }
  int one = 1;
  (void)setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listen_fd_);
    throw ReplError("bad replica bind address: " + config_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    throw ReplError("replica bind/listen " + config_.bind_address + ":" +
                    std::to_string(config_.port) + ": " + std::strerror(err));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) !=
      0) {
    const int err = errno;
    ::close(listen_fd_);
    throw ReplError(std::string("replica getsockname: ") +
                    std::strerror(err));
  }
  port_ = ntohs(bound.sin_port);
  acceptor_ = std::thread([this] { accept_loop(); });
}

ReplicaServer::~ReplicaServer() { stop(); }

void ReplicaServer::stop() {
  if (stop_.exchange(true, std::memory_order_acq_rel)) return;
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  {
    std::lock_guard lock(conn_mutex_);
    for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  if (acceptor_.joinable()) acceptor_.join();
  std::vector<std::thread> handlers;
  {
    std::lock_guard lock(conn_mutex_);
    handlers.swap(handlers_);
  }
  for (std::thread& handler : handlers) {
    if (handler.joinable()) handler.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (const auto& state : states_) {
    std::lock_guard lock(state->mutex);
    if (state->fd >= 0) {
      ::close(state->fd);
      state->fd = -1;
    }
  }
}

std::uint64_t ReplicaServer::watermark(int shard) const {
  SLACKSCHED_EXPECTS(shard >= 0 && shard < config_.shards);
  return states_[static_cast<std::size_t>(shard)]->records.load(
      std::memory_order_acquire);
}

bool ReplicaServer::attached(int shard) const {
  SLACKSCHED_EXPECTS(shard >= 0 && shard < config_.shards);
  return states_[static_cast<std::size_t>(shard)]->attached.load(
      std::memory_order_acquire);
}

std::chrono::steady_clock::duration ReplicaServer::last_activity_age() const {
  const std::int64_t ns = last_activity_ns_.load(std::memory_order_acquire);
  if (ns == 0) return Clock::duration::max();
  return Clock::now().time_since_epoch() - std::chrono::nanoseconds(ns);
}

std::string ReplicaServer::shard_log_path(int shard) const {
  return config_.dir + "/shard-" + std::to_string(shard) + ".wal";
}

void ReplicaServer::touch_activity() {
  last_activity_ns_.store(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count(),
      std::memory_order_release);
}

void ReplicaServer::send_frame(int fd, const std::vector<char>& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return;  // peer gone; the read loop notices and closes
  }
}

void ReplicaServer::accept_loop() {
  while (!stop_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 100);
    if (ready <= 0) continue;
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) continue;
    int one = 1;
    (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    std::lock_guard lock(conn_mutex_);
    if (stop_.load(std::memory_order_acquire)) {
      ::close(fd);
      return;
    }
    conn_fds_.push_back(fd);
    handlers_.emplace_back([this, fd] { handle_connection(fd); });
  }
}

void ReplicaServer::handle_connection(int fd) {
  ReplFrameDecoder decoder;
  std::unordered_map<int, std::uint64_t> epochs;
  char buf[65536];
  bool open = true;
  while (open && !stop_.load(std::memory_order_acquire)) {
    ReplFrame frame;
    const ReplFrameDecoder::Status status = decoder.next(frame);
    if (status == ReplFrameDecoder::Status::kFrame) {
      open = handle_frame(fd, frame, epochs);
      continue;
    }
    if (status == ReplFrameDecoder::Status::kError) break;
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      decoder.feed(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    break;  // closed or errored; a partial frame in the decoder is
            // discarded — torn stream, nothing persisted from it
  }
  // Detach every shard this connection still owns.
  for (const auto& [shard, epoch] : epochs) {
    ShardState& state = *states_[static_cast<std::size_t>(shard)];
    std::lock_guard lock(state.mutex);
    if (state.epoch == epoch) {
      state.attached.store(false, std::memory_order_release);
    }
  }
  ::close(fd);
  std::lock_guard lock(conn_mutex_);
  for (auto it = conn_fds_.begin(); it != conn_fds_.end(); ++it) {
    if (*it == fd) {
      conn_fds_.erase(it);
      break;
    }
  }
}

bool ReplicaServer::open_shard_log(ShardState& state, int shard,
                                   std::uint32_t machines, std::string* why) {
  // Opened beside the live descriptor, which a refused HELLO leaves alone.
  const std::string path = shard_log_path(shard);
  std::size_t size = 0;
  const int fd = open_wal(path, static_cast<int>(machines), WalMode::kAppend,
                          &size, why);
  if (fd < 0) return false;
  // Framing only: the commitments are validated once, at promotion,
  // through recover_commit_log.
  std::uint64_t records = 0;
  const std::size_t end = scan_wal(
      fd, size, path,
      [&records](const char*) {
        ++records;
        return true;
      },
      why);
  if (why->empty() && end < size &&
      ::ftruncate(fd, static_cast<off_t>(end)) != 0) {
    *why = "cannot truncate torn replica tail " + path + ": " +
           std::strerror(errno);
  }
  if (!why->empty()) {
    ::close(fd);
    return false;
  }
  if (state.fd >= 0) ::close(state.fd);
  state.fd = fd;
  state.records.store(records, std::memory_order_release);
  return true;
}

bool ReplicaServer::handle_frame(
    int fd, const ReplFrame& frame,
    std::unordered_map<int, std::uint64_t>& epochs) {
  const int shard = static_cast<int>(frame.word);  // the word is the shard
  std::vector<char> reply;
  if (shard < 0 || shard >= config_.shards) {
    encode_nack(reply, frame.word, NackReason::kBadState, 0,
                "replica serves " + std::to_string(config_.shards) +
                    " shards, frame names shard " + std::to_string(shard));
    send_frame(fd, reply);
    return false;
  }
  ShardState& state = *states_[static_cast<std::size_t>(shard)];
  std::string error;

  if (frame.type == ReplFrameType::kHello) {
    HelloMsg hello;
    if (!parse_hello(frame, hello, &error)) {
      encode_nack(reply, frame.word, NackReason::kBadState, 0, error);
      send_frame(fd, reply);
      return false;
    }
    std::lock_guard lock(state.mutex);
    std::string why;
    if (!open_shard_log(state, shard, hello.machines, &why)) {
      encode_nack(reply, frame.word, NackReason::kBadState, 0, why);
      send_frame(fd, reply);
      return false;
    }
    const std::uint64_t have = state.records.load(std::memory_order_relaxed);
    if (hello.leader_records < have) {
      // Stale leader: it lost records this replica still holds. Refusing
      // here is what keeps a recovered-but-behind leader from serving —
      // and from ever truncating the survivor's history.
      encode_nack(reply, frame.word, NackReason::kStaleLeader, have,
                  "leader announces " +
                      std::to_string(hello.leader_records) +
                      " records, replica holds " + std::to_string(have));
      send_frame(fd, reply);
      return false;
    }
    // Newest session wins the shard; a superseded one finds its epoch
    // stale on its next frame and bows out.
    state.epoch += 1;
    epochs[shard] = state.epoch;
    state.attached.store(true, std::memory_order_release);
    sessions_.fetch_add(1, std::memory_order_relaxed);
    touch_activity();
    encode_welcome(reply, frame.word, have);
    send_frame(fd, reply);
    return true;
  }

  // Every other frame requires an owned session on the shard.
  const auto it = epochs.find(shard);
  if (it == epochs.end()) {
    encode_nack(reply, frame.word, NackReason::kBadState, 0,
                "no session: HELLO first");
    send_frame(fd, reply);
    return false;
  }

  if (frame.type == ReplFrameType::kAppend) {
    std::uint64_t base_seq = 0;
    std::uint32_t count = 0;
    const char* records = nullptr;
    if (!parse_append(frame, base_seq, count, &records, &error)) {
      encode_nack(reply, frame.word, NackReason::kBadState, 0, error);
      send_frame(fd, reply);
      return false;
    }
    std::lock_guard lock(state.mutex);
    if (state.epoch != it->second) return false;  // superseded
    const std::uint64_t have = state.records.load(std::memory_order_relaxed);
    if (base_seq != have) {
      encode_nack(reply, frame.word, NackReason::kSequenceGap, have,
                  "APPEND base " + std::to_string(base_seq) +
                      ", replica expects " + std::to_string(have));
      send_frame(fd, reply);
      return false;
    }
    if (!records_well_formed(records, count)) {
      // All-or-nothing: one bad record quarantines the whole frame, so a
      // valid prefix never mixes with corruption on disk.
      quarantined_.fetch_add(1, std::memory_order_relaxed);
      encode_nack(reply, frame.word, NackReason::kCorruptRecord, have,
                  "a record in the APPEND failed its CRC frame check");
      send_frame(fd, reply);
      return false;
    }
    const std::size_t bytes =
        static_cast<std::size_t>(count) * kWalRecordBytes;
    if (!write_wal(state.fd, records, bytes) || ::fsync(state.fd) != 0) {
      encode_nack(reply, frame.word, NackReason::kBadState, have,
                  "replica log write failed: " +
                      std::string(std::strerror(errno)));
      send_frame(fd, reply);
      return false;
    }
    const std::uint64_t now_have = have + count;
    state.records.store(now_have, std::memory_order_release);
    touch_activity();
    encode_ack(reply, frame.word, now_have);
    send_frame(fd, reply);
    return true;
  }

  if (frame.type == ReplFrameType::kHeartbeat) {
    std::lock_guard lock(state.mutex);
    if (state.epoch != it->second) return false;  // superseded
    touch_activity();
    encode_heartbeat_ack(reply, frame.word,
                         state.records.load(std::memory_order_relaxed));
    send_frame(fd, reply);
    return true;
  }

  encode_nack(reply, frame.word, NackReason::kBadState, 0,
              "unexpected frame type " +
                  std::to_string(static_cast<int>(frame.type)));
  send_frame(fd, reply);
  return false;
}

}  // namespace slacksched::repl
