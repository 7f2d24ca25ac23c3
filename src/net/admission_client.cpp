#include "net/admission_client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <thread>

namespace slacksched::net {

namespace {

[[noreturn]] void fail_connect(int fd, const std::string& host,
                               std::uint16_t port, const std::string& why) {
  ::close(fd);
  throw NetError("connect " + host + ":" + std::to_string(port) + ": " + why);
}

}  // namespace

int connect_with_timeout(const std::string& host, std::uint16_t port,
                         std::chrono::milliseconds timeout) {
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
  if (fd < 0) {
    throw NetError(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw NetError("bad host address: " + host);
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    if (errno != EINPROGRESS) fail_connect(fd, host, port, std::strerror(errno));
    // Connection in flight: wait for writability, bounded by the timeout.
    pollfd pfd{fd, POLLOUT, 0};
    while (true) {
      const int ready =
          ::poll(&pfd, 1, static_cast<int>(std::max<std::int64_t>(
                              0, timeout.count())));
      if (ready < 0 && errno == EINTR) continue;
      if (ready < 0) fail_connect(fd, host, port, std::strerror(errno));
      if (ready == 0) {
        fail_connect(fd, host, port,
                     "timed out after " + std::to_string(timeout.count()) +
                         " ms");
      }
      break;
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0) {
      fail_connect(fd, host, port, std::strerror(errno));
    }
    if (err != 0) fail_connect(fd, host, port, std::strerror(err));
  }
  // Back to blocking: the protocol clients read and write synchronously.
  const int flags = ::fcntl(fd, F_GETFL);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK) != 0) {
    fail_connect(fd, host, port, std::strerror(errno));
  }
  int one = 1;
  (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

AdmissionClient::AdmissionClient(const std::string& host, std::uint16_t port,
                                 const ClientConfig& config)
    : fd_(connect_with_timeout(host, port, config.connect_timeout)) {}

AdmissionClient::~AdmissionClient() {
  if (fd_ >= 0) ::close(fd_);
}

void AdmissionClient::send_all(const std::vector<char>& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    throw NetError(std::string("send: ") + std::strerror(errno));
  }
}

Frame AdmissionClient::read_frame() {
  Frame frame;
  while (true) {
    const FrameDecoder::Status status = decoder_.next(frame);
    if (status == FrameDecoder::Status::kFrame) {
      if (frame.type == FrameType::kError) {
        throw NetError("server reported: " + parse_error_message(frame));
      }
      return frame;
    }
    if (status == FrameDecoder::Status::kError) {
      throw NetError("response stream corrupt: " + decoder_.error());
    }
    char buf[65536];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      decoder_.feed(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n == 0) throw NetError("server closed the connection");
    throw NetError(std::string("recv: ") + std::strerror(errno));
  }
}

DecisionReply AdmissionClient::to_reply(const Frame& frame) {
  std::string error;
  DecisionReply reply;
  if (frame.type == FrameType::kDecision) {
    DecisionMsg msg;
    if (!parse_decision(frame, msg, &error)) throw NetError(error);
    reply.request_id = msg.request_id;
    reply.job_id = msg.job_id;
    reply.outcome = msg.outcome;
    reply.machine = msg.machine;
    reply.start = msg.start;
    return reply;
  }
  if (frame.type == FrameType::kReject) {
    RejectMsg msg;
    if (!parse_reject(frame, msg, &error)) throw NetError(error);
    reply.request_id = msg.request_id;
    reply.job_id = msg.job_id;
    reply.outcome = msg.outcome;
    reply.retry_after_ms = msg.retry_after_ms;
    return reply;
  }
  throw NetError("unexpected frame type " +
                 std::to_string(static_cast<int>(frame.type)) +
                 " while waiting for a reply");
}

std::uint64_t AdmissionClient::submit(const Job& job) {
  SubmitMsg msg;
  msg.request_id = next_request_id_++;
  msg.job = job;
  std::vector<char> bytes;
  encode_submit(bytes, msg);
  send_all(bytes);
  ++outstanding_;
  return msg.request_id;
}

std::uint64_t AdmissionClient::submit_batch(std::span<const Job> jobs) {
  const std::uint64_t base = next_request_id_;
  next_request_id_ += jobs.size();
  std::vector<char> bytes;
  for (std::size_t first = 0; first < jobs.size(); first += kMaxBatchJobs) {
    const auto frame_jobs = jobs.subspan(
        first, std::min(kMaxBatchJobs, jobs.size() - first));
    encode_submit_batch(bytes, base + first, frame_jobs);
  }
  send_all(bytes);
  outstanding_ += jobs.size();
  return base;
}

DecisionReply AdmissionClient::wait_reply() {
  DecisionReply reply;
  if (try_reply(reply)) return reply;
  reply = to_reply(read_frame());
  --outstanding_;
  return reply;
}

bool AdmissionClient::try_reply(DecisionReply& out) {
  if (ready_.empty()) return false;
  out = ready_.front();
  ready_.pop_front();
  return true;
}

DecisionReply AdmissionClient::submit_wait(const Job& job) {
  if (outstanding_ != 0 || !ready_.empty()) {
    throw NetError("submit_wait requires no submissions in flight");
  }
  (void)submit(job);
  return wait_reply();
}

std::uint64_t AdmissionClient::ping(std::uint64_t token) {
  std::vector<char> bytes;
  encode_ping(bytes, token);
  send_all(bytes);
  while (true) {
    const Frame frame = read_frame();
    if (frame.type == FrameType::kPong) {
      std::uint64_t echoed = 0;
      std::string error;
      if (!parse_token(frame, echoed, &error)) throw NetError(error);
      return echoed;
    }
    ready_.push_back(to_reply(frame));
    --outstanding_;
  }
}

DrainedMsg AdmissionClient::drain() {
  std::vector<char> bytes;
  encode_drain(bytes);
  send_all(bytes);
  while (true) {
    const Frame frame = read_frame();
    if (frame.type == FrameType::kDrained) {
      DrainedMsg msg;
      std::string error;
      if (!parse_drained(frame, msg, &error)) throw NetError(error);
      return msg;
    }
    ready_.push_back(to_reply(frame));
    --outstanding_;
  }
}

void RetryingSubmitter::enqueue(const Job& job) {
  pending_.emplace(client_.submit(job), Pending{job, 1});
}

void RetryingSubmitter::enqueue_batch(std::span<const Job> jobs) {
  const std::uint64_t base = client_.submit_batch(jobs);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    pending_.emplace(base + i, Pending{jobs[i], 1});
  }
}

bool RetryingSubmitter::pump(DecisionReply& out) {
  while (!pending_.empty()) {
    DecisionReply reply = client_.wait_reply();
    const auto it = pending_.find(reply.request_id);
    if (it == pending_.end()) {
      // Not ours (the caller also submits directly); surface untouched.
      out = reply;
      return true;
    }
    const Pending pending = it->second;
    pending_.erase(it);
    const bool shed = reply.outcome == Outcome::kRejectedQueueFull ||
                      reply.outcome == Outcome::kRejectedRetryAfter;
    if (shed &&
        (policy_.max_attempts <= 0 || pending.attempt < policy_.max_attempts)) {
      std::this_thread::sleep_for(
          policy_.delay(pending.attempt, reply.retry_after_ms));
      ++retries_;
      pending_.emplace(client_.submit(pending.job),
                       Pending{pending.job, pending.attempt + 1});
      continue;
    }
    out = reply;
    return true;
  }
  return false;
}

std::string http_get_metrics(const std::string& host, std::uint16_t port) {
  const int fd =
      connect_with_timeout(host, port, std::chrono::milliseconds(5000));
  const std::string request = "GET /metrics HTTP/1.0\r\nHost: " + host +
                              "\r\nConnection: close\r\n\r\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent,
                             request.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    const int err = errno;
    ::close(fd);
    throw NetError(std::string("send: ") + std::strerror(err));
  }
  std::string response;
  char buf[65536];
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      response.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    break;  // 0: server closed (HTTP/1.0 end of body); <0: treat as end
  }
  ::close(fd);
  const std::size_t header_end = response.find("\r\n\r\n");
  if (header_end == std::string::npos) {
    throw NetError("malformed HTTP response (no header terminator)");
  }
  const std::size_t status_end = response.find("\r\n");
  const std::string status_line = response.substr(0, status_end);
  if (status_line.find(" 200 ") == std::string::npos) {
    throw NetError("metrics scrape failed: " + status_line);
  }
  return response.substr(header_end + 4);
}

}  // namespace slacksched::net
