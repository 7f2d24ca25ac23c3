#include "net/admission_server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>
#include <utility>

#include "common/expects.hpp"
#include "service/metrics_exporter.hpp"

namespace slacksched::net {

namespace {

/// Per-loop epoll user-data ids for the two non-connection descriptors.
/// Connection ids start at kFirstConnId and stride by the loop count, so
/// every id is globally unique and owned by exactly one loop.
constexpr std::uint64_t kListenerTag = 0;
constexpr std::uint64_t kEventFdTag = 1;
constexpr std::uint64_t kFirstConnId = 2;

/// route_ctx layout: the owning loop in the top 8 bits, the loop-local
/// ticket below. Tickets start at 1, so no submission's context is 0.
constexpr unsigned kLoopShift = 56;
constexpr std::uint64_t kTicketMask = (std::uint64_t{1} << kLoopShift) - 1;
constexpr int kMaxLoops = 1 << (64 - kLoopShift);

/// The event loop running on this thread (null off the loop threads). A
/// decision a combining submit renders here for one of this loop's own
/// tickets is answered inline at the end of submit_staged.
thread_local const void* t_current_loop = nullptr;

[[noreturn]] void throw_errno(const std::string& what) {
  throw NetError(what + ": " + std::strerror(errno));
}

void set_nodelay(int fd) {
  int one = 1;
  // Pipelined request/response traffic; Nagle only adds latency here.
  (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Opens a bound, listening, non-blocking IPv4 socket, with SO_REUSEPORT
/// when `reuseport` is set; a kernel that refuses the option throws.
int open_listener(const std::string& address, std::uint16_t port,
                  int backlog, bool reuseport) {
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) throw_errno("socket");
  int one = 1;
  (void)setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (reuseport &&
      setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("setsockopt(SO_REUSEPORT)");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, address.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw NetError("bad bind address: " + address);
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("bind " + address + ":" + std::to_string(port));
  }
  if (::listen(fd, backlog) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("listen");
  }
  return fd;
}

}  // namespace

std::vector<std::string> AdmissionServerConfig::validate() const {
  std::vector<std::string> errors;
  if (bind_address.empty()) {
    errors.push_back("bind_address must not be empty");
  }
  if (backlog < 1) {
    errors.push_back("backlog must be >= 1 (got " + std::to_string(backlog) +
                     ")");
  }
  if (loops < 1) {
    errors.push_back("loops must be >= 1 (got " + std::to_string(loops) +
                     ")");
  }
  if (loops > kMaxLoops) {
    errors.push_back("loops must be <= " + std::to_string(kMaxLoops) +
                     " (got " + std::to_string(loops) +
                     "): a route_ctx names its loop in 8 bits");
  }
  if (max_http_request < 64) {
    errors.push_back("max_http_request must be >= 64 bytes (got " +
                     std::to_string(max_http_request) +
                     "): no request line and headers fit below that");
  }
  if (idle_timeout.count() < 0) {
    errors.push_back("idle_timeout must be >= 0ms (got " +
                     std::to_string(idle_timeout.count()) +
                     "ms); 0 disables reaping");
  }
  if (idle_timeout.count() != 0 && reap_interval.count() < 1) {
    errors.push_back(
        "reap_interval must be >= 1ms when idle_timeout is enabled (got " +
        std::to_string(reap_interval.count()) +
        "ms): the reap scan would busy-loop");
  }
  if (accept_backoff.count() < 1) {
    errors.push_back("accept_backoff must be >= 1ms (got " +
                     std::to_string(accept_backoff.count()) +
                     "ms): a starved listener would hot-spin");
  }
  for (const std::string& problem : gateway.validate()) {
    errors.push_back("gateway: " + problem);
  }
  return errors;
}

AdmissionServer::AdmissionServer(const AdmissionServerConfig& config,
                                 const ShardSchedulerFactory& factory)
    : config_(config) {
  // Refuse to start on an invalid shape: report every problem in one
  // exception, before any socket exists.
  require_no_problems(
      "AdmissionServer refused to start: invalid AdmissionServerConfig:",
      config_.validate());

  const auto n_loops = static_cast<std::size_t>(config_.loops);
  loops_.reserve(n_loops);
  for (std::size_t i = 0; i < n_loops; ++i) {
    loops_.push_back(std::make_unique<EventLoop>());
    EventLoop& loop = *loops_.back();
    loop.index = static_cast<int>(i);
    // Stride the id space by the loop count: ids stay globally unique, a
    // connection's owning loop is id mod loops, and every id clears the
    // reserved listener/eventfd tags.
    loop.next_conn_id = kFirstConnId * n_loops + i;
  }

  try {
    // Accept distribution: one SO_REUSEPORT listener per loop, the
    // kernel spreading connections across them. Loop 0 binds first (an
    // ephemeral port is resolved there); the others join its port.
    const bool reuseport = n_loops > 1;
    loops_[0]->listen_fd = open_listener(
        config_.bind_address, config_.port, config_.backlog, reuseport);
    sockaddr_in bound{};
    socklen_t bound_len = sizeof(bound);
    if (::getsockname(loops_[0]->listen_fd,
                      reinterpret_cast<sockaddr*>(&bound), &bound_len) != 0) {
      throw_errno("getsockname");
    }
    port_ = ntohs(bound.sin_port);
    for (std::size_t i = 1; i < n_loops; ++i) {
      loops_[i]->listen_fd = open_listener(config_.bind_address, port_,
                                           config_.backlog, reuseport);
    }

    for (auto& loop_ptr : loops_) {
      EventLoop& loop = *loop_ptr;
      loop.epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
      if (loop.epoll_fd < 0) throw_errno("epoll_create1");
      loop.event_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
      if (loop.event_fd < 0) throw_errno("eventfd");
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u64 = kEventFdTag;
      if (::epoll_ctl(loop.epoll_fd, EPOLL_CTL_ADD, loop.event_fd, &ev) !=
          0) {
        throw_errno("epoll_ctl(eventfd)");
      }
      ev.events = EPOLLIN;
      ev.data.u64 = kListenerTag;
      if (::epoll_ctl(loop.epoll_fd, EPOLL_CTL_ADD, loop.listen_fd, &ev) !=
          0) {
        throw_errno("epoll_ctl(listener)");
      }
    }

    // The gateway comes up after the response plumbing (eventfds, per-loop
    // inboxes) exists: its shard threads may invoke the decision hook as
    // soon as the first job is enqueued. A user-supplied hook is chained,
    // not replaced. route_ctx carries (loop << 56) | ticket from submit
    // to decision.
    GatewayConfig gateway_config = config_.gateway;
    GatewayDecisionCallback user_hook = gateway_config.on_decision;
    gateway_config.on_decision =
        [this, user_hook = std::move(user_hook)](
            int shard, const Job& job, const Decision& decision,
            std::uint64_t route_ctx) {
          if (user_hook) user_hook(shard, job, decision, route_ctx);
          on_gateway_decision(job, decision, route_ctx);
        };
    gateway_ = std::make_unique<AdmissionGateway>(gateway_config, factory);

    for (auto& loop_ptr : loops_) {
      EventLoop& loop = *loop_ptr;
      loop.thread = std::thread([this, &loop] { event_loop(loop); });
    }
  } catch (...) {
    // Unwind half-built plumbing: join any loops already running, then
    // close every descriptor created so far.
    stop_.store(true, std::memory_order_release);
    for (auto& loop_ptr : loops_) {
      if (loop_ptr->event_fd >= 0) wake_loop(*loop_ptr);
    }
    for (auto& loop_ptr : loops_) {
      if (loop_ptr->thread.joinable()) loop_ptr->thread.join();
      if (loop_ptr->listen_fd >= 0) ::close(loop_ptr->listen_fd);
      if (loop_ptr->epoll_fd >= 0) ::close(loop_ptr->epoll_fd);
      if (loop_ptr->event_fd >= 0) ::close(loop_ptr->event_fd);
    }
    throw;
  }
}

AdmissionServer::~AdmissionServer() {
  try {
    (void)shutdown();
  } catch (...) {
    // Destructors must not throw; shutdown errors die here.
  }
}

GatewayResult AdmissionServer::shutdown() {
  if (!shutdown_done_.exchange(true, std::memory_order_acq_rel)) {
    stop_.store(true, std::memory_order_release);
    for (auto& loop_ptr : loops_) wake_loop(*loop_ptr);
    for (auto& loop_ptr : loops_) {
      if (loop_ptr->thread.joinable()) loop_ptr->thread.join();
    }
    if (!drained_.load(std::memory_order_acquire)) finish_gateway();
    for (auto& loop_ptr : loops_) {
      if (loop_ptr->listen_fd >= 0) ::close(loop_ptr->listen_fd);
      if (loop_ptr->epoll_fd >= 0) ::close(loop_ptr->epoll_fd);
      if (loop_ptr->event_fd >= 0) ::close(loop_ptr->event_fd);
      loop_ptr->listen_fd = loop_ptr->epoll_fd = loop_ptr->event_fd = -1;
    }
  }
  std::lock_guard lock(result_mutex_);
  return result_;
}

void AdmissionServer::finish_gateway() {
  // Loop threads can race a DRAIN each; exactly one runs finish(), the
  // others wait here and reuse the cached result.
  std::lock_guard finish_lock(finish_mutex_);
  if (drained_.load(std::memory_order_acquire)) return;
  GatewayResult result = gateway_->finish();
  {
    std::lock_guard lock(result_mutex_);
    result_ = std::move(result);
  }
  drained_.store(true, std::memory_order_release);
}

void AdmissionServer::wake_loop(EventLoop& loop) {
  std::uint64_t wake = 1;
  (void)::write(loop.event_fd, &wake, sizeof(wake));
}

void AdmissionServer::on_gateway_decision(const Job& job,
                                          const Decision& decision,
                                          std::uint64_t route_ctx) {
  // Context 0 (an embedding process calling gateway().submit() itself) is
  // owed nothing on the wire.
  const std::uint64_t loop_index = route_ctx >> kLoopShift;
  if (route_ctx == 0 || loop_index >= loops_.size()) return;
  EventLoop& loop = *loops_[static_cast<std::size_t>(loop_index)];
  PostedDecision posted;
  posted.ticket = route_ctx & kTicketMask;
  posted.job_id = job.id;
  posted.outcome = decision.accepted ? Outcome::kAccepted : Outcome::kRejected;
  posted.machine = decision.accepted ? decision.machine : -1;
  posted.start = decision.accepted ? decision.start : 0.0;
  if (t_current_loop == &loop) {
    // Rendered inside this loop's own submit_batch: no lock, no eventfd.
    loop.decided_here.push_back(posted);
    return;
  }
  bool wake = false;
  {
    // The one lock a decision takes. Resolving the ticket and encoding the
    // DECISION happen on the loop thread; the eventfd is written only by
    // the post that found the inbox empty, so consecutive decisions
    // coalesce into one wake-up.
    std::lock_guard lock(loop.inbox_mutex);
    wake = loop.inbox.empty();
    loop.inbox.push_back(posted);
  }
  if (wake) wake_loop(loop);
}

void AdmissionServer::event_loop(EventLoop& loop) {
  t_current_loop = &loop;
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  // With a reaper the wait becomes a tick (so idleness is noticed without
  // any descriptor firing); without one it blocks indefinitely, the
  // original zero-wakeup behavior. A disarmed listener shortens the wait
  // to its rearm deadline.
  const bool reaping = config_.idle_timeout.count() > 0;
  auto next_reap = std::chrono::steady_clock::now() + config_.reap_interval;
  while (!stop_.load(std::memory_order_acquire)) {
    int wait_ms =
        reaping ? static_cast<int>(config_.reap_interval.count()) : -1;
    if (!loop.listener_armed) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= loop.rearm_at) {
        rearm_listener(loop);
      } else {
        const auto remaining =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                loop.rearm_at - now)
                .count() +
            1;
        const int rearm_ms = static_cast<int>(
            std::min<long long>(remaining, std::numeric_limits<int>::max()));
        wait_ms = wait_ms < 0 ? rearm_ms : std::min(wait_ms, rearm_ms);
      }
    }
    const int n = ::epoll_wait(loop.epoll_fd, events, kMaxEvents, wait_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll fd gone: shutdown is tearing the loop down
    }
    if (reaping) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= next_reap) {
        reap_idle(loop, now);
        next_reap = now + config_.reap_interval;
      }
    }
    for (int i = 0; i < n; ++i) {
      const std::uint64_t tag = events[i].data.u64;
      if (tag == kListenerTag) {
        accept_ready(loop);
        continue;
      }
      if (tag == kEventFdTag) {
        std::uint64_t signal = 0;
        (void)::read(loop.event_fd, &signal, sizeof(signal));
        settle(loop);
        continue;
      }
      auto it = loop.connections.find(tag);
      if (it == loop.connections.end()) continue;  // closed this wake
      Connection& conn = *it->second;
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        close_connection(loop, tag);
        continue;
      }
      if ((events[i].events & EPOLLIN) != 0) read_ready(loop, conn);
      // read_ready may have closed the connection; re-find before writing.
      auto again = loop.connections.find(tag);
      if (again == loop.connections.end()) continue;
      if ((events[i].events & EPOLLOUT) != 0) {
        write_ready(loop, *again->second);
      }
    }
  }
  // Loop exit: close every owned connection (the sockets answer RST from
  // here).
  std::vector<std::uint64_t> ids;
  ids.reserve(loop.connections.size());
  for (const auto& [id, conn] : loop.connections) ids.push_back(id);
  for (const std::uint64_t id : ids) close_connection(loop, id);
}

void AdmissionServer::accept_ready(EventLoop& loop) {
  while (loop.listener_armed) {
    const int fd = ::accept4(loop.listen_fd, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;  // interrupted, not empty: retry
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        // Out of fds or kernel memory. The backlog keeps the
        // level-triggered listener readable, so without a pause this loop
        // would spin accept4/EMFILE at 100% CPU. Disarm the listener and
        // retry after accept_backoff.
        accept_errors_.fetch_add(1, std::memory_order_relaxed);
        disarm_listener(loop);
        return;
      }
      // Per-connection failure (ECONNABORTED and friends): that one
      // connection is gone, the listener is fine.
      accept_errors_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    adopt_connection(loop, fd);
  }
}

void AdmissionServer::adopt_connection(EventLoop& loop, int fd) {
  set_nodelay(fd);
  auto conn = std::make_unique<Connection>();
  conn->fd = fd;
  conn->id = loop.next_conn_id;
  loop.next_conn_id += loops_.size();
  conn->last_activity = std::chrono::steady_clock::now();
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = conn->id;
  if (::epoll_ctl(loop.epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
    ::close(fd);
    return;
  }
  loop.connections[conn->id] = std::move(conn);
}

void AdmissionServer::disarm_listener(EventLoop& loop) {
  if (!loop.listener_armed) return;
  epoll_event ev{};
  ev.events = 0;  // stay registered, report nothing
  ev.data.u64 = kListenerTag;
  (void)::epoll_ctl(loop.epoll_fd, EPOLL_CTL_MOD, loop.listen_fd, &ev);
  loop.listener_armed = false;
  loop.rearm_at = std::chrono::steady_clock::now() + config_.accept_backoff;
}

void AdmissionServer::rearm_listener(EventLoop& loop) {
  if (loop.listener_armed) return;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenerTag;
  (void)::epoll_ctl(loop.epoll_fd, EPOLL_CTL_MOD, loop.listen_fd, &ev);
  // Level-triggered: connections still parked in the backlog re-fire
  // EPOLLIN on the next wait immediately.
  loop.listener_armed = true;
}

void AdmissionServer::read_ready(EventLoop& loop, Connection& conn) {
  char buf[65536];
  bool peer_closed = false;
  conn.last_activity = std::chrono::steady_clock::now();
  while (true) {
    const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      const auto len = static_cast<std::size_t>(n);
      if (conn.is_http == -1) {
        conn.http_request.append(buf, len);
        // Classify on the first byte that rules "GET " out: a binary
        // client that writes fewer than 4 bytes and then waits (say, a
        // partial frame header) must still reach the FrameDecoder.
        const std::size_t have =
            std::min<std::size_t>(conn.http_request.size(), 4);
        if (conn.http_request.compare(0, have, "GET ", have) != 0) {
          conn.is_http = 0;
          conn.decoder.feed(conn.http_request.data(),
                            conn.http_request.size());
          conn.http_request.clear();
          conn.http_request.shrink_to_fit();
        } else if (conn.http_request.size() >= 4) {
          conn.is_http = 1;
        }
        // else: still an exact proper prefix of "GET "; keep sniffing.
      } else if (conn.is_http == 1) {
        conn.http_request.append(buf, len);
      } else {
        conn.decoder.feed(buf, len);
      }
      // Level-triggered epoll: a short read drained the socket, and
      // whatever arrives later (a FIN included) fires the next wait. A
      // further recv could only return EAGAIN.
      if (len < sizeof(buf)) break;
      continue;
    }
    if (n == 0) {
      peer_closed = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    peer_closed = true;  // fatal socket error
    break;
  }

  if (conn.is_http == 1) {
    if (conn.http_request.size() > config_.max_http_request) {
      conn.dead = true;
    } else if (conn.http_request.find("\r\n\r\n") != std::string::npos) {
      handle_http(loop, conn);
    }
  } else if (conn.is_http == 0) {
    Frame frame;
    while (!conn.dead && !conn.close_after_flush) {
      const FrameDecoder::Status status = conn.decoder.next(frame);
      if (status == FrameDecoder::Status::kNeedMore) break;
      if (status == FrameDecoder::Status::kError) {
        send_protocol_error(loop, conn, conn.decoder.error());
        break;
      }
      handle_frame(loop, conn, frame);
    }
    submit_staged(loop, conn);
  }

  if (conn.dead || peer_closed ||
      (conn.close_after_flush && conn.write_pos == conn.write_buffer.size())) {
    // A half-closed peer that still owes us a flush keeps the connection
    // until the buffer empties only if it asked for a response; with the
    // read side gone we cannot tell, so close outright.
    close_connection(loop, conn.id);
  }
}

void AdmissionServer::write_ready(EventLoop& loop, Connection& conn) {
  flush(conn);
  if (conn.dead ||
      (conn.close_after_flush && conn.write_pos == conn.write_buffer.size())) {
    close_connection(loop, conn.id);
    return;
  }
  update_epoll(loop, conn);
}

void AdmissionServer::handle_frame(EventLoop& loop, Connection& conn,
                                   const Frame& frame) {
  std::string error;
  // The stage is capped at the gateway's batch size, so a client that
  // pipelines far ahead meets the same ring room (and the same queue-full
  // sheds) as it would frame by frame.
  const auto cap_stage = [&] {
    if (loop.staged_jobs.size() >= config_.gateway.batch_size) {
      submit_staged(loop, conn);
    }
  };
  switch (frame.type) {
    case FrameType::kSubmit: {
      SubmitMsg msg;
      if (!parse_submit(frame, msg, &error)) {
        send_protocol_error(loop, conn, error);
        return;
      }
      loop.staged_jobs.push_back(msg.job);
      loop.staged_request_ids.push_back(msg.request_id);
      cap_stage();
      return;
    }
    case FrameType::kSubmitBatch: {
      std::uint64_t base = 0;
      // Decoded into the loop's reusable scratch (one memcpy on matching
      // layouts), then appended to the stage: no per-frame allocation.
      if (!parse_submit_batch_into(frame, base, loop.batch_scratch,
                                   &error)) {
        send_protocol_error(loop, conn, error);
        return;
      }
      loop.staged_jobs.insert(loop.staged_jobs.end(),
                              loop.batch_scratch.begin(),
                              loop.batch_scratch.end());
      for (std::size_t i = 0; i < loop.batch_scratch.size(); ++i) {
        loop.staged_request_ids.push_back(base + i);
      }
      cap_stage();
      return;
    }
    case FrameType::kPing: {
      std::uint64_t token = 0;
      if (!parse_token(frame, token, &error)) {
        send_protocol_error(loop, conn, error);
        return;
      }
      submit_staged(loop, conn);  // the PONG follows the jobs before it
      encode_pong(output(conn), token);
      send_output(loop, conn);
      return;
    }
    case FrameType::kDrain:
      // A DRAIN in the same write as earlier SUBMITs finds them submitted.
      submit_staged(loop, conn);
      handle_drain(loop, conn);
      return;
    case FrameType::kError:
      // The peer reported a violation on our stream; nothing to answer.
      submit_staged(loop, conn);
      conn.dead = true;
      return;
    case FrameType::kDecision:
    case FrameType::kReject:
    case FrameType::kDrained:
    case FrameType::kPong:
      send_protocol_error(loop, conn,
                          "server-bound stream carried a "
                          "server-to-client frame");
      return;
  }
  send_protocol_error(loop, conn, "unhandled frame type");
}

RejectMsg AdmissionServer::make_reject(std::uint64_t request_id,
                                       JobId job_id, Outcome outcome) const {
  RejectMsg msg;
  msg.request_id = request_id;
  msg.job_id = job_id;
  msg.outcome = outcome;
  if (outcome == Outcome::kRejectedRetryAfter) {
    msg.retry_after_ms =
        static_cast<std::uint32_t>(gateway_->retry_after().count());
  }
  return msg;
}

void AdmissionServer::submit_staged(EventLoop& loop, Connection& conn) {
  const std::span<const Job> jobs(loop.staged_jobs);
  const std::span<const std::uint64_t> request_ids(loop.staged_request_ids);
  if (jobs.empty()) return;
  // Open the tickets BEFORE the submit: the shard may render a decision
  // (and post it) before submit() even returns. Job i's ticket is
  // first + i, exactly the route_ctx + i the gateway echoes for it. After
  // a drain the gateway answers every job kRejectedClosed, and the
  // tickets go straight back below.
  const std::uint64_t first = loop.ticket_base + loop.tickets.size();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    loop.tickets.push_back(
        TicketSlot{conn.id, request_ids[i], jobs[i].id, true});
  }
  conn.owed += static_cast<std::uint32_t>(jobs.size());
  const std::uint64_t route_ctx =
      static_cast<std::uint64_t>(loop.index) << kLoopShift | first;
  std::vector<Outcome>& statuses = loop.status_scratch;
  statuses.resize(jobs.size());
  (void)gateway_->submit_batch(jobs, statuses, route_ctx);
  // Shed synchronously: no decision will follow, so the ticket is retired
  // now and the REJECT leaves with this pass's other answers.
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (statuses[i] == Outcome::kEnqueued) continue;
    retire_ticket(loop, loop.tickets[first + i - loop.ticket_base], &conn);
    encode_reject(output(conn),
                  make_reject(request_ids[i], jobs[i].id, statuses[i]));
    touch(loop, conn);
  }
  // Decisions the submit rendered on this thread for this loop's tickets,
  // after those other threads already posted: a shard decided those
  // before this thread claimed its role, and replies keep decision order.
  if (!loop.decided_here.empty()) {
    resolve_decisions(loop);
    answer(loop, loop.decided_here);
    loop.decided_here.clear();
  }
  send_touched(loop);
  loop.staged_jobs.clear();
  loop.staged_request_ids.clear();
}

void AdmissionServer::handle_drain(EventLoop& loop, Connection& conn) {
  if (!drained_.load(std::memory_order_acquire)) {
    // finish() blocks this loop thread while the shards drain their
    // queues. Decision hooks keep firing meanwhile, but they only post to
    // per-loop inboxes and signal eventfds — no deadlock — and by the
    // time finish() returns every decision has been rendered and posted.
    finish_gateway();
  }
  // Wake the other loops: with drained_ set they resolve their inboxes
  // and reject their own leftovers on the next eventfd wake.
  for (auto& other : loops_) {
    if (other.get() != &loop) wake_loop(*other);
  }
  settle(loop);
  DrainedMsg msg;
  {
    std::lock_guard lock(result_mutex_);
    msg.submitted = result_.merged.submitted;
    msg.accepted = result_.merged.accepted;
    msg.rejected = result_.merged.rejected;
    msg.accepted_volume = result_.merged.accepted_volume;
    msg.rejected_volume = result_.merged.rejected_volume;
    msg.makespan = result_.merged.makespan;
    msg.clean = result_.clean() ? 1 : 0;
  }
  encode_drained(output(conn), msg);
  send_output(loop, conn);
}

void AdmissionServer::settle(EventLoop& loop) {
  // drained_ is read BEFORE the inbox is taken. It turns true only after
  // every shard joined, so by then every decision is already posted: a
  // ticket still live after this resolve will never be decided. Read
  // after, a decision posted between the take and the read would lose to
  // a wrong REJECT closed.
  const bool drained = drained_.load(std::memory_order_acquire);
  resolve_decisions(loop);
  send_touched(loop);
  if (drained) reject_leftovers(loop);
}

void AdmissionServer::retire_ticket(EventLoop& loop, TicketSlot& slot,
                                    Connection* conn) {
  slot.live = false;
  if (conn != nullptr) --conn->owed;
  while (!loop.tickets.empty() && !loop.tickets.front().live) {
    loop.tickets.pop_front();
    ++loop.ticket_base;
  }
}

void AdmissionServer::resolve_decisions(EventLoop& loop) {
  loop.resolving.clear();
  {
    // Swap, don't copy: both vectors keep their high-water capacity.
    std::lock_guard lock(loop.inbox_mutex);
    loop.resolving.swap(loop.inbox);
  }
  answer(loop, loop.resolving);
}

void AdmissionServer::touch(EventLoop& loop, Connection& conn) {
  if (conn.touched) return;
  conn.touched = true;
  loop.touched.push_back(&conn);
}

void AdmissionServer::send_touched(EventLoop& loop) {
  // One send per connection per pass, however many answers it got.
  for (Connection* c : loop.touched) {
    c->touched = false;
    send_output(loop, *c);
  }
  loop.touched.clear();
}

void AdmissionServer::answer(EventLoop& loop,
                             const std::vector<PostedDecision>& decisions) {
  Connection* conn = nullptr;  // consecutive decisions mostly share one
  for (const PostedDecision& posted : decisions) {
    // A ticket outside the window or already retired has been answered
    // (a drain's REJECT): its late decision resolves to nothing.
    const std::uint64_t offset = posted.ticket - loop.ticket_base;
    if (posted.ticket < loop.ticket_base || offset >= loop.tickets.size()) {
      continue;
    }
    TicketSlot& slot = loop.tickets[offset];
    if (!slot.live || slot.job_id != posted.job_id) continue;
    if (conn == nullptr || conn->id != slot.conn_id) {
      auto it = loop.connections.find(slot.conn_id);
      conn = it == loop.connections.end() ? nullptr : it->second.get();
    }
    if (conn != nullptr) {  // else the client left: drop the answer
      DecisionMsg msg;
      msg.request_id = slot.request_id;
      msg.job_id = posted.job_id;
      msg.outcome = posted.outcome;
      msg.machine = posted.machine;
      msg.start = posted.start;
      encode_decision(output(*conn), msg);
      touch(loop, *conn);
    }
    retire_ticket(loop, slot, conn);
  }
}

void AdmissionServer::reject_leftovers(EventLoop& loop) {
  // A leftover means the job was enqueued but its shard never rendered a
  // decision (poisoned by an illegal commitment, or the worker crashed
  // without a restart). The submission contract still owes one answer:
  // closed, no decision, under the job id it was submitted with. The
  // window's front is always live: retire_ticket pops the answered prefix.
  while (!loop.tickets.empty()) {
    TicketSlot& slot = loop.tickets.front();
    auto it = loop.connections.find(slot.conn_id);
    Connection* conn =
        it == loop.connections.end() ? nullptr : it->second.get();
    if (conn != nullptr) {
      encode_reject(output(*conn),
                    make_reject(slot.request_id, slot.job_id,
                                Outcome::kRejectedClosed));
      send_output(loop, *conn);
    }
    retire_ticket(loop, slot, conn);
  }
}

void AdmissionServer::handle_http(EventLoop& loop, Connection& conn) {
  const std::size_t line_end = conn.http_request.find("\r\n");
  const std::string request_line = conn.http_request.substr(0, line_end);
  std::string body;
  std::string status = "200 OK";
  if (request_line.compare(0, 13, "GET /metrics ") == 0 ||
      request_line.compare(0, 6, "GET / ") == 0) {
    ExporterInput input = collect_exporter_input(*gateway_);
    input.connections_reaped = connections_reaped();
    input.accept_errors = accept_errors();
    body = render_prometheus(input);
  } else {
    status = "404 Not Found";
    body = "only GET /metrics is served here\n";
  }
  const std::string response = "HTTP/1.0 " + status +
                               "\r\nContent-Type: text/plain; version=0.0.4"
                               "\r\nContent-Length: " +
                               std::to_string(body.size()) +
                               "\r\nConnection: close\r\n\r\n" + body;
  conn.close_after_flush = true;
  std::vector<char>& out = output(conn);
  out.insert(out.end(), response.begin(), response.end());
  send_output(loop, conn);
}

void AdmissionServer::send_protocol_error(EventLoop& loop, Connection& conn,
                                          const std::string& message) {
  // The valid SUBMITs before the bad frame are still owed their answers.
  submit_staged(loop, conn);
  encode_error(output(conn), message);
  conn.close_after_flush = true;
  send_output(loop, conn);
}

std::vector<char>& AdmissionServer::output(Connection& conn) {
  // Compact the flushed prefix when it dominates the buffer.
  if (conn.write_pos > 0 && (conn.write_pos == conn.write_buffer.size() ||
                             conn.write_pos >= 65536)) {
    conn.write_buffer.erase(
        conn.write_buffer.begin(),
        conn.write_buffer.begin() +
            static_cast<std::ptrdiff_t>(conn.write_pos));
    conn.write_pos = 0;
  }
  return conn.write_buffer;
}

void AdmissionServer::send_output(EventLoop& loop, Connection& conn) {
  if (conn.dead) return;
  // Output owed to the peer is activity too: a client quietly waiting for
  // a slow decision is not idle once the reply is on its way.
  conn.last_activity = std::chrono::steady_clock::now();
  flush(conn);
  if (!conn.dead) update_epoll(loop, conn);
}

void AdmissionServer::flush(Connection& conn) {
  while (conn.write_pos < conn.write_buffer.size()) {
    const ssize_t n =
        ::send(conn.fd, conn.write_buffer.data() + conn.write_pos,
               conn.write_buffer.size() - conn.write_pos, MSG_NOSIGNAL);
    if (n > 0) {
      conn.write_pos += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    // Peer reset. The socket now reports HUP/ERR (or a failing read) on
    // the loop's next wait, which closes it at a safe point.
    conn.dead = true;
    return;
  }
}

void AdmissionServer::update_epoll(EventLoop& loop, Connection& conn) {
  const bool want_out = conn.write_pos < conn.write_buffer.size();
  if (want_out == conn.epollout) return;  // registration already matches
  conn.epollout = want_out;
  epoll_event ev{};
  ev.events = EPOLLIN | (want_out ? EPOLLOUT : 0u);
  ev.data.u64 = conn.id;
  (void)::epoll_ctl(loop.epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev);
}

void AdmissionServer::close_connection(EventLoop& loop,
                                       std::uint64_t conn_id) {
  auto it = loop.connections.find(conn_id);
  if (it == loop.connections.end()) return;
  const int fd = it->second->fd;
  (void)::epoll_ctl(loop.epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  loop.connections.erase(it);
  // Tickets this connection still holds stay live; their decisions are
  // dropped at resolve when the lookup fails.
}

void AdmissionServer::reap_idle(EventLoop& loop,
                                std::chrono::steady_clock::time_point now) {
  // A connection owed an answer (slow shard, durability wait) is
  // never reaped, however long the wire stays silent: one answer per
  // SUBMIT outranks idleness. Tickets open and retire only on this (the
  // loop) thread, so `owed` is exact here — it drops when the DECISION is
  // written, never while one is still in the inbox.
  std::vector<std::uint64_t> expired;
  for (const auto& [id, conn] : loop.connections) {
    if (conn->owed > 0 || now - conn->last_activity < config_.idle_timeout) {
      continue;
    }
    expired.push_back(id);
  }
  for (const std::uint64_t id : expired) {
    // Counted first: a peer that sees the close also sees the count.
    connections_reaped_.fetch_add(1, std::memory_order_relaxed);
    close_connection(loop, id);
  }
}

}  // namespace slacksched::net
