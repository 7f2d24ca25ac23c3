/// \file
/// The networked admission front end: an epoll-based, non-blocking TCP
/// server that speaks the admission wire protocol (net/protocol.hpp) in
/// front of an AdmissionGateway. The server runs N shared-nothing event
/// loops (AdmissionServerConfig::loops); each loop owns its own epoll set,
/// eventfd, connections, ticket window and decision inbox, so loops never
/// contend on shared state. Connections are partitioned across loops at
/// accept time by per-loop SO_REUSEPORT listeners: the kernel balances new
/// connections, and startup fails if it refuses the option.
/// Every submission takes a ticket from its loop's window, and its
/// route_ctx carries (loop << 56) | ticket to the shard and back: a shard
/// thread only posts the plain decision to the owning loop, which resolves
/// the ticket, encodes the DECISION and flushes each connection once per
/// wake-up. The decision hot path never blocks on a socket. On the way
/// in, every SUBMIT and SUBMIT_BATCH one socket read pass decodes goes to
/// the gateway as one submit_batch, so a burst of lone SUBMITs costs each
/// shard one ring claim and at most one wake-up, not one per frame. On a
/// shard without a WAL that submit_batch usually decides the jobs on the
/// loop's own thread (the shard's combining hand-off); a decision rendered
/// there for one of the loop's own tickets is answered at the end of the
/// same pass, with no inbox lock and no eventfd write.
///
/// Contract: every SUBMIT is answered by exactly one DECISION (the shard's
/// scheduler rendered accept/reject — with the committed machine and start
/// on accept) or one REJECT (shed before any scheduler saw the job: queue
/// full, gateway closed, or retry-after backoff when every shard is down).
/// SUBMIT_BATCH is answered as if each job were submitted individually.
/// A DRAIN frame quiesces the gateway through the exact shutdown path the
/// in-process API uses (AdmissionGateway::finish(): close queues, join
/// consumers, final metrics publish) and answers with a DRAINED frame
/// whose counters equal the returned GatewayResult's merged metrics.
///
/// The same port also answers plain-text HTTP: a connection whose first
/// bytes are "GET " is served the Prometheus exposition page
/// (service/metrics_exporter.hpp) with HTTP/1.0 semantics and closed.
/// After a drain the page keeps serving the final counters, so scrapers
/// observe exactly the numbers the DRAINED frame reported.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/protocol.hpp"
#include "service/gateway.hpp"

namespace slacksched::net {

/// Deployment shape of the network front end.
struct AdmissionServerConfig {
  /// IPv4 address to bind; loopback by default (tests and benches).
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back with port()).
  std::uint16_t port = 0;
  int backlog = 128;
  /// Number of shared-nothing event loops, 1..256 (a route_ctx carries
  /// the loop in its top 8 bits). Each loop owns its own epoll set,
  /// connections, ticket window and decision inbox; a connection lives on
  /// one loop for its whole life. 1 reproduces the original single-loop
  /// server exactly.
  int loops = 1;
  /// Cap on a buffered HTTP request head; longer requests are closed.
  std::size_t max_http_request = 8192;
  /// Close a connection once this long has passed without traffic in
  /// either direction (reads, or bytes queued/flushed toward the peer).
  /// Zero disables reaping — the pre-reaper behavior, where an abandoned
  /// connection holds its fd until the peer resets or the server shuts
  /// down. Reaped closes are counted in connections_reaped(). Connections
  /// owed an answer are exempt: one-answer-per-SUBMIT outlives any idle
  /// deadline (a slow shard or a durability wait can hold an answer).
  std::chrono::milliseconds idle_timeout{0};
  /// How often each event loop wakes to scan for idle connections when
  /// idle_timeout is enabled; bounds how far past its deadline a
  /// connection can linger. Ignored (the loop blocks indefinitely) when
  /// idle_timeout is zero.
  std::chrono::milliseconds reap_interval{1000};
  /// How long a loop keeps its listener disarmed after accept4 failed for
  /// lack of resources (EMFILE/ENFILE/ENOBUFS/ENOMEM). Without the pause
  /// a level-triggered listener would hot-spin: the backlog keeps the fd
  /// readable while every accept keeps failing.
  std::chrono::milliseconds accept_backoff{100};
  /// The gateway behind the listener. Validated before anything binds:
  /// the constructor throws a PreconditionError naming every problem
  /// GatewayConfig::validate() reports, and the server never starts.
  GatewayConfig gateway;

  /// Checks every server knob (and the nested gateway config, whose
  /// problems are prefixed "gateway: "). Returns one human-readable
  /// message per problem; empty means valid. The constructor throws a
  /// PreconditionError listing every message before any socket exists.
  [[nodiscard]] std::vector<std::string> validate() const;
};

/// The server. Construction binds, listens, builds the gateway (wiring
/// its on_decision hook to the response path) and spawns the event-loop
/// threads; the listeners are accepting before the constructor returns.
/// A scheduler the gateway refuses (one that defers its decisions or runs
/// on related machines) fails construction with the gateway's message.
class AdmissionServer {
 public:
  AdmissionServer(const AdmissionServerConfig& config,
                  const ShardSchedulerFactory& factory);

  /// Stops the loops and finishes the gateway if no DRAIN ever did.
  ~AdmissionServer();

  AdmissionServer(const AdmissionServer&) = delete;
  AdmissionServer& operator=(const AdmissionServer&) = delete;

  /// The bound TCP port (the actual one when config.port was 0).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// True once a DRAIN frame (or shutdown()) quiesced the gateway.
  [[nodiscard]] bool drained() const {
    return drained_.load(std::memory_order_acquire);
  }

  /// Stops accepting, closes every connection, joins the event loops, and
  /// returns the gateway's final result (draining it first if no client
  /// ever sent DRAIN). Idempotent; the destructor calls it.
  GatewayResult shutdown();

  /// Live gateway access (metrics snapshots, supervisor) for embedding
  /// processes; network clients use the protocol instead. Jobs submitted
  /// here directly must keep route_ctx 0: nonzero contexts are tickets.
  [[nodiscard]] AdmissionGateway& gateway() { return *gateway_; }

  /// Connections closed by the idle reaper since the server started
  /// (exported as slacksched_connections_reaped_total on /metrics).
  [[nodiscard]] std::uint64_t connections_reaped() const {
    return connections_reaped_.load(std::memory_order_relaxed);
  }

  /// accept4 failures since the server started (exported as
  /// slacksched_accept_errors_total on /metrics). Resource exhaustion
  /// (EMFILE/ENFILE/ENOBUFS/ENOMEM) additionally disarms the failing
  /// loop's listener for accept_backoff.
  [[nodiscard]] std::uint64_t accept_errors() const {
    return accept_errors_.load(std::memory_order_relaxed);
  }

  /// The configured loop count.
  [[nodiscard]] int loops() const { return config_.loops; }

 private:
  struct Connection {
    int fd = -1;
    std::uint64_t id = 0;
    FrameDecoder decoder;
    /// Bytes queued for the socket; drained on EPOLLOUT.
    std::vector<char> write_buffer;
    std::size_t write_pos = 0;
    /// -1 until sniffed; 1 = HTTP ("GET " prefix), 0 = binary protocol.
    int is_http = -1;
    std::string http_request;
    bool close_after_flush = false;
    /// Set on a fatal socket error mid-handling; the loop closes the
    /// connection at the next safe point instead of mid-callback.
    bool dead = false;
    /// EPOLLOUT is registered (output is buffered behind a full socket).
    bool epollout = false;
    /// Already on the loop's `touched` list in this resolve pass.
    bool touched = false;
    /// Live tickets this connection holds: submissions still owed an
    /// answer. The reaper spares any connection with a nonzero count.
    std::uint32_t owed = 0;
    /// Last observed traffic (accept, readable bytes, or queued output);
    /// the reaper compares this against idle_timeout.
    std::chrono::steady_clock::time_point last_activity{};
  };

  /// One submission awaiting its answer: slot `ticket - ticket_base` of
  /// the owning loop's ticket window.
  struct TicketSlot {
    std::uint64_t conn_id = 0;
    std::uint64_t request_id = 0;
    JobId job_id = 0;
    bool live = false;
  };

  /// A rendered decision as the deciding thread hands it to the owning
  /// loop: plain data, no lookup and no encoding on the deciding thread.
  struct PostedDecision {
    std::uint64_t ticket = 0;
    JobId job_id = 0;
    double start = 0.0;
    std::int32_t machine = -1;
    Outcome outcome = Outcome::kRejected;
  };

  /// One shared-nothing event loop: epoll set, wake eventfd, its own
  /// SO_REUSEPORT listener, the connections it owns, its ticket window and
  /// the inbox other threads post its decisions to. Everything without a
  /// mutex is loop-thread-only.
  struct EventLoop {
    int index = 0;
    int epoll_fd = -1;
    int event_fd = -1;  ///< wakes the loop: decisions, shutdown
    int listen_fd = -1;
    std::thread thread;

    // --- loop-thread-only state ---
    std::uint64_t next_conn_id = 0;
    std::unordered_map<std::uint64_t, std::unique_ptr<Connection>>
        connections;
    /// Listener backoff after resource-exhausted accepts: disarmed in
    /// epoll until rearm_at.
    bool listener_armed = true;
    std::chrono::steady_clock::time_point rearm_at{};
    /// The jobs every SUBMIT and SUBMIT_BATCH of the current read pass
    /// decoded, each next to its own request id. The pass hands them to
    /// the gateway as one submit_batch (submit_staged); all four are reused
    /// across passes.
    std::vector<Job> staged_jobs;
    std::vector<std::uint64_t> staged_request_ids;
    /// SUBMIT_BATCH decode target before its jobs join the stage.
    std::vector<Job> batch_scratch;
    std::vector<Outcome> status_scratch;
    /// Ticket window: tickets are issued in submission order, slot i holds
    /// ticket ticket_base + i, and the answered prefix is popped, so the
    /// window spans the oldest unanswered submission onward. Ticket 0 is
    /// never issued: route_ctx 0 means "no context".
    std::deque<TicketSlot> tickets;
    std::uint64_t ticket_base = 1;
    /// Swap target of `inbox` and the connections a resolve pass wrote
    /// to; both reused across wake-ups.
    std::vector<PostedDecision> resolving;
    std::vector<Connection*> touched;
    /// Decisions rendered on this loop's thread, inside its own
    /// submit_batch, for its own tickets; answered by submit_staged.
    std::vector<PostedDecision> decided_here;

    // --- shared with the threads that decide for other loops ---
    std::mutex inbox_mutex;
    std::vector<PostedDecision> inbox;
  };

  /// The gateway's on_decision hook target: posts the decision to the
  /// loop named by route_ctx's top 8 bits, waking it when its inbox was
  /// empty. Runs on whichever thread holds the deciding shard's consumer
  /// role; on the owning loop's own thread it only stages the decision in
  /// decided_here.
  void on_gateway_decision(const Job& job, const Decision& decision,
                           std::uint64_t route_ctx);

  void event_loop(EventLoop& loop);
  void accept_ready(EventLoop& loop);
  /// Registers a freshly accepted socket with `loop`'s epoll set.
  void adopt_connection(EventLoop& loop, int fd);
  void disarm_listener(EventLoop& loop);
  void rearm_listener(EventLoop& loop);
  void wake_loop(EventLoop& loop);
  void read_ready(EventLoop& loop, Connection& conn);
  void write_ready(EventLoop& loop, Connection& conn);
  /// SUBMIT and SUBMIT_BATCH only stage their jobs; every other frame
  /// first submits what is staged, so it sees the earlier jobs submitted.
  void handle_frame(EventLoop& loop, Connection& conn, const Frame& frame);
  /// Submits the stage and empties it: one ticket per staged job, then
  /// one gateway submit_batch; synchronously shed jobs give their tickets
  /// back and are answered with REJECT at once, each under its own
  /// request id, and the decisions the submit rendered on this thread for
  /// this loop are answered with them. Called before any non-submit frame
  /// or protocol error, once the stage reaches the gateway's batch_size,
  /// and at the end of each read pass.
  void submit_staged(EventLoop& loop, Connection& conn);
  void handle_drain(EventLoop& loop, Connection& conn);
  void handle_http(EventLoop& loop, Connection& conn);
  /// The connection's write buffer, ready for frames to be appended (the
  /// flushed prefix compacted away). Follow the appends with
  /// send_output().
  std::vector<char>& output(Connection& conn);
  /// Stamps the activity clock, writes what the socket takes now and arms
  /// EPOLLOUT for the rest.
  void send_output(EventLoop& loop, Connection& conn);
  void send_protocol_error(EventLoop& loop, Connection& conn,
                           const std::string& message);
  void flush(Connection& conn);
  void update_epoll(EventLoop& loop, Connection& conn);
  void close_connection(EventLoop& loop, std::uint64_t conn_id);
  /// Closes every connection on `loop` whose last_activity is older than
  /// idle_timeout and which is owed no answer. Called from the loop on
  /// its reap_interval tick.
  void reap_idle(EventLoop& loop, std::chrono::steady_clock::time_point now);
  /// Marks `slot` answered: its connection owes one answer less, and the
  /// answered prefix of the window is popped.
  void retire_ticket(EventLoop& loop, TicketSlot& slot, Connection* conn);
  /// Takes the inbox and answers it (see answer); the caller flushes.
  void resolve_decisions(EventLoop& loop);
  /// Resolves every decision's ticket to its connection and encodes the
  /// DECISIONs into the write buffers, touching each connection written.
  /// Decisions for departed clients are dropped.
  void answer(EventLoop& loop, const std::vector<PostedDecision>& decisions);
  /// Queues `conn` for this pass's flush (once).
  void touch(EventLoop& loop, Connection& conn);
  /// Flushes every touched connection once and clears the list.
  void send_touched(EventLoop& loop);
  /// Answers every still-live ticket on `loop` with REJECT closed.
  void reject_leftovers(EventLoop& loop);
  /// Resolves the inbox, then — when the gateway had already drained
  /// before it was taken — rejects the leftovers.
  void settle(EventLoop& loop);
  /// Runs gateway finish() once and caches the result.
  void finish_gateway();
  RejectMsg make_reject(std::uint64_t request_id, JobId job_id,
                        Outcome outcome) const;

  AdmissionServerConfig config_;
  std::unique_ptr<AdmissionGateway> gateway_;
  std::uint16_t port_ = 0;
  std::vector<std::unique_ptr<EventLoop>> loops_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> drained_{false};
  std::atomic<bool> shutdown_done_{false};
  std::atomic<std::uint64_t> connections_reaped_{0};
  std::atomic<std::uint64_t> accept_errors_{0};

  /// Serializes gateway finish() across loop threads racing a DRAIN.
  std::mutex finish_mutex_;
  std::mutex result_mutex_;
  GatewayResult result_;  ///< valid once drained_
};

}  // namespace slacksched::net
