/// \file
/// Client side of the admission wire protocol: a blocking TCP client with
/// connection-level pipelining. submit()/submit_batch() only write frames;
/// replies are pulled with wait_reply() whenever the caller wants them, so
/// a client can keep thousands of submissions in flight on one connection
/// without a round trip per job. Replies to pipelined submissions arrive
/// in the server's decision order (per shard FIFO), matched to requests by
/// request_id.
///
/// Every submission is eventually answered by exactly one reply: either a
/// rendered decision (kAccepted with machine+start, or kRejected) or a
/// shed outcome (kRejectedQueueFull, kRejectedClosed, kRejectedRetryAfter
/// with a backoff hint). drain() asks the server to quiesce the gateway
/// and returns the final merged counters; outstanding replies that arrive
/// before DRAINED are buffered and stay retrievable via try_reply().
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <unordered_map>

#include "common/health.hpp"
#include "job/job.hpp"
#include "net/protocol.hpp"

namespace slacksched::net {

/// Opens a TCP connection to host:port, failing after `timeout` instead of
/// blocking indefinitely on an unreachable peer (non-blocking connect +
/// poll; the returned descriptor is blocking again, TCP_NODELAY set).
/// Throws NetError on refusal, timeout, or a bad address. Shared by the
/// admission client and the commit-log replicator (replication/).
[[nodiscard]] int connect_with_timeout(const std::string& host,
                                       std::uint16_t port,
                                       std::chrono::milliseconds timeout);

/// Client connection knobs.
struct ClientConfig {
  /// Longest a constructor blocks establishing the connection.
  std::chrono::milliseconds connect_timeout{5000};
};

/// Client-side retry schedule for shed submissions (kRejectedQueueFull /
/// kRejectedRetryAfter): the shared Backoff, never sleeping less than the
/// server's retry_after_ms hint. Opt-in — the plain AdmissionClient
/// surfaces every shed outcome as-is.
struct RetryPolicy {
  /// Total tries per job, first submission included (<= 0: unlimited).
  int max_attempts = 6;
  /// Equal seeds replay equal schedules; concurrent clients with distinct
  /// seeds decorrelate their retry bursts.
  Backoff backoff{std::chrono::milliseconds(2), 2.0,
                  std::chrono::milliseconds(250)};

  /// Backoff before retry number `attempt` (1-based), raised to the
  /// server's hint when that is larger — it knows its recovery time.
  [[nodiscard]] std::chrono::milliseconds delay(
      int attempt, std::uint32_t server_hint_ms) const {
    return std::max(backoff.delay(attempt),
                    std::chrono::milliseconds(server_hint_ms));
  }
};

/// One answer to one submission (DECISION or REJECT frame).
struct DecisionReply {
  std::uint64_t request_id = 0;
  JobId job_id = 0;
  Outcome outcome = Outcome::kRejectedClosed;
  int machine = -1;  ///< committed machine (kAccepted only)
  double start = 0.0;  ///< committed start time (kAccepted only)
  std::uint32_t retry_after_ms = 0;  ///< backoff hint (kRejectedRetryAfter)

  /// True iff a scheduler rendered this answer (accept or reject), as
  /// opposed to the job being shed before reaching one.
  [[nodiscard]] bool is_decision() const {
    return outcome_is_decision(outcome);
  }
};

/// A connected protocol client. Not thread-safe: one connection, one
/// thread (open several clients for concurrent load).
class AdmissionClient {
 public:
  /// Connects (bounded by config.connect_timeout) or throws NetError.
  AdmissionClient(const std::string& host, std::uint16_t port,
                  const ClientConfig& config = {});
  ~AdmissionClient();

  AdmissionClient(const AdmissionClient&) = delete;
  AdmissionClient& operator=(const AdmissionClient&) = delete;

  /// Pipelined submit: writes the SUBMIT frame and returns its request id
  /// without waiting for the reply.
  std::uint64_t submit(const Job& job);

  /// Pipelined batch submit: one SUBMIT_BATCH frame per kMaxBatchJobs
  /// jobs; job i is answered under request id `returned + i`.
  std::uint64_t submit_batch(std::span<const Job> jobs);

  /// Blocks until the next reply (buffered or from the socket).
  DecisionReply wait_reply();

  /// Pops a buffered reply without touching the socket.
  bool try_reply(DecisionReply& out);

  /// Submissions written whose replies have not been read yet.
  [[nodiscard]] std::size_t outstanding() const { return outstanding_; }

  /// Convenience round trip: submit one job and wait for its reply.
  /// Requires no other submissions in flight.
  DecisionReply submit_wait(const Job& job);

  /// Liveness round trip; returns the echoed token. Replies to earlier
  /// pipelined submissions encountered on the way are buffered.
  std::uint64_t ping(std::uint64_t token);

  /// Sends DRAIN and blocks until DRAINED, buffering any outstanding
  /// replies that arrive first (retrieve them with try_reply()).
  DrainedMsg drain();

 private:
  void send_all(const std::vector<char>& bytes);
  /// Blocks until one complete frame arrives; throws NetError on close,
  /// stream corruption, or a peer ERROR frame.
  Frame read_frame();
  /// Parses a DECISION/REJECT frame into a reply (throws on other types).
  DecisionReply to_reply(const Frame& frame);

  int fd_ = -1;
  FrameDecoder decoder_;
  std::uint64_t next_request_id_ = 1;
  std::size_t outstanding_ = 0;
  std::deque<DecisionReply> ready_;
};

/// Pipelined submission with automatic retry of shed outcomes. Wraps an
/// AdmissionClient (not owned): enqueue() pipelines jobs, pump() surfaces
/// one *final* reply at a time — a job answered kRejectedQueueFull or
/// kRejectedRetryAfter is resubmitted after the policy's backoff until it
/// gets a real decision or exhausts max_attempts (the last shed outcome is
/// then surfaced). Replies are matched by job id, not request id: a
/// retried job is answered under a fresh request id each attempt.
///
/// Single-threaded like the client it wraps; the backoff sleep happens on
/// the pumping thread, with all other pipelined submissions still parked
/// server-side (retries delay only the retrying job's caller).
class RetryingSubmitter {
 public:
  RetryingSubmitter(AdmissionClient& client, RetryPolicy policy)
      : client_(client), policy_(policy) {}

  /// Pipelines one job (attempt 1).
  void enqueue(const Job& job);

  /// Pipelines a batch through AdmissionClient::submit_batch (each job at
  /// attempt 1); retries are per-job, resubmitted individually.
  void enqueue_batch(std::span<const Job> jobs);

  /// Blocks for the next final reply; false when nothing is in flight.
  [[nodiscard]] bool pump(DecisionReply& out);

  /// Jobs whose final reply pump() has not surfaced yet.
  [[nodiscard]] std::size_t in_flight() const { return pending_.size(); }

  /// Total resubmissions performed (shed outcomes retried).
  [[nodiscard]] std::uint64_t retries() const { return retries_; }

 private:
  struct Pending {
    Job job;
    int attempt = 1;
  };

  AdmissionClient& client_;
  RetryPolicy policy_;
  std::unordered_map<std::uint64_t, Pending> pending_;  ///< by request id
  std::uint64_t retries_ = 0;
};

/// One-shot plain HTTP scrape of the server's metrics page ("GET
/// /metrics" on the protocol port). Returns the exposition body; throws
/// NetError on connection failure or a non-200 status.
[[nodiscard]] std::string http_get_metrics(const std::string& host,
                                           std::uint16_t port);

}  // namespace slacksched::net
