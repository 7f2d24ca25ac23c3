/// \file
/// The sharded admission-gateway front end: S independent shards, each an
/// OnlineScheduler over its own machine group, fed through bounded MPSC
/// queues with explicit backpressure. The paper's model (immediate
/// commitment on m identical machines with slack eps) maps onto each shard
/// unchanged, and it is the only model served: a shard refuses a
/// scheduler that defers its decisions or runs on related machines. The
/// gateway adds the serving-side concerns — concurrent ingest, batching,
/// load shedding, durability, supervision, and live metrics — without
/// touching the algorithms.
///
/// Overload semantics: submissions are never silently dropped and never
/// block. When a shard's queue is full the submit call returns
/// Outcome::kRejectedQueueFull (and the shed job is counted in the
/// MetricsRegistry), so callers choose between retrying, rerouting, or
/// propagating the rejection upstream.
///
/// Failure semantics: with a wal_dir configured each shard appends every
/// accepted commitment to its own durable log before applying it, and the
/// supervisor restarts crashed shard workers in place from that log. A job
/// is decided on the shard the router chose or not at all: while that
/// shard is unavailable the gateway refuses the job with
/// kRejectedRetryAfter and the suggested back-off from retry_after(). Jobs
/// homed on the other shards are served as usual, and commitments never
/// move — they belong to the down shard's machine group and are replayed
/// there on restart.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "replication/replicator.hpp"
#include "sched/metrics.hpp"
#include "sched/online.hpp"
#include "service/commit_log.hpp"
#include "service/fault_injection.hpp"
#include "service/metrics_publisher.hpp"
#include "service/metrics_registry.hpp"
#include "service/outcome.hpp"
#include "service/router.hpp"
#include "service/shard.hpp"
#include "service/supervisor.hpp"
#include "service/trace_ring.hpp"

namespace slacksched {

/// Builds the scheduler owning shard `shard`'s machine group. Called once
/// per shard at gateway construction, and again on every supervised
/// restart of that shard.
using ShardSchedulerFactory =
    std::function<std::unique_ptr<OnlineScheduler>(int shard)>;

/// Invoked for every rendered, legal decision (see
/// GatewayConfig::on_decision). Calls arrive in decision order per shard,
/// on the thread that holds that shard's consumer role — its worker, or on
/// a shard without a WAL a producer inside submit()/submit_batch() — once
/// the decision's group has been decided whole. `route_ctx` is the opaque value the
/// producer passed to submit(), or `route_ctx + i` for job i of a
/// submit_batch() (0 by default, and 0 stays 0 for every job of a
/// batch: no context). The network front end stores (loop << 56) | ticket
/// there, so a decision routes straight to the reply slot of the loop
/// owning the submitting connection without any shared lookup.
using GatewayDecisionCallback =
    std::function<void(int shard, const Job& job, const Decision& decision,
                       std::uint64_t route_ctx)>;

/// Gateway deployment shape.
struct GatewayConfig {
  int shards = 1;
  /// Per-shard submission queue bound. Must be a power of two: the
  /// lock-free ring indexes slots with a mask, and silently rounding a
  /// bound the operator configured would skew shed-rate math.
  std::size_t queue_capacity = 4096;
  std::size_t batch_size = 256;       ///< max jobs per consumer pop
  RoutingPolicy routing = RoutingPolicy::kRoundRobin;
  /// Keep every shard's per-job decision log (ShardConfig twin). Off by
  /// default; collect decisions through on_decision instead.
  bool record_decisions = false;
  /// Pin shard s's consumer thread to CPU s mod hardware_concurrency for
  /// cache locality (shared-nothing shard loops stay on their core).
  /// Pinning is a locality hint, never a correctness requirement: a failed
  /// affinity call is ignored.
  bool pin_shards = false;

  // --- fault tolerance (see docs/service.md, "Failure model") ---
  /// Directory for the per-shard commit logs ("<wal_dir>/shard-<s>.wal").
  /// Empty disables durability and restart — the original in-memory-only
  /// gateway.
  std::string wal_dir;
  FsyncPolicy wal_fsync = FsyncPolicy::kBatch;
  /// Supervision policy (health FSM, restart backoff, circuit breaker).
  SupervisorConfig supervisor;
  /// Worker idle wake-up period (heartbeat cadence when the queue is
  /// empty); must stay well below supervisor.stall_threshold.
  std::chrono::milliseconds pop_timeout{50};
  /// Commit-log replication to a follower node (docs/replication.md):
  /// when engaged, every shard streams its WAL records to the configured
  /// ReplicaServer and publishes a group only once the follower acked it;
  /// while the follower is unreachable the shard admits nothing. Requires
  /// wal_dir — the replication stream is the WAL's write stream.
  std::optional<repl::ReplicationConfig> replication;
  /// Optional deterministic fault injector (tests/benches only).
  FaultInjector* fault_injector = nullptr;

  // --- observability (see docs/observability.md) ---
  /// Record one TraceEvent per rendered decision and ingest refusal into
  /// per-shard lock-free rings (service/trace_ring.hpp). Drop-on-full:
  /// tracing never blocks or slows ingest; drops are counted and exported.
  bool enable_tracing = false;
  /// Capacity of each shard's trace ring (must be a power of two).
  std::size_t trace_capacity = std::size_t{1} << 16;
  /// When non-empty, a background MetricsPublisher renders the Prometheus
  /// exposition page (service/metrics_exporter.hpp) and atomically
  /// replaces this file every metrics_period — the node-exporter
  /// textfile-collector contract.
  std::string metrics_textfile;
  /// Base publish period for the metrics textfile (jittered per cycle).
  std::chrono::milliseconds metrics_period{1000};

  // --- integration hooks (see net/admission_server.hpp) ---
  /// Per-decision notification: invoked on the thread that holds the
  /// deciding shard's consumer role (see submit_batch) after the decision
  /// is validated, counted and traced, in decision order within the
  /// shard. A shard publishes at its group boundary: it decides a group of
  /// popped batches whole (one pop without a WAL), then notifies each of
  /// its decisions (ShardConfig::on_decision). The network front end uses
  /// this to answer each SUBMIT frame; leave empty when unused. The
  /// callback runs on the decision hot path, possibly inside a submit: it
  /// must be fast, must not throw and must not call submit() or
  /// submit_batch().
  GatewayDecisionCallback on_decision;

  /// Checks the configuration for values that would otherwise misbehave
  /// at runtime (deadlocked heartbeats, silently resized rings, zero-period
  /// publishers). Returns one human-readable message per problem; empty
  /// means valid. AdmissionGateway's constructor throws a
  /// PreconditionError listing every message, and AdmissionServer refuses
  /// to start on the same list.
  [[nodiscard]] std::vector<std::string> validate() const;
};

/// Per-batch ingest outcome (counts; pass `statuses` for per-job detail).
/// kEnqueue ingest faults are counted in rejected_queue_full.
struct BatchSubmitResult {
  std::size_t enqueued = 0;
  std::size_t rejected_queue_full = 0;
  std::size_t rejected_closed = 0;
  std::size_t rejected_retry_after = 0;
  /// Refused as outside the served instance class (kRejectedInvalid).
  std::size_t rejected_invalid = 0;
};

/// Everything a finished gateway run produced: one ShardResult per shard
/// (its RunMetrics, its m busy-until marks, a decision log only with
/// record_decisions, and its first commitment violation), the merged
/// RunMetrics, and the final metrics snapshot. For a shard whose worker
/// failed on a WAL, the ShardResult is reconstructed from its commit log
/// (the durable truth) and the fatal error is reported in `errors`.
struct GatewayResult {
  std::vector<ShardResult> shards;
  RunMetrics merged;
  MetricsSnapshot metrics;
  /// Fatal per-shard worker errors ("shard 2: injected fault: ...");
  /// empty when every worker exited cleanly.
  std::vector<std::string> errors;

  /// True iff no worker died and no shard attempted an illegal
  /// commitment.
  [[nodiscard]] bool clean() const;

  /// First commitment violation across shards (empty when there is none;
  /// a dead worker's error is in `errors`).
  [[nodiscard]] std::string first_violation() const;
};

/// The service front end. Thread-safe ingest: any number of producer
/// threads may call submit()/submit_batch() concurrently; each shard's
/// decisions are rendered by whichever thread holds its consumer role, one
/// at a time: its worker, or on a shard without a WAL the submitting
/// thread itself.
class AdmissionGateway {
 public:
  /// Throws a PreconditionError for an invalid config, and for a
  /// scheduler that does not commit on arrival on identical machines.
  AdmissionGateway(const GatewayConfig& config,
                   const ShardSchedulerFactory& factory);

  /// Shuts down (close + join) if finish() was never called.
  ~AdmissionGateway();

  AdmissionGateway(const AdmissionGateway&) = delete;
  AdmissionGateway& operator=(const AdmissionGateway&) = delete;

  /// Routes and enqueues one job: submit_batch on a batch of one. Returns
  /// kEnqueued or one of the kRejected* outcomes. `route_ctx` travels with
  /// the job and is echoed verbatim to on_decision — on a shard without a
  /// WAL usually before submit returns, on the calling thread.
  [[nodiscard]] Outcome submit(const Job& job, std::uint64_t route_ctx = 0);

  /// The gateway's only ingest path. Non-blocking: refuses with
  /// kRejectedInvalid a job outside the served instance class
  /// (Job::servable at served_slack()), routes every other job, refuses
  /// one whose shard is unavailable with kRejectedRetryAfter, then claims
  /// each shard's group with one CAS on that shard's lock-free ring. Jobs
  /// keep their relative order within a shard. When `statuses` is
  /// non-empty it must have jobs.size() entries and receives the per-job
  /// outcome. jobs[i] is echoed to on_decision with `route_ctx + i` (0 when
  /// `route_ctx` is 0), so a producer can number a batch's jobs with one
  /// value.
  ///
  /// Once every group is queued, each shard is handed its jobs
  /// (Shard::hand_off). On a shard without a WAL whose consumer role is
  /// free, the calling thread claims it and decides up to queue_capacity
  /// queued jobs — its own and other producers' — running their
  /// on_decision hooks here before it returns; a shard with a WAL, or one
  /// whose role is held, is only woken. The call never waits for a fsync
  /// or a follower's ACK, and never throws for a decision: a fault while
  /// deciding fails that shard (GatewayResult::errors) and the supervisor
  /// refuses its jobs. Makes no heap allocation once the calling thread's
  /// grouping scratch has grown to its largest batch (a shard's live state
  /// is m marks, allocated at start).
  BatchSubmitResult submit_batch(std::span<const Job> jobs,
                                 std::span<Outcome> statuses = {},
                                 std::uint64_t route_ctx = 0);

  /// Lock-free live counters (callable at any time, from any thread).
  [[nodiscard]] MetricsSnapshot metrics_snapshot() const {
    return metrics_.snapshot();
  }

  /// Live health of one shard (lock-free).
  [[nodiscard]] Health shard_health(int shard) const {
    return supervisor_->health(shard);
  }

  /// Suggested client back-off accompanying kRejectedRetryAfter.
  [[nodiscard]] std::chrono::milliseconds retry_after() const {
    return supervisor_->retry_after();
  }

  /// The supervision facade (force_down/force_recover, restart counters).
  [[nodiscard]] ShardSupervisor& supervisor() { return *supervisor_; }
  [[nodiscard]] const ShardSupervisor& supervisor() const {
    return *supervisor_;
  }

  /// Shard `shard`'s trace ring, or nullptr when tracing is disabled.
  [[nodiscard]] TraceRing* trace_ring(int shard) const {
    if (traces_.empty()) return nullptr;
    return traces_[static_cast<std::size_t>(shard)].get();
  }

  /// Drains every shard's trace ring and merges the events into one
  /// globally ordered (by seq) trace. Single-drainer only: call between
  /// runs or after finish(), not from concurrent threads.
  [[nodiscard]] std::vector<TraceEvent> drain_trace();

  /// The background textfile publisher, or nullptr when not configured.
  [[nodiscard]] const MetricsPublisher* metrics_publisher() const {
    return publisher_.get();
  }

  /// Shard `shard`'s replication stream, or nullptr when replication is
  /// not configured.
  [[nodiscard]] repl::ShardReplicator* replicator(int shard) const {
    if (replicators_.empty()) return nullptr;
    return replicators_[static_cast<std::size_t>(shard)].get();
  }

  /// Closes every shard queue, joins the consumers, and collects results.
  /// After finish() all submissions return kRejectedClosed.
  GatewayResult finish();

  [[nodiscard]] const GatewayConfig& config() const { return config_; }
  [[nodiscard]] int shards() const { return config_.shards; }

  /// The slack ingest requires of every job: the largest slack any
  /// shard's scheduler assumes (OnlineScheduler::assumed_slack), read once
  /// at construction.
  [[nodiscard]] double served_slack() const { return served_slack_; }

 private:
  GatewayConfig config_;
  double served_slack_ = 0.0;
  MetricsRegistry metrics_;
  ShardRouter router_;
  /// One global seq counter + one ring per shard; declared before shards_
  /// because each shard holds a raw pointer into this vector.
  std::atomic<std::uint64_t> trace_seq_{0};
  std::vector<std::unique_ptr<TraceRing>> traces_;
  /// Per-shard replication streams (empty unless config.replication is
  /// engaged). Declared before shards_: each shard's CommitLog holds a
  /// raw observer pointer into this vector, so the replicators must be
  /// destroyed after the shards.
  std::vector<std::unique_ptr<repl::ShardReplicator>> replicators_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Declared after shards_ (destroyed first): the supervisor holds a
  /// reference to the shard vector and its monitor must die before them.
  std::unique_ptr<ShardSupervisor> supervisor_;
  /// Declared last (destroyed first): the publisher's collector reads the
  /// registry, supervisor and trace rings, so they must outlive it.
  std::unique_ptr<MetricsPublisher> publisher_;
  std::atomic<bool> finished_{false};
};

}  // namespace slacksched
