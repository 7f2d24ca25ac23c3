/// \file
/// One shard of the admission gateway: an independent machine group owned
/// by its own OnlineScheduler instance, decided by whichever thread holds
/// the shard's consumer role. The shard decides its queue in FIFO order and
/// keeps one live state: the scheduler, one busy-until mark per machine
/// (the latest completion committed to it) and the run's RunMetrics. Every
/// decision passes validate_served_commitment against those marks — start
/// at or after r_j and the machine's mark, completion by d_j — and the
/// shard stops deciding at the first violation, like run_online. Accepts
/// raise the mark exactly as Schedule::commit raises a frontier, so a
/// single-shard gateway renders the sequential engine's decisions and
/// metrics bit for bit. With decision recording disabled (the default) the
/// state is O(m) whatever the history and the consumer loop allocates
/// nothing; the commit log keeps every placement.
///
/// The consumer role (flat combining, Hendler et al., SPAA 2010): one
/// atomic flag; its holder is the ring's single consumer and the only user
/// of the live state, the popped batch and the publication list. The shard's
/// worker thread holds it while it has work and parks without it. On a
/// shard without a WAL a producer whose push finds the role free claims it
/// with one CAS and decides the queued jobs itself — its own and anyone
/// else's, at most queue_capacity per claim — so a lone job costs no
/// cross-thread hand-off. A shard with a WAL never lets a producer claim:
/// its worker keeps group commit, and the fsync and the follower's ACK
/// never run on a submitting thread.
///
/// Crash safety (optional, enabled by ShardConfig::wal_path): every
/// accepted commitment is appended to a per-shard commit log *before* it is
/// applied in memory, a group's decisions are published only once its
/// records are durable, the worker publishes a heartbeat the supervisor
/// (service/supervisor.hpp) watches, and a crashed worker can be restarted
/// in place — the replacement replays the log, rebuilds the marks and the
/// scheduler's frontiers, and resumes consuming the same queue. Commitments
/// never migrate between shards: a restart resumes the same machine group
/// from its own durable log.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/time.hpp"
#include "sched/decision.hpp"
#include "sched/metrics.hpp"
#include "sched/online.hpp"
#include "service/bounded_queue.hpp"
#include "service/commit_log.hpp"
#include "service/fault_injection.hpp"
#include "service/metrics_registry.hpp"
#include "service/outcome.hpp"
#include "service/trace_ring.hpp"

namespace slacksched {

/// Builds (or rebuilds, on restart) the shard's scheduler instance.
using SchedulerFactory = std::function<std::unique_ptr<OnlineScheduler>()>;

/// Per-decision notification hook (see ShardConfig::on_decision).
/// `route_ctx` is try_enqueue_batch's `route_ctx + indices[i]` for the
/// batch's job at jobs[indices[i]] (0 when none: a zero context stays zero
/// for every job). The network front end stores (loop << 56) | ticket
/// there, so a decision is handed straight back to the loop and the reply
/// slot that own the submission.
using ShardDecisionCallback = std::function<void(
    const Job& job, const Decision& decision, std::uint64_t route_ctx)>;

/// Per-shard knobs (the gateway fills these from its own config).
struct ShardConfig {
  std::size_t queue_capacity = 4096;
  std::size_t batch_size = 256;
  /// Record per-job DecisionRecords in the shard's ShardResult. Off by
  /// default: the log grows with history, and a decision already leaves
  /// the shard through on_decision, the trace ring and the WAL.
  bool record_decisions = false;
  /// Longest the worker sleeps without the consumer role before waking to
  /// claim it and publish a heartbeat; must stay well below the
  /// supervisor's stall threshold.
  std::chrono::milliseconds pop_timeout{50};
  /// CPU to pin the worker thread to (-1: unpinned), through
  /// pthread_setaffinity_np. Pinning is a locality hint, never a
  /// correctness requirement: a failed affinity call is ignored.
  int pin_cpu = -1;
  /// Path of this shard's durable commit log; empty disables the WAL (and
  /// with it restartability — the original in-memory-only behavior).
  std::string wal_path;
  FsyncPolicy wal_fsync = FsyncPolicy::kBatch;
  /// Optional write-side observer of the shard's commit log — the
  /// replication leader hook (replication/replicator.hpp). Not owned; must
  /// outlive the shard. Wired into every CommitLog the shard opens,
  /// including the ones restarts reopen.
  CommitLogObserver* wal_observer = nullptr;
  /// Optional deterministic fault injector shared across the gateway.
  FaultInjector* faults = nullptr;
  /// Optional decision trace ring (owned by the gateway). When set, the
  /// consumer records one TraceEvent per rendered decision; recording is
  /// drop-on-full and never blocks the decision path.
  TraceRing* trace = nullptr;
  /// Optional per-decision notification, invoked on the thread that holds
  /// the consumer role (the worker, or on a shard without a WAL a
  /// combining producer) after each rendered, legal decision has been
  /// validated, counted and traced — in decision (FIFO) order. Decisions
  /// are published at their group's boundary: a job's call comes after the
  /// rest of its group has been decided and, with a WAL, after the group's
  /// records are durable (CommitLog::sync_batch: the fsync under kBatch,
  /// then the follower's ACK under kAckOnBatch). Without a WAL a group is
  /// one pop (at most batch_size jobs); with one, it is every batch the
  /// queue holds when the worker gets to it, up to queue_capacity jobs. A
  /// worker that dies before the sync publishes none of that group, so
  /// under kBatch an accept it reports survives a crash. Runs on the
  /// decision hot path: must be fast and must not throw.
  ShardDecisionCallback on_decision;
};

/// What one shard's run produced: its live state when it stopped.
struct ShardResult {
  /// Served-decision counters; makespan is the largest busy-until mark.
  RunMetrics metrics;
  /// Per machine, the latest completion committed to it (0 for none).
  std::vector<TimePoint> busy_until;
  /// Every decision in decision order; only with record_decisions.
  std::vector<DecisionRecord> decisions;
  /// The first commitment violation, empty when clean.
  std::string commitment_violation;

  [[nodiscard]] bool clean() const { return commitment_violation.empty(); }
};

/// An independent scheduler + queue + consumer role, and the worker thread
/// that takes the role whenever no producer holds it. Like run_online, a
/// shard stops rendering decisions after the first illegal commitment; its
/// queue keeps draining, so producers are never blocked by a poisoned
/// shard.
class Shard {
 public:
  using Clock = std::chrono::steady_clock;

  /// Outcome of a batched enqueue: how many of the offered jobs were
  /// taken, and whether the refusal of the tail (if any) was because the
  /// queue is closed rather than full.
  struct BatchEnqueueResult {
    std::size_t taken = 0;
    bool closed = false;
  };

  Shard(int index, SchedulerFactory factory, const ShardConfig& config,
        MetricsRegistry& metrics);

  /// Closes and joins if the owner forgot to.
  ~Shard();

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  /// Spawns the worker thread (running recovery first when a WAL is
  /// configured and a log already exists). Must be called exactly once.
  /// The worker holds the consumer role until its first park, so jobs
  /// queued before start() are decided by the worker.
  void start();

  /// The shard's only enqueue: non-blocking, it offers
  /// jobs[indices[0..count)] in order (jobs[0..count) when `indices` is
  /// null) with one claim on the lock-free ring. The accepted prefix is
  /// counted as enqueued; a shed tail is counted as backpressure only when
  /// the queue was full, not when it was closed (the shard is gone, not
  /// busy). The job at jobs[indices[i]] is echoed to on_decision with
  /// `route_ctx + indices[i]`, or 0 when `route_ctx` is 0. Wakes nobody:
  /// follow a push that took jobs with hand_off().
  [[nodiscard]] BatchEnqueueResult try_enqueue_batch(
      const Job* jobs, const std::uint32_t* indices, std::size_t count,
      Clock::time_point now, std::uint64_t route_ctx = 0);

  /// Hands the queued jobs to a consumer. On a shard without a WAL, when
  /// the consumer role is free, the calling thread claims it, decides at
  /// most queue_capacity queued jobs (running their on_decision hooks
  /// here) and releases it; otherwise — a WAL, or the role already held —
  /// it wakes the worker. Never waits for a fsync or an ACK, and never
  /// throws: a combiner that fails marks the shard failed and keeps the
  /// role, and the worker exits.
  void hand_off() noexcept;

  /// Closes the queue: producers start failing, the consumer drains the
  /// backlog and exits.
  void close();

  /// Joins the worker thread, if one is running: a failed restart leaves
  /// none. Requires start(). Safe without close() only when the worker has
  /// already exited (crashed or drained).
  void join();

  /// Restarts a dead worker in place: joins the old thread if needed,
  /// reopens the queue, rebuilds the scheduler, replays the commit log and
  /// spawns a fresh consumer that resumes from the recovered state.
  /// Returns false (with the reason in last_error()) when recovery fails;
  /// the shard then stays down. Requires a configured WAL — without one a
  /// crashed shard's commitments are unrecoverable and restart refuses.
  [[nodiscard]] bool restart();

  /// The shard's run outcome; only valid after join(). When the worker
  /// failed on a shard with a WAL, it reconstructs the durable truth by a
  /// read-only replay of the commit log over the shard's machine count
  /// (the in-memory state died with the worker; a failed restart may have
  /// left no scheduler).
  [[nodiscard]] ShardResult take_result();

  [[nodiscard]] int index() const { return index_; }
  [[nodiscard]] std::size_t queue_size() const { return queue_.size(); }
  [[nodiscard]] bool queue_closed() const { return queue_.closed(); }
  [[nodiscard]] const OnlineScheduler& scheduler() const {
    return *scheduler_;
  }

  // --- supervision surface (service/supervisor.hpp) ---
  /// Monotone progress counter, advanced only under the consumer role:
  /// per pop by whoever holds it, and by the worker on an idle wake once
  /// it has claimed the role. A supervisor that sees it unchanged past the
  /// stall threshold declares the shard degraded — also while a combining
  /// producer is wedged with the role.
  [[nodiscard]] std::uint64_t heartbeat() const {
    return heartbeat_.load(std::memory_order_relaxed);
  }
  /// True once the worker, or a combining producer, died on an exception
  /// (injected fault, I/O error, scheduler bug). The failed holder keeps
  /// the consumer role, so nothing decides on the broken state. The queue
  /// stays open; jobs keep buffering until the supervisor restarts the
  /// shard.
  [[nodiscard]] bool worker_failed() const {
    return worker_failed_.load(std::memory_order_acquire);
  }
  /// True once the worker thread has returned (cleanly or not).
  [[nodiscard]] bool worker_exited() const {
    return worker_exited_.load(std::memory_order_acquire);
  }
  /// Description of the worker's fatal error (empty when none).
  [[nodiscard]] std::string last_error() const;

 private:
  struct Task {
    Job job;
    Clock::time_point enqueued_at;
    std::uint64_t route_ctx = 0;  ///< producer's context, echoed on decide
  };
  /// A queue cell (the ring's 8-byte sequence number plus a Task) fits one
  /// cache line, so a producer's claim and the consumer's pop each touch
  /// one line per job.
  static_assert(sizeof(std::uint64_t) + sizeof(Task) <= 64);

  /// A binding decision the decide pass rendered and the publish pass has
  /// yet to count, trace and notify.
  struct Publication {
    Job job;
    Decision decision;
    Clock::time_point enqueued_at;
    std::uint64_t route_ctx = 0;
  };

  /// Builds the scheduler and the live state (from WAL recovery when
  /// configured) and spawns the worker thread. Throws when recovery fails,
  /// and a PreconditionError when the scheduler is not one the service
  /// serves: it must commit on arrival (commitment_contract()) on identical
  /// machines (speed_profile() null or uniform). Every served scheduler is
  /// built here — at gateway construction, on each restart and in
  /// promote_replica — so this is the one place that refuses the other
  /// models.
  void spawn(bool is_restart);
  void worker_loop();
  /// Role holder: pops and decides one group (one pop without a WAL; with
  /// one, every batch the ring holds), at most `budget` jobs, makes it
  /// durable and publishes it. Returns the first pop's outcome with
  /// `count` the group's size.
  PopOutcome consume(std::size_t budget);
  /// Worker only, holding the role over an empty open ring: releases it,
  /// parks until the role is free with work ready (or pop_timeout passes)
  /// and claims it back. Returns false once a combiner failed the shard.
  bool await_role();
  /// One CAS: true when the caller now holds the role.
  bool try_claim();
  /// Releases the role, then rechecks the ring and wakes the worker for
  /// what a producer pushed while the role looked held.
  void release_role();
  /// Advances the heartbeat; called only under the role.
  void beat() {
    heartbeat_.store(heartbeat_.load(std::memory_order_relaxed) + 1,
                     std::memory_order_relaxed);
  }
  /// The one failure path of a role holder: records the error and marks
  /// the shard failed. The holder keeps the role.
  void fail(const std::exception& error);
  /// Decide pass, one job: asks the scheduler, checks the decision against
  /// the marks, appends an accept to the WAL (write-ahead), then raises the
  /// mark, updates the RunMetrics and queues the decision for publication.
  /// A violation poisons the shard: it decides nothing more. Throws when
  /// the scheduler defers a decision it promised on arrival, which fails
  /// the shard.
  void decide(const Task& task);
  /// Publish pass: the one bookkeeping path of every binding decision.
  /// Reads the clock once, then per queued decision in order: metrics,
  /// trace event, on_decision. Runs after the group's records are durable.
  /// A decision's admit latency runs from queue entry to this publication.
  void publish();
  void set_error(std::string message);

  /// Decisions rendered by the current group's decide pass, in decision
  /// order, awaiting the publish pass. Reserved once per shard for the
  /// largest group (queue_capacity entries with a WAL, batch_size without),
  /// so the steady state makes no allocation. Cleared on (re)spawn: a
  /// worker that dies before its group is durable publishes none of it.
  std::vector<Publication> pending_;

  int index_;
  ShardConfig config_;
  SchedulerFactory factory_;
  MetricsRegistry& metrics_;
  BoundedMpscQueue<Task> queue_;
  /// The role holder's popped batch (batch_size Tasks), made once per shard
  /// and reused by every pop and every restarted worker.
  std::unique_ptr<Task[]> batch_;
  std::unique_ptr<OnlineScheduler> scheduler_;
  std::unique_ptr<CommitLog> wal_;
  /// The live state, used only under the consumer role: m marks, the
  /// RunMetrics, the decision log (record_decisions only) and the halting
  /// violation. Rebuilt by every spawn; take_result() moves it out.
  ShardResult live_;
  bool started_ = false;
  bool joined_ = false;
  std::thread worker_;

  /// The consumer role. Held from construction: the worker releases it at
  /// its first park, and keeps it once the ring is closed and drained (or
  /// the shard failed), so nothing decides on a finished shard.
  alignas(64) std::atomic<bool> role_{true};
  /// Written only under the role (load+store, no RMW).
  std::atomic<std::uint64_t> heartbeat_{0};
  std::atomic<bool> worker_failed_{false};
  std::atomic<bool> worker_exited_{false};
  mutable std::mutex error_mutex_;
  std::string last_error_;
};

}  // namespace slacksched
