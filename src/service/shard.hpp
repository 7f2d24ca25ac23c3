/// \file
/// One shard of the admission gateway: an independent machine group owned
/// by its own OnlineScheduler instance and consumer thread. The shard
/// replays its queue in FIFO order through the engine's StreamingRunner —
/// literally the same code path as run_online (decision recording,
/// commitment-legality check, halt-on-violation rule) — so a single-shard
/// gateway is byte-identical to the sequential engine. With decision
/// recording disabled the consumer loop accumulates metrics reserve-free
/// and allocation-free outside the committed schedule.
///
/// Crash safety (optional, enabled by ShardConfig::wal_path): every
/// accepted commitment is appended to a per-shard commit log *before* it is
/// applied in memory, the worker publishes a heartbeat the supervisor
/// (service/supervisor.hpp) watches, and a crashed worker can be restarted
/// in place — the replacement replays the log, rebuilds the committed
/// schedule and the scheduler's frontiers, and resumes consuming the same
/// queue. Commitments never migrate between shards: a restart resumes the
/// same machine group from its own durable log.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/arena.hpp"
#include "policy/capacity_controller.hpp"
#include "sched/engine.hpp"
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
  /// Record per-job DecisionRecords (disable for multi-million-job benches
  /// where only metrics and the committed schedule matter).
  bool record_decisions = true;
  /// Longest the worker sleeps on an empty queue before waking to publish
  /// a heartbeat; must stay well below the supervisor's stall threshold.
  std::chrono::milliseconds pop_timeout{50};
  /// CPU to pin the consumer thread to (-1: unpinned). Only honored on
  /// Linux (pthread_setaffinity_np); elsewhere it is a documented no-op —
  /// pinning is a locality hint, never a correctness requirement.
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
  /// Optional per-decision notification, invoked by the consumer thread
  /// after each rendered, legal decision has been validated, counted and
  /// traced — in decision (FIFO) order. Runs on the decision hot path:
  /// must be fast and must not throw.
  ShardDecisionCallback on_decision;
  /// Optional elastic machine pool (policy/capacity_controller.hpp). When
  /// set and the shard's scheduler supports elastic capacity, the consumer
  /// thread runs the capacity control loop between batches: grows the pool
  /// under sustained high utilization or shedding, drains a machine for
  /// retirement under sustained low utilization. Every applied resize is
  /// write-ahead-logged as a control record, so WAL replay reproduces the
  /// exact machine count at every point of the log. Ignored (with the
  /// original fixed-pool behavior) when the scheduler is not elastic.
  std::optional<CapacityControllerConfig> elastic;
};

/// An independent scheduler + queue + consumer thread. Like run_online, a
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

  /// Spawns the consumer thread (running recovery first when a WAL is
  /// configured and a log already exists). Must be called exactly once.
  void start();

  /// The shard's only enqueue: non-blocking, it offers
  /// jobs[indices[0..count)] in order (jobs[0..count) when `indices` is
  /// null) with one claim on the lock-free ring. The accepted prefix is
  /// counted as enqueued; a shed tail is counted as backpressure only when
  /// the queue was full, not when it was closed (the shard is gone, not
  /// busy). `homes`, when non-null, carries the router's home shard for
  /// each offered job (parallel to `indices`; null means "this shard"),
  /// recorded in trace events. The job at jobs[indices[i]] is echoed to
  /// on_decision with `route_ctx + indices[i]`, or 0 when `route_ctx` is 0.
  [[nodiscard]] BatchEnqueueResult try_enqueue_batch(
      const Job* jobs, const std::uint32_t* indices, std::size_t count,
      Clock::time_point now, const std::int16_t* homes = nullptr,
      std::uint64_t route_ctx = 0);

  /// Closes the queue: producers start failing, the consumer drains the
  /// backlog and exits.
  void close();

  /// Joins the consumer thread. Safe without close() only when the worker
  /// has already exited (crashed or drained).
  void join();

  /// Restarts a dead worker in place: joins the old thread if needed,
  /// reopens the queue, rebuilds the scheduler, replays the commit log and
  /// spawns a fresh consumer that resumes from the recovered state.
  /// Returns false (with the reason in last_error()) when recovery fails;
  /// the shard then stays down. Requires a configured WAL — without one a
  /// crashed shard's commitments are unrecoverable and restart refuses.
  [[nodiscard]] bool restart();

  /// The shard's run outcome; only valid after join(). When the worker
  /// crashed, take_result() reconstructs the durable truth by replaying
  /// the commit log (the in-memory result died with the worker).
  [[nodiscard]] const RunResult& result() const;
  [[nodiscard]] RunResult take_result();

  [[nodiscard]] int index() const { return index_; }
  [[nodiscard]] std::size_t queue_size() const { return queue_.size(); }
  [[nodiscard]] bool queue_closed() const { return queue_.closed(); }
  [[nodiscard]] const OnlineScheduler& scheduler() const {
    return *scheduler_;
  }

  /// Counts one job the gateway refused before it ever reached this
  /// shard's queue (a class-aware shed, or the kEnqueue ingest fault) —
  /// the refusal feeds the capacity controller's shed-rate signal exactly
  /// like backpressure. Callable from any producer thread.
  void note_refused() {
    offered_.fetch_add(1, std::memory_order_relaxed);
    shed_.fetch_add(1, std::memory_order_relaxed);
  }

  /// The machine currently draining for retirement (-1 when none).
  /// Consumer-thread state exposed for tests; racy reads are benign.
  [[nodiscard]] int retiring_machine() const { return retiring_machine_; }

  // --- supervision surface (service/supervisor.hpp) ---
  /// Monotone progress counter the worker bumps on every wake-up and every
  /// processed job; a supervisor that sees it unchanged past the stall
  /// threshold declares the shard degraded.
  [[nodiscard]] std::uint64_t heartbeat() const {
    return heartbeat_.load(std::memory_order_relaxed);
  }
  /// True once the worker died on an exception (injected fault, I/O error,
  /// scheduler bug). The queue stays open; jobs keep buffering until the
  /// supervisor restarts the shard or routes around it.
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
    std::int16_t home = -1;  ///< router's home shard (trace provenance)
    std::uint64_t route_ctx = 0;  ///< producer's context, echoed on decide
  };

  /// Builds scheduler + runner (+ WAL recovery when configured) and spawns
  /// the worker thread. Throws when recovery fails.
  void spawn(bool is_restart);
  void worker_loop();
  /// One turn of the elastic control loop (consumer thread, between
  /// batches): finish a drained retirement, feed the controller one
  /// observation, apply its grow/shrink decision, WAL the resize.
  void run_capacity_control();
  void process(const Task& task);
  /// Resolution hook for a deferred job: reclaims its parked routing
  /// context and records the binding decision.
  void on_resolution(const Job& job, const Decision& decision);
  /// The one bookkeeping path of a binding decision, immediate (process)
  /// or deferred (on_resolution): metrics, trace event, then on_decision.
  /// `latency_seconds` is queue entry to decision; `home` is the router's
  /// home shard.
  void record_decision(const Job& job, const Decision& decision,
                       double latency_seconds, std::int16_t home,
                       std::uint64_t route_ctx);
  void set_error(std::string message);

  /// δ-commitment schedulers defer a job's binding decision past its
  /// feed() call, but the Task (and its route_ctx) dies with the batch
  /// iteration. Parked contexts bridge the gap: process() records the
  /// ctx when a hooked job defers, on_resolution() pops it. Touched only
  /// by the consumer thread, so no lock; cleared on (re)spawn — a crashed
  /// worker's parked contexts die with it, like its undecided queue tail.
  std::unordered_map<JobId, std::deque<std::uint64_t>> deferred_ctx_;

  int index_;
  ShardConfig config_;
  SchedulerFactory factory_;
  MetricsRegistry& metrics_;
  BoundedMpscQueue<Task> queue_;
  /// Consumer-thread scratch: the popped Task batch is staged in this
  /// per-shard arena, whose block is reused across batches — the steady
  /// state of the consumer loop performs zero heap allocations. Pointers
  /// into the arena never escape the batch that popped them.
  MonotonicArena batch_arena_;
  std::unique_ptr<OnlineScheduler> scheduler_;
  std::unique_ptr<CommitLog> wal_;
  std::optional<StreamingRunner> runner_;
  /// Machine count the factory's scheduler starts with — the count in the
  /// WAL header. Elastic resizes grow scheduler_->machines() past it, so
  /// every header check after recovery must use this, not the live count.
  int wal_initial_machines_ = 0;
  /// Elastic control loop state; touched only by the consumer thread.
  std::optional<CapacityController> controller_;
  int retiring_machine_ = -1;  ///< machine mid-drain, -1 when none
  /// Latest release time fed to the engine — the simulated "now" frontier
  /// utilization and drain checks are evaluated at.
  TimePoint sim_now_ = 0.0;
  /// Producer-side window counters the controller consumes (offered
  /// submissions / shed submissions since the last observation).
  std::atomic<std::uint64_t> offered_{0};
  std::atomic<std::uint64_t> shed_{0};
  RunResult result_;  ///< taken from runner_ when the consumer exits
  bool started_ = false;
  bool joined_ = false;
  std::thread worker_;

  std::atomic<std::uint64_t> heartbeat_{0};
  std::atomic<bool> worker_failed_{false};
  std::atomic<bool> worker_exited_{false};
  mutable std::mutex error_mutex_;
  std::string last_error_;
};

}  // namespace slacksched
