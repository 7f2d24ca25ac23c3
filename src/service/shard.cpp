#include "service/shard.hpp"

#include <algorithm>
#include <array>
#include <type_traits>
#include <utility>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "common/expects.hpp"
#include "service/recovery.hpp"

namespace slacksched {

namespace {

RunOptions to_run_options(const ShardConfig& config) {
  RunOptions options;
  options.record_decisions = config.record_decisions;
  return options;
}

/// Best-effort consumer-thread pinning; a failed affinity call is a lost
/// locality hint, never an error (the shard runs fine unpinned).
void pin_current_thread(int cpu) {
  if (cpu < 0) return;
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<unsigned>(cpu) % CPU_SETSIZE, &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#endif
}

}  // namespace

Shard::Shard(int index, SchedulerFactory factory, const ShardConfig& config,
             MetricsRegistry& metrics)
    : index_(index),
      config_(config),
      factory_(std::move(factory)),
      metrics_(metrics),
      queue_(config.queue_capacity),
      batch_arena_(config.batch_size * sizeof(Task) + alignof(Task)),
      result_{Schedule(1), RunMetrics{}, {}, {}} {
  SLACKSCHED_EXPECTS(index >= 0);
  SLACKSCHED_EXPECTS(config.batch_size >= 1);
  SLACKSCHED_EXPECTS(config.pop_timeout.count() >= 1);
  SLACKSCHED_EXPECTS(factory_ != nullptr);
}

Shard::~Shard() {
  if (worker_.joinable()) {
    queue_.close();
    worker_.join();
  }
}

void Shard::start() {
  SLACKSCHED_EXPECTS(!started_);
  started_ = true;
  spawn(/*is_restart=*/false);
}

void Shard::spawn(bool is_restart) {
  // Replacing the previous CommitLog instance closes its descriptor
  // without flushing: whatever the crashed worker had buffered but not
  // written is lost, exactly as it would be in a process crash.
  wal_.reset();
  runner_.reset();
  scheduler_ = factory_();
  SLACKSCHED_EXPECTS(scheduler_ != nullptr);
  const RunOptions options = to_run_options(config_);
  // The WAL header stores the machine count the pool *starts* with;
  // elastic replay grows the live scheduler past it, so capture the
  // initial count before recovery touches anything.
  wal_initial_machines_ = scheduler_->machines();

  if (config_.wal_path.empty()) {
    runner_.emplace(*scheduler_, options);
  } else {
    scheduler_->reset();
    RecoveryResult recovered = recover_commit_log(
        config_.wal_path, wal_initial_machines_, scheduler_.get());
    if (!recovered.ok) {
      throw CommitLogError("shard " + std::to_string(index_) +
                           " recovery failed: " + recovered.error);
    }
    if (is_restart || recovered.records_replayed > 0 ||
        recovered.tail_truncated) {
      metrics_.on_recovery(index_, recovered.records_replayed,
                           recovered.tail_truncated);
    }
    CommitLogConfig log_config;
    log_config.fsync = config_.wal_fsync;
    // The observer's sequence numbers continue across restarts: what
    // recovery just replayed is the base of the new writer's stream, so a
    // follower sees one gapless per-shard sequence whatever crashed here.
    log_config.base_records = recovered.records_replayed;
    log_config.observer = config_.wal_observer;
    wal_ = CommitLog::open(config_.wal_path, wal_initial_machines_,
                           log_config, config_.faults, index_);
    RunResult state{std::move(recovered.schedule), recovered.metrics, {}, {}};
    runner_.emplace(
        StreamingRunner::resumed(*scheduler_, options, std::move(state)));
    runner_->set_commit_hook([this](const Job& job, const Decision& decision) {
      wal_->append(job, decision.machine, decision.start);
      // The commit crash site sits between the WAL append and the
      // in-memory commit: recovery must replay the logged-but-unapplied
      // record.
      SLACKSCHED_FAULT_CRASH_POINT(config_.faults, FaultSite::kCommit,
                                   index_);
    });
  }
  // Deferred-commitment schedulers resolve jobs outside any feed() call;
  // the resolution hook performs the same bookkeeping process() does for
  // immediate decisions (metrics, trace, notification), with a zero queue
  // latency — the job left the queue when it was fed.
  runner_->set_resolution_hook(
      [this](const Job& job, const Decision& decision, TimePoint) {
        on_resolution(job, decision);
      });

  // Parked contexts belong to the previous worker's deferred jobs; a
  // restart re-feeds nothing, so they can never resolve.
  deferred_ctx_.clear();

  // Elastic control loop: a fresh controller every spawn (its window is
  // transient load state — the durable truth, the machine counts, was just
  // replayed from the WAL). An in-flight drain survives the crash as a
  // RetireBegin record without its RetireDone: rediscover it from the
  // replayed scheduler so the new worker finishes the drain.
  controller_.reset();
  retiring_machine_ = -1;
  sim_now_ = 0.0;
  offered_.store(0, std::memory_order_relaxed);
  shed_.store(0, std::memory_order_relaxed);
  if (config_.elastic.has_value() && scheduler_->supports_elastic()) {
    controller_.emplace(*config_.elastic);
    for (int m = 0; m < scheduler_->machines(); ++m) {
      if (scheduler_->is_retiring(m)) {
        retiring_machine_ = m;
        break;
      }
    }
  }

  worker_failed_.store(false, std::memory_order_release);
  worker_exited_.store(false, std::memory_order_release);
  worker_ = std::thread([this] { worker_loop(); });
}

Shard::BatchEnqueueResult Shard::try_enqueue_batch(
    const Job* jobs, const std::uint32_t* indices, std::size_t count,
    Clock::time_point now, const std::int16_t* homes,
    std::uint64_t route_ctx) {
  BatchEnqueueResult result;
  // Tasks are constructed directly in their claimed ring cells: the
  // producer path performs no staging copy and no heap allocation.
  std::array<std::size_t, kCriticalityCount> per_class{};
  result.taken = queue_.try_push_batch_with(
      count, &result.closed, [&](std::size_t i, Task& slot) {
        const std::size_t index = indices != nullptr ? indices[i] : i;
        slot.job = jobs[index];
        slot.enqueued_at = now;
        slot.home =
            homes != nullptr ? homes[i] : static_cast<std::int16_t>(index_);
        slot.route_ctx = route_ctx == 0 ? 0 : route_ctx + index;
        ++per_class[criticality_index(slot.job.criticality)];
      });
  for (std::size_t cls = 0; cls < kCriticalityCount; ++cls) {
    metrics_.on_enqueued(index_, per_class[cls],
                         static_cast<Criticality>(cls));
  }
  if (!result.closed) {
    metrics_.on_backpressure(index_, count - result.taken);
  }
  if (config_.elastic.has_value()) {
    offered_.fetch_add(count, std::memory_order_relaxed);
    if (!result.closed) {
      shed_.fetch_add(count - result.taken, std::memory_order_relaxed);
    }
  }
  return result;
}

void Shard::close() { queue_.close(); }

void Shard::join() {
  SLACKSCHED_EXPECTS(worker_.joinable());
  worker_.join();
  joined_ = true;
}

bool Shard::restart() {
  SLACKSCHED_EXPECTS(started_);
  if (config_.wal_path.empty()) {
    set_error("restart requires a commit log (ShardConfig::wal_path)");
    return false;
  }
  if (!worker_exited()) {
    set_error("restart refused: worker thread is still running");
    return false;
  }
  if (worker_.joinable()) worker_.join();
  joined_ = false;
  queue_.reopen();  // buffered jobs survive and feed the new worker
  try {
    spawn(/*is_restart=*/true);
  } catch (const std::exception& e) {
    set_error(e.what());
    worker_failed_.store(true, std::memory_order_release);
    worker_exited_.store(true, std::memory_order_release);
    return false;
  }
  return true;
}

const RunResult& Shard::result() const {
  SLACKSCHED_EXPECTS(joined_);
  return result_;
}

RunResult Shard::take_result() {
  SLACKSCHED_EXPECTS(joined_);
  if (worker_failed() && !config_.wal_path.empty()) {
    // The in-memory result died with the worker; the commit log is the
    // durable truth. Read-only replay: finish() may still be mid-shutdown
    // elsewhere, and the next restart will truncate the tail itself.
    RecoveryResult recovered =
        recover_commit_log(config_.wal_path, wal_initial_machines_,
                           /*scheduler=*/nullptr, /*truncate_file=*/false,
                           scheduler_->speed_profile());
    RunResult from_log{std::move(recovered.schedule), recovered.metrics,
                       {}, {}};
    if (!recovered.ok) from_log.commitment_violation = recovered.error;
    return from_log;
  }
  return std::move(result_);
}

std::string Shard::last_error() const {
  std::lock_guard lock(error_mutex_);
  return last_error_;
}

void Shard::set_error(std::string message) {
  std::lock_guard lock(error_mutex_);
  last_error_ = std::move(message);
}

void Shard::worker_loop() {
  // One binding decision per job in FIFO (= submission) order, through the
  // engine's StreamingRunner. Any exception — injected fault, WAL I/O
  // error, scheduler bug — marks the shard failed; the supervisor decides
  // whether to restart it.
  try {
    pin_current_thread(config_.pin_cpu);
    // The popped batch is staged in the shard's monotonic arena: one
    // allocation per worker lifetime, the block reused for every batch.
    // Task pointers never outlive the iteration that popped them.
    static_assert(std::is_trivially_destructible_v<Task>);
    batch_arena_.reset();
    Task* batch = batch_arena_.allocate<Task>(config_.batch_size);
    while (true) {
      heartbeat_.fetch_add(1, std::memory_order_relaxed);
      const PopOutcome popped =
          queue_.pop_batch_for(batch, config_.batch_size, config_.pop_timeout);
      if (popped.count == 0) {
        if (popped.closed) break;  // closed and drained
        continue;                  // idle wake: heartbeat already advanced
      }
      metrics_.on_batch(index_, popped.count);
      // Crash after the pop, before any decision: the popped jobs are lost
      // undecided (never accepted, so nothing durable is owed for them).
      SLACKSCHED_FAULT_CRASH_POINT(config_.faults, FaultSite::kDequeue,
                                   index_);
      for (std::size_t i = 0; i < popped.count; ++i) {
        process(batch[i]);
        heartbeat_.fetch_add(1, std::memory_order_relaxed);
      }
      if (wal_) wal_->sync_batch();
      SLACKSCHED_FAULT_CRASH_POINT(config_.faults, FaultSite::kWorkerPanic,
                                   index_);
      // Elastic control: one observation + at most one applied resize per
      // consumed batch, at a clean batch boundary (nothing mid-decision).
      run_capacity_control();
    }
    result_ = runner_->finish();
    if (wal_) wal_->close();
  } catch (const std::exception& e) {
    set_error(e.what());
    worker_failed_.store(true, std::memory_order_release);
  }
  worker_exited_.store(true, std::memory_order_release);
}

void Shard::run_capacity_control() {
  if (!controller_.has_value()) return;

  // Resize bookkeeping is apply-then-log, uniformly: this thread is the
  // only mutator, so file order equals operation order, and a crash between
  // the two wipes the in-memory half — replay then reproduces the exact
  // pre-resize pool, on which no commitment can depend yet (a retiring
  // machine accepts nothing; a grown machine's commitments are themselves
  // logged after the grow record).

  // 1. Finish an in-flight retirement once its machine has drained. The
  // commitment guarantee holds by construction: every allocation on the
  // machine completed at or before sim_now_.
  if (retiring_machine_ >= 0 &&
      scheduler_->retire_drained(retiring_machine_, sim_now_)) {
    const bool finished = scheduler_->finish_retire(retiring_machine_);
    SLACKSCHED_EXPECTS(finished);
    if (wal_) wal_->append_control(kWalControlRetireDone, retiring_machine_);
    retiring_machine_ = -1;
    SLACKSCHED_FAULT_CRASH_POINT(config_.faults, FaultSite::kResizeShrink,
                                 index_);
  }

  // 2. One observation per consumed batch.
  const std::uint64_t offered =
      offered_.exchange(0, std::memory_order_relaxed);
  const std::uint64_t shed = shed_.exchange(0, std::memory_order_relaxed);
  controller_->observe(scheduler_->busy_machines(sim_now_),
                       scheduler_->active_machines(),
                       static_cast<std::size_t>(shed),
                       static_cast<std::size_t>(offered));

  // 3. Apply at most one decision.
  switch (controller_->decide(scheduler_->active_machines())) {
    case CapacityAction::kGrow: {
      const int machine = scheduler_->add_machine();
      if (machine >= 0) {
        if (wal_) wal_->append_control(kWalControlGrow, machine);
        controller_->on_resized();
        SLACKSCHED_FAULT_CRASH_POINT(config_.faults, FaultSite::kResizeGrow,
                                     index_);
      }
      break;
    }
    case CapacityAction::kShrink: {
      if (retiring_machine_ >= 0) break;  // one drain at a time
      const int candidate = scheduler_->retire_candidate();
      if (candidate < 0 || !scheduler_->begin_retire(candidate)) break;
      if (wal_) wal_->append_control(kWalControlRetireBegin, candidate);
      retiring_machine_ = candidate;
      controller_->on_resized();
      SLACKSCHED_FAULT_CRASH_POINT(config_.faults, FaultSite::kResizeShrink,
                                   index_);
      break;
    }
    case CapacityAction::kNone:
      break;
  }
}

void Shard::on_resolution(const Job& job, const Decision& decision) {
  // Reclaim the routing context parked when this job's decision deferred.
  // Submission order per id is preserved (deque).
  std::uint64_t route_ctx = 0;
  auto parked = deferred_ctx_.find(job.id);
  if (parked != deferred_ctx_.end()) {
    route_ctx = parked->second.front();
    parked->second.pop_front();
    if (parked->second.empty()) deferred_ctx_.erase(parked);
  }
  // Zero queue latency: the job left the queue when it was fed.
  record_decision(job, decision, 0.0, static_cast<std::int16_t>(index_),
                  route_ctx);
}

void Shard::record_decision(const Job& job, const Decision& decision,
                            double latency_seconds, std::int16_t home,
                            std::uint64_t route_ctx) {
  const std::size_t latency_bin = metrics_.on_decision(
      index_, job.proc, decision.accepted, latency_seconds, job.criticality);
  if (config_.trace != nullptr) {
    TraceEvent event;
    event.job_id = job.id;
    event.home_shard = home;
    event.shard = static_cast<std::int16_t>(index_);
    event.kind = decision.accepted ? Outcome::kAccepted : Outcome::kRejected;
    event.latency_bin = static_cast<std::uint8_t>(latency_bin);
    event.fsync_class = wal_ != nullptr
                            ? static_cast<std::uint8_t>(config_.wal_fsync)
                            : kTraceNoWal;
    config_.trace->record(event);  // drop-on-full: never blocks decisions
  }
  // Notify last: the decision is validated, counted and traced before any
  // downstream consumer (e.g. the network front end) can observe it.
  if (config_.on_decision) config_.on_decision(job, decision, route_ctx);
}

void Shard::process(const Task& task) {
  // The simulated clock the elastic control loop reads: releases arrive in
  // FIFO order per producer but can interleave across producers, so track
  // the max rather than the last.
  sim_now_ = std::max(sim_now_, task.job.release);
  const FeedOutcome outcome = runner_->feed(task.job);
  // Poisoned shard (drained without deciding) or an illegal commitment:
  // neither counts as a served decision in the live metrics.
  if (!outcome.decided || !outcome.legal) return;
  // A deferred decision is not a decision yet — its bookkeeping happens in
  // on_resolution when the binding answer lands. Park the routing context
  // so the eventual resolution can still find its way home.
  if (outcome.decision.deferred) {
    if (config_.on_decision) {
      deferred_ctx_[task.job.id].push_back(task.route_ctx);
    }
    return;
  }
  const double latency =
      std::chrono::duration<double>(Clock::now() - task.enqueued_at).count();
  record_decision(task.job, outcome.decision, latency, task.home,
                  task.route_ctx);
}

}  // namespace slacksched
