#include "service/shard.hpp"

#include <algorithm>
#include <utility>

#include <pthread.h>
#include <sched.h>

#include "common/expects.hpp"
#include "sched/validator.hpp"
#include "service/recovery.hpp"

namespace slacksched {

namespace {

/// Best-effort consumer-thread pinning; a failed affinity call is a lost
/// locality hint, never an error (the shard runs fine unpinned).
void pin_current_thread(int cpu) {
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<unsigned>(cpu) % CPU_SETSIZE, &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

/// Why the service does not serve `scheduler`, or empty when it does: only
/// the paper's model, commitment on arrival on identical machines.
std::string unserved_because(const OnlineScheduler& scheduler) {
  const CommitModel model = scheduler.commitment_contract().model;
  if (model != CommitModel::kOnArrival) {
    return "its commitment model is '" + to_string(model) + "', not '" +
           to_string(CommitModel::kOnArrival) + "'";
  }
  const auto* speeds = scheduler.speed_profile();
  if (speeds != nullptr && !speeds->uniform()) {
    return "it runs on related machines (" + speeds->label() +
           "), not identical ones";
  }
  return {};
}

}  // namespace

Shard::Shard(int index, SchedulerFactory factory, const ShardConfig& config,
             MetricsRegistry& metrics)
    : index_(index),
      config_(config),
      factory_(std::move(factory)),
      metrics_(metrics),
      queue_(config.queue_capacity),
      batch_(std::make_unique<Task[]>(config.batch_size)) {
  SLACKSCHED_EXPECTS(index >= 0);
  SLACKSCHED_EXPECTS(config.batch_size >= 1);
  SLACKSCHED_EXPECTS(config.pop_timeout.count() >= 1);
  SLACKSCHED_EXPECTS(factory_ != nullptr);
  pending_.reserve(config.wal_path.empty() ? config.batch_size
                                           : config.queue_capacity);
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
  scheduler_ = factory_();
  SLACKSCHED_EXPECTS(scheduler_ != nullptr);
  if (const std::string why = unserved_because(*scheduler_); !why.empty()) {
    throw PreconditionError(
        "shard " + std::to_string(index_) + " refuses scheduler '" +
        scheduler_->name() + "': " + why +
        "; the service serves commitment on arrival on identical machines "
        "only (compare other models offline with run_online, "
        "docs/models.md)");
  }
  const int machines = scheduler_->machines();
  scheduler_->reset();

  if (config_.wal_path.empty()) {
    live_ = ShardResult{};
    live_.busy_until.assign(static_cast<std::size_t>(machines), 0.0);
  } else {
    RecoveryResult recovered =
        recover_commit_log(config_.wal_path, machines, scheduler_.get());
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
    wal_ = CommitLog::open(config_.wal_path, machines, log_config,
                           config_.faults, index_);
    // Replaced only once recovery succeeded: a failed restart keeps the
    // last marks, whose count take_result() replays over.
    live_ = ShardResult{};
    live_.metrics = recovered.metrics;
    live_.busy_until = std::move(recovered.busy_until);
  }
  // Unpublished decisions died with the worker, like unsent replies in a
  // crash.
  pending_.clear();

  worker_failed_.store(false, std::memory_order_release);
  worker_exited_.store(false, std::memory_order_release);
  worker_ = std::thread([this] { worker_loop(); });
}

Shard::BatchEnqueueResult Shard::try_enqueue_batch(
    const Job* jobs, const std::uint32_t* indices, std::size_t count,
    Clock::time_point now, std::uint64_t route_ctx) {
  BatchEnqueueResult result;
  // Tasks are constructed directly in their claimed ring cells: the
  // producer path performs no staging copy and no heap allocation.
  result.taken = queue_.try_push_batch_with(
      count, &result.closed,
      [&](std::size_t i, Task& slot) {
        const std::size_t index = indices != nullptr ? indices[i] : i;
        slot.job = jobs[index];
        slot.enqueued_at = now;
        slot.route_ctx = route_ctx == 0 ? 0 : route_ctx + index;
      },
      /*wake=*/false);
  metrics_.on_enqueued(index_, result.taken);
  if (!result.closed) {
    metrics_.on_backpressure(index_, count - result.taken);
  }
  return result;
}

void Shard::hand_off() noexcept {
  // The durability wait never runs on a producer: a shard with a WAL
  // leaves its decisions, and with them the fsync and the follower's ACK,
  // to its worker.
  if (!config_.wal_path.empty()) {
    queue_.notify();
    return;
  }
  // Dekker pair with release_role() and the worker's park: the push above
  // is ordered before this thread reads the role, a release before its
  // holder rereads the ring, so at least one side sees the other's store.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (!try_claim()) {
    queue_.notify();
    return;
  }
  try {
    // Bounded: one claim decides at most one ring's worth, so a producer
    // is never kept deciding other producers' jobs for ever.
    std::size_t decided = 0;
    while (decided < config_.queue_capacity) {
      const std::size_t popped =
          consume(config_.queue_capacity - decided).count;
      if (popped == 0) break;
      decided += popped;
    }
  } catch (const std::exception& e) {
    fail(e);
    queue_.notify();  // the parked worker sees the failure and exits
    return;
  }
  release_role();
}

bool Shard::try_claim() {
  bool held = false;
  return role_.compare_exchange_strong(held, true, std::memory_order_acquire,
                                       std::memory_order_relaxed);
}

void Shard::release_role() {
  role_.store(false, std::memory_order_release);
  // A producer that found the role still held pushed before its own fence;
  // this one orders the release before the reread, so its jobs show here
  // and the worker is woken for them.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (queue_.ready()) queue_.notify();
}

void Shard::close() { queue_.close(); }

void Shard::join() {
  SLACKSCHED_EXPECTS(started_);
  if (worker_.joinable()) worker_.join();
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

ShardResult Shard::take_result() {
  SLACKSCHED_EXPECTS(joined_);
  if (worker_failed() && !config_.wal_path.empty()) {
    // The in-memory state died with the worker; the commit log is the
    // durable truth. Read-only replay: finish() may still be mid-shutdown
    // elsewhere, and the next restart will truncate the tail itself. The
    // marks of the last spawn carry the machine count even when a failed
    // restart left no scheduler.
    RecoveryResult recovered = recover_commit_log(
        config_.wal_path, static_cast<int>(live_.busy_until.size()),
        /*scheduler=*/nullptr, /*truncate_file=*/false);
    ShardResult from_log;
    from_log.metrics = recovered.metrics;
    from_log.busy_until = std::move(recovered.busy_until);
    if (!recovered.ok) from_log.commitment_violation = recovered.error;
    return from_log;
  }
  return std::move(live_);
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
  // The worker holds the consumer role from spawn() and keeps it while the
  // ring has work; it parks without it, so on a shard without a WAL a
  // producer can decide its own job meanwhile (hand_off). It takes the
  // role back to drain the closed ring and keeps it, so nothing decides on
  // the finished shard. Any exception — injected fault, WAL I/O error,
  // replication loss, scheduler bug — marks the shard failed (one thrown
  // before a group's publish pass publishes nothing of it); the supervisor
  // decides whether to restart it.
  try {
    pin_current_thread(config_.pin_cpu);
    beat();
    while (true) {
      const PopOutcome popped = consume(config_.queue_capacity);
      if (popped.count > 0) continue;
      if (popped.closed) {  // closed and drained
        if (wal_) wal_->close();
        break;
      }
      if (!await_role()) break;  // a combiner failed the shard
      beat();  // an idle wake counts only once the role is claimed
    }
  } catch (const std::exception& e) {
    fail(e);
  }
  worker_exited_.store(true, std::memory_order_release);
}

PopOutcome Shard::consume(std::size_t budget) {
  // One binding decision per job in FIFO (= submission) order, in two
  // passes per group: decide every job, then, once the group's records are
  // durable (local fsync, then the follower's ACK when replicating),
  // publish every decision. A group is one pop without a WAL. With one, it
  // is every batch the ring already holds, up to `budget` jobs (one ring's
  // worth, so sustained overload still publishes): one sync covers the
  // whole backlog.
  PopOutcome popped = queue_.try_pop_batch(
      batch_.get(), std::min(config_.batch_size, budget));
  std::size_t grouped = 0;
  while (popped.count > 0) {
    beat();
    metrics_.on_batch(index_, popped.count);
    // Crash after a pop, before its decisions: the popped jobs are lost
    // undecided (never accepted, so nothing durable is owed for them).
    SLACKSCHED_FAULT_CRASH_POINT(config_.faults, FaultSite::kDequeue, index_);
    for (std::size_t i = 0; i < popped.count; ++i) decide(batch_[i]);
    grouped += popped.count;
    if (!wal_ || grouped >= budget) break;
    popped = queue_.try_pop_batch(
        batch_.get(), std::min(config_.batch_size, budget - grouped));
  }
  if (grouped == 0) return popped;
  if (wal_) {
    wal_->sync_batch();
    metrics_.on_wal_sync(index_);
  }
  publish();
  SLACKSCHED_FAULT_CRASH_POINT(config_.faults, FaultSite::kWorkerPanic,
                               index_);
  return PopOutcome{grouped, false};
}

bool Shard::await_role() {
  role_.store(false, std::memory_order_release);
  while (true) {
    // Parks on "role free and work ready", never on the ring alone, so it
    // does not spin behind a combiner. The recheck runs after the worker
    // registered as a waiter: its half of the Dekker pair with hand_off().
    queue_.park(
        [this] {
          return worker_failed() ||
                 (!role_.load(std::memory_order_relaxed) && queue_.ready());
        },
        Clock::now() + config_.pop_timeout);
    if (worker_failed()) return false;
    if (try_claim()) return true;
  }
}

void Shard::fail(const std::exception& error) {
  set_error(error.what());
  worker_failed_.store(true, std::memory_order_release);
}

void Shard::decide(const Task& task) {
  if (!live_.clean()) return;  // poisoned: drain without deciding
  const Job& job = task.job;
  const Decision decision = scheduler_->on_arrival(job);
  RunMetrics& counts = live_.metrics;
  ++counts.submitted;
  // spawn() admitted the scheduler as committing on arrival; a deferral
  // would leave the job tentative and its client unanswered for good.
  if (decision.deferred) {
    throw PostconditionError("scheduler '" + scheduler_->name() +
                             "' deferred job " + std::to_string(job.id) +
                             " although it commits on arrival");
  }
  if (config_.record_decisions) live_.decisions.push_back({job, decision});
  std::string violation =
      validate_served_commitment(live_.busy_until, job, decision);
  if (!violation.empty()) {
    // Never applied, logged or published: the shard stops deciding.
    live_.commitment_violation = std::move(violation);
    return;
  }
  if (decision.accepted) {
    if (wal_) {
      // Write-ahead: the record precedes the in-memory commit. The commit
      // crash site sits between the two, so recovery must replay the
      // logged-but-unapplied record.
      wal_->append(job, decision.machine, decision.start);
      SLACKSCHED_FAULT_CRASH_POINT(config_.faults, FaultSite::kCommit,
                                   index_);
    }
    TimePoint& mark =
        live_.busy_until[static_cast<std::size_t>(decision.machine)];
    mark = std::max(mark, decision.start + job.proc);
    counts.makespan = std::max(counts.makespan, mark);
    ++counts.accepted;
    counts.accepted_volume += job.proc;
  } else {
    ++counts.rejected;
    counts.rejected_volume += job.proc;
  }
  pending_.push_back({job, decision, task.enqueued_at, task.route_ctx});
}

void Shard::publish() {
  if (pending_.empty()) return;
  // One clock read for the whole batch: the moment its decisions are
  // communicated.
  const Clock::time_point published_at = Clock::now();
  const std::uint8_t fsync_class =
      wal_ != nullptr ? static_cast<std::uint8_t>(config_.wal_fsync)
                      : kTraceNoWal;
  for (const Publication& entry : pending_) {
    const double latency =
        std::chrono::duration<double>(published_at - entry.enqueued_at)
            .count();
    const std::size_t latency_bin =
        metrics_.on_decision(index_, entry.job.proc, entry.decision.accepted,
                             latency);
    if (config_.trace != nullptr) {
      TraceEvent event;
      event.job_id = entry.job.id;
      event.shard = static_cast<std::int16_t>(index_);
      event.kind =
          entry.decision.accepted ? Outcome::kAccepted : Outcome::kRejected;
      event.latency_bin = static_cast<std::uint8_t>(latency_bin);
      event.fsync_class = fsync_class;
      config_.trace->record(event);  // drop-on-full: never blocks decisions
    }
    // Notify last: the decision is validated, counted and traced before any
    // downstream consumer (e.g. the network front end) can observe it.
    if (config_.on_decision) {
      config_.on_decision(entry.job, entry.decision, entry.route_ctx);
    }
  }
  pending_.clear();
}

}  // namespace slacksched
