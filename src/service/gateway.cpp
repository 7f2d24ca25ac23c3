#include "service/gateway.hpp"

#include <algorithm>
#include <thread>
#include <utility>

#include "common/expects.hpp"
#include "service/metrics_exporter.hpp"

namespace slacksched {

namespace {

bool is_power_of_two(std::size_t v) { return v != 0 && (v & (v - 1)) == 0; }

/// One producer thread's grouping scratch for submit_batch: per shard, the
/// indices of the jobs grouped for it, in submission order. Reused across
/// calls and gateways: once its vectors have grown to the thread's largest
/// batch and shard count, ingest makes no heap allocation. Each thread
/// owns its copy, and submit_batch never re-enters itself (an on_decision
/// hook it runs inline must not submit), so no lock.
thread_local std::vector<std::vector<std::uint32_t>> t_groups;

}  // namespace

std::vector<std::string> GatewayConfig::validate() const {
  std::vector<std::string> errors;
  if (shards < 1) {
    errors.push_back("shards must be >= 1 (got " + std::to_string(shards) +
                     ")");
  }
  if (queue_capacity < 1) {
    errors.push_back("queue_capacity must be >= 1 (got 0)");
  } else if (!is_power_of_two(queue_capacity)) {
    errors.push_back("queue_capacity must be a power of two (got " +
                     std::to_string(queue_capacity) +
                     "): the lock-free ring would silently round up");
  }
  if (batch_size < 1) {
    errors.push_back("batch_size must be >= 1 (got 0)");
  }
  if (pop_timeout.count() < 1) {
    errors.push_back("pop_timeout must be >= 1ms (got " +
                     std::to_string(pop_timeout.count()) +
                     "ms): the worker would spin instead of heartbeating");
  }
  for (const std::string& problem : supervisor.validate()) {
    errors.push_back("supervisor: " + problem);
  }
  if (supervisor.enabled && pop_timeout >= supervisor.stall_threshold) {
    errors.push_back(
        "pop_timeout (" + std::to_string(pop_timeout.count()) +
        "ms) must stay below supervisor.stall_threshold (" +
        std::to_string(supervisor.stall_threshold.count()) +
        "ms): an idle worker would be declared degraded between wake-ups");
  }
  if (enable_tracing && !is_power_of_two(trace_capacity)) {
    errors.push_back("trace_capacity must be a power of two (got " +
                     std::to_string(trace_capacity) +
                     "): the ring indexes slots with a mask");
  }
  if (!metrics_textfile.empty() && metrics_period.count() < 1) {
    errors.push_back("metrics_period must be >= 1ms when metrics_textfile "
                     "is set (got " + std::to_string(metrics_period.count()) +
                     "ms): the publisher would busy-loop");
  }
  if (replication.has_value()) {
    if (wal_dir.empty()) {
      errors.push_back(
          "replication requires wal_dir: the replication stream is the "
          "commit log's write stream, and a gateway without a WAL has "
          "nothing to replicate");
    }
    for (const std::string& problem : replication->validate()) {
      errors.push_back("replication: " + problem);
    }
  }
  return errors;
}

bool GatewayResult::clean() const {
  return errors.empty() &&
         std::all_of(shards.begin(), shards.end(),
                     [](const ShardResult& r) { return r.clean(); });
}

std::string GatewayResult::first_violation() const {
  for (const ShardResult& r : shards) {
    if (!r.clean()) return r.commitment_violation;
  }
  return {};
}

AdmissionGateway::AdmissionGateway(const GatewayConfig& config,
                                   const ShardSchedulerFactory& factory)
    : config_(config),
      metrics_(config.shards),
      router_(config.routing, config.shards) {
  // Reject invalid deployment shapes loudly instead of clamping them:
  // every problem in one message, so a misconfigured service names all
  // its sins at startup rather than one per restart.
  require_no_problems("invalid GatewayConfig:", config.validate());
  SLACKSCHED_EXPECTS(factory != nullptr);
  ShardConfig shard_config;
  shard_config.queue_capacity = config.queue_capacity;
  shard_config.batch_size = config.batch_size;
  shard_config.record_decisions = config.record_decisions;
  shard_config.pop_timeout = config.pop_timeout;
  shard_config.wal_fsync = config.wal_fsync;
  shard_config.faults = config.fault_injector;
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  if (config.enable_tracing) {
    traces_.reserve(static_cast<std::size_t>(config.shards));
    for (int s = 0; s < config.shards; ++s) {
      // One shared seq counter across all rings: a multi-shard trace
      // merges into one total order with a sort (drain_trace()).
      traces_.push_back(
          std::make_unique<TraceRing>(config.trace_capacity, &trace_seq_));
    }
  }
  if (config.replication.has_value()) {
    // Replicators before shards: each shard's CommitLog attaches to its
    // replicator as an observer at open, inside Shard::start below.
    replicators_.reserve(static_cast<std::size_t>(config.shards));
    for (int s = 0; s < config.shards; ++s) {
      replicators_.push_back(
          std::make_unique<repl::ShardReplicator>(s, *config.replication));
    }
  }
  shards_.reserve(static_cast<std::size_t>(config.shards));
  for (int s = 0; s < config.shards; ++s) {
    if (!config.wal_dir.empty()) {
      shard_config.wal_path =
          config.wal_dir + "/shard-" + std::to_string(s) + ".wal";
    }
    shard_config.wal_observer =
        replicators_.empty() ? nullptr
                             : replicators_[static_cast<std::size_t>(s)].get();
    shard_config.trace =
        config.enable_tracing ? traces_[static_cast<std::size_t>(s)].get()
                              : nullptr;
    shard_config.pin_cpu =
        config.pin_shards ? static_cast<int>(static_cast<unsigned>(s) % cores)
                          : -1;
    if (config.on_decision) {
      shard_config.on_decision = [callback = config.on_decision, s](
                                     const Job& job, const Decision& decision,
                                     std::uint64_t route_ctx) {
        callback(s, job, decision, route_ctx);
      };
    }
    shards_.push_back(std::make_unique<Shard>(
        s, [factory, s] { return factory(s); }, shard_config, metrics_));
  }
  for (auto& shard : shards_) {
    shard->start();
    served_slack_ =
        std::max(served_slack_, shard->scheduler().assumed_slack());
  }
  supervisor_ = std::make_unique<ShardSupervisor>(shards_, config.supervisor);
  supervisor_->start();
  if (!config.metrics_textfile.empty()) {
    publisher_ = std::make_unique<MetricsPublisher>(
        PublisherConfig{config.metrics_textfile, config.metrics_period},
        [this] { return render_prometheus(*this); });
    publisher_->start();
  }
}

AdmissionGateway::~AdmissionGateway() {
  supervisor_->stop();
  if (!finished_.load()) {
    for (auto& shard : shards_) shard->close();
    // ~Shard joins.
  }
}

Outcome AdmissionGateway::submit(const Job& job, std::uint64_t route_ctx) {
  Outcome status = Outcome::kRejectedClosed;
  (void)submit_batch(std::span<const Job>(&job, 1),
                     std::span<Outcome>(&status, 1), route_ctx);
  return status;
}

BatchSubmitResult AdmissionGateway::submit_batch(std::span<const Job> jobs,
                                                 std::span<Outcome> statuses,
                                                 std::uint64_t route_ctx) {
  SLACKSCHED_EXPECTS(statuses.empty() || statuses.size() == jobs.size());
  BatchSubmitResult result;
  const auto report = [statuses](std::size_t i, Outcome outcome) {
    if (!statuses.empty()) statuses[i] = outcome;
  };
  if (finished_.load(std::memory_order_acquire)) {
    result.rejected_closed = jobs.size();
    std::fill(statuses.begin(), statuses.end(), Outcome::kRejectedClosed);
    return result;
  }
  const auto trace = [this](int shard, JobId job_id, Outcome kind) {
    if (traces_.empty()) return;
    TraceEvent event;  // latency_bin / fsync_class keep their sentinels
    event.job_id = job_id;
    event.shard = static_cast<std::int16_t>(shard);
    event.kind = kind;
    traces_[static_cast<std::size_t>(shard)]->record(event);
  };
  const auto shard_count = static_cast<std::size_t>(config_.shards);
  std::vector<std::vector<std::uint32_t>>& groups = t_groups;
  if (groups.size() < shard_count) groups.resize(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) groups[s].clear();

  // Refuse what never reaches a queue, and group the rest by the router's
  // shard, preserving submission order within each group. A job is decided
  // on its own shard or not at all: while that shard is unavailable its
  // jobs are refused with retry-after, never sent to another shard.
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Job& job = jobs[i];
    // A job outside the served instance class is refused here, before
    // it can reach a scheduler whose guarantee does not cover it.
    if (!job.servable(served_slack_)) {
      ++result.rejected_invalid;
      report(i, Outcome::kRejectedInvalid);
      continue;
    }
    const int shard_index = router_.route(job);
    if (!supervisor_->available(shard_index)) {
      ++result.rejected_retry_after;
      metrics_.on_degraded_reject(shard_index);
      trace(shard_index, job.id, Outcome::kRejectedRetryAfter);
      report(i, Outcome::kRejectedRetryAfter);
      continue;
    }
    // Simulated ingest drop: refuses exactly this job, as a full queue
    // would, whether it arrived alone or in a batch.
    if (SLACKSCHED_FAULT_FIRES(config_.fault_injector, FaultSite::kEnqueue,
                               shard_index)) {
      ++result.rejected_queue_full;
      metrics_.on_backpressure(shard_index);
      report(i, Outcome::kRejectedQueueFull);
      continue;
    }
    groups[static_cast<std::size_t>(shard_index)].push_back(
        static_cast<std::uint32_t>(i));
  }

  const auto now = Shard::Clock::now();
  for (std::size_t s = 0; s < shard_count; ++s) {
    const std::vector<std::uint32_t>& group = groups[s];
    if (group.empty()) continue;
    const Shard::BatchEnqueueResult pushed = shards_[s]->try_enqueue_batch(
        jobs.data(), group.data(), group.size(), now, route_ctx);
    result.enqueued += pushed.taken;
    // A shed tail on a closed queue is not backpressure: the shard shut
    // down mid-batch, and the caller must treat the tail as unserviceable
    // rather than retryable-on-this-shard.
    const std::size_t shed = group.size() - pushed.taken;
    if (pushed.closed) {
      result.rejected_closed += shed;
    } else {
      result.rejected_queue_full += shed;
    }
    if (statuses.empty()) continue;
    const Outcome tail_status = pushed.closed ? Outcome::kRejectedClosed
                                              : Outcome::kRejectedQueueFull;
    for (std::size_t g = 0; g < group.size(); ++g) {
      statuses[group[g]] = g < pushed.taken ? Outcome::kEnqueued : tail_status;
    }
  }
  // Every group is queued before any shard is handed its jobs, so no
  // shard's worker waits behind the decisions this thread makes inline
  // for another shard.
  for (std::size_t s = 0; s < shard_count; ++s) {
    if (!groups[s].empty()) shards_[s]->hand_off();
  }
  return result;
}

std::vector<TraceEvent> AdmissionGateway::drain_trace() {
  std::vector<TraceEvent> events;
  for (auto& ring : traces_) ring->drain(events);
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.seq < b.seq;
            });
  return events;
}

GatewayResult AdmissionGateway::finish() {
  SLACKSCHED_EXPECTS(!finished_.exchange(true, std::memory_order_acq_rel));
  supervisor_->stop();  // no restarts may race the shutdown below
  for (auto& shard : shards_) shard->close();
  for (auto& shard : shards_) shard->join();
  // Final publish after the shards quiesced: the textfile on disk ends
  // exactly equal to the counters GatewayResult reports.
  if (publisher_) publisher_->stop();

  GatewayResult result;
  result.shards.reserve(shards_.size());
  for (auto& shard : shards_) {
    if (shard->worker_failed()) {
      result.errors.push_back("shard " + std::to_string(shard->index()) +
                              ": " + shard->last_error());
    }
    result.shards.push_back(shard->take_result());
  }
  for (const ShardResult& r : result.shards) {
    result.merged.submitted += r.metrics.submitted;
    result.merged.accepted += r.metrics.accepted;
    result.merged.rejected += r.metrics.rejected;
    result.merged.accepted_volume += r.metrics.accepted_volume;
    result.merged.rejected_volume += r.metrics.rejected_volume;
    result.merged.makespan = std::max(result.merged.makespan,
                                      r.metrics.makespan);
  }
  result.metrics = metrics_.snapshot();
  return result;
}

}  // namespace slacksched
