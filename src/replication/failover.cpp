#include "replication/failover.hpp"

#include <algorithm>

#include "common/rng.hpp"
#include "replication/replica_server.hpp"

namespace slacksched::repl {

namespace {

using Clock = std::chrono::steady_clock;

}  // namespace

std::string to_string(NodeHealth health) {
  switch (health) {
    case NodeHealth::kHealthy:
      return "healthy";
    case NodeHealth::kDegraded:
      return "degraded";
    case NodeHealth::kDown:
      return "down";
  }
  return "unknown";
}

FailoverDriver::FailoverDriver(const ReplicaServer& replica,
                               const FailoverConfig& config,
                               std::function<void()> on_down)
    : replica_(replica), config_(config), on_down_(std::move(on_down)) {}

FailoverDriver::~FailoverDriver() { stop(); }

void FailoverDriver::start() {
  if (started_) return;
  started_ = true;
  started_at_ = Clock::now();
  monitor_ = std::thread([this] { monitor_loop(); });
}

void FailoverDriver::stop() {
  stop_.store(true, std::memory_order_release);
  if (monitor_.joinable()) monitor_.join();
}

std::chrono::milliseconds FailoverDriver::probe_delay(int attempt) const {
  double ms = static_cast<double>(config_.backoff_initial.count());
  for (int i = 1; i < attempt; ++i) {
    ms = std::min(ms * config_.backoff_factor,
                  static_cast<double>(config_.backoff_max.count()));
  }
  SplitMix64 mix(config_.jitter_seed + static_cast<std::uint64_t>(attempt));
  const double scale =
      0.5 + 0.5 * static_cast<double>(mix.next() >> 11) * 0x1p-53;
  return std::chrono::milliseconds(std::max<std::int64_t>(
      1, static_cast<std::int64_t>(ms * scale)));
}

void FailoverDriver::monitor_loop() {
  auto next_probe = Clock::time_point::max();
  int attempts = 0;
  while (!stop_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(config_.poll_interval);
    const auto now = Clock::now();
    // A leader that never connected has been "silent" since start();
    // otherwise silence is measured from its last valid frame.
    const auto activity_age = replica_.last_activity_age();
    const auto silence =
        std::min<Clock::duration>(activity_age, now - started_at_);

    if (silence < config_.stall_threshold) {
      if (health_.load(std::memory_order_relaxed) != NodeHealth::kHealthy) {
        health_.store(NodeHealth::kHealthy, std::memory_order_release);
      }
      attempts = 0;
      probes_.store(0, std::memory_order_relaxed);
      next_probe = Clock::time_point::max();
      continue;
    }

    if (health_.load(std::memory_order_relaxed) == NodeHealth::kHealthy) {
      health_.store(NodeHealth::kDegraded, std::memory_order_release);
      attempts = 1;
      probes_.store(1, std::memory_order_relaxed);
      next_probe = now + probe_delay(attempts);
    }

    const bool probes_exhausted =
        attempts > config_.max_probes ||
        (now >= next_probe && attempts >= config_.max_probes);
    if (silence >= config_.down_threshold || probes_exhausted) {
      health_.store(NodeHealth::kDown, std::memory_order_release);
      if (!circuit_broken_.exchange(true, std::memory_order_acq_rel)) {
        if (on_down_) on_down_();
      }
      return;  // terminal: no automatic fail-back
    }

    if (now >= next_probe) {
      // The probe found the leader still silent (a resumed leader was
      // caught by the stall check above): burn one attempt, back off.
      ++attempts;
      probes_.store(attempts, std::memory_order_relaxed);
      next_probe = now + probe_delay(attempts);
    }
  }
}

PromotionResult promote_replica(const GatewayConfig& config,
                                const ShardSchedulerFactory& factory,
                                FaultInjector* faults) {
  PromotionResult result;
  if (config.wal_dir.empty()) {
    result.error = "promotion requires config.wal_dir (the replica logs)";
    return result;
  }
  try {
    for (int s = 0; s < config.shards; ++s) {
      // The chaos harness arms this site to kill the follower between
      // per-shard replays — promotion must be idempotent across it.
      SLACKSCHED_FAULT_CRASH_POINT(faults, FaultSite::kFailover, s);
    }
    // The replay: each Shard::spawn runs recover_commit_log with full
    // commitment re-validation and resumes serving from the result. An
    // unreadable or foreign log fails it ("shard N recovery failed: ..."),
    // which lands in result.error below.
    result.gateway = factory
                         ? std::make_unique<AdmissionGateway>(config, factory)
                         : std::make_unique<AdmissionGateway>(config);
    result.records_recovered =
        result.gateway->metrics_snapshot().total.wal_records_replayed;
    result.ok = true;
  } catch (const std::exception& e) {
    result.gateway.reset();
    result.error = e.what();
  }
  return result;
}

}  // namespace slacksched::repl
