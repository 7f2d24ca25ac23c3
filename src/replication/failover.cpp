#include "replication/failover.hpp"

#include <algorithm>

#include "common/expects.hpp"
#include "replication/replica_server.hpp"

namespace slacksched::repl {

namespace {

using Clock = std::chrono::steady_clock;

}  // namespace

FailoverDriver::FailoverDriver(const ReplicaServer& replica,
                               const FailoverConfig& config,
                               std::function<void()> on_down)
    : replica_(replica), config_(config), on_down_(std::move(on_down)) {
  require_no_problems("invalid FailoverConfig:", config_.validate());
}

FailoverDriver::~FailoverDriver() { stop(); }

void FailoverDriver::start() {
  started_at_ = Clock::now();
  monitor_.start(config_.poll_interval, [this] { return tick(); });
}

bool FailoverDriver::tick() {
  // A leader that never connected has been "silent" since start();
  // otherwise silence is measured from its last valid frame.
  const auto silence = std::min<Clock::duration>(
      replica_.last_activity_age(), Clock::now() - started_at_);
  const Health judged = config_.classify(silence);
  health_.store(judged, std::memory_order_release);
  if (judged != Health::kDown) return true;
  circuit_broken_.store(true, std::memory_order_release);
  if (on_down_) on_down_();
  return false;  // terminal: the loop ends, so on_down fires once
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
    result.gateway = std::make_unique<AdmissionGateway>(config, factory);
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
