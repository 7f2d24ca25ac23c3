/// \file
/// Node-level failover: the follower-side monitor that watches the leader
/// through its replication traffic and decides when the node is gone, and
/// the promotion path that turns the replica logs into a serving
/// AdmissionGateway.
///
/// FailoverDriver runs the shard supervisor's HealthPolicy one level up —
/// the same Healthy -> Degraded -> Down classification, driven by leader
/// silence instead of worker heartbeats:
///
///                  leader silent                silence persists
///      Healthy ──────────────────► Degraded ──────────────────────► Down
///         ▲      (>= stall_threshold)  │      (>= down_threshold)     │
///         └────── traffic resumes ─────┘                              │
///                                                       on_down fires │
///                                                       exactly once ─┘
///
/// The one rule: the leader is Down if and only if its silence reaches
/// down_threshold. Degraded only reports the stall; traffic that resumes
/// before down_threshold returns the node to Healthy. Down is terminal —
/// the circuit breaks, on_down fires exactly once, and the owner runs
/// promote_replica. There is no automatic fail-back: a returned leader
/// finds the promoted node ahead and is refused as stale by its own
/// replication handshake.
///
/// promote_replica replays the replica's per-shard logs through the
/// existing gateway recovery machinery (Shard::spawn ->
/// recover_commit_log, with full commitment re-validation) and returns a
/// serving gateway. The kFailover fault site fires once per shard before
/// the replay, so the chaos harness can kill the follower mid-promotion
/// and assert that a *second* promotion still lands on the same records.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/health.hpp"
#include "service/fault_injection.hpp"
#include "service/gateway.hpp"

namespace slacksched::repl {

class ReplicaServer;

/// Failover detection policy: leader silence past stall_threshold is
/// Degraded (stall_threshold must exceed the leader's heartbeat interval
/// by a healthy margin), past down_threshold Down; the monitor looks every
/// poll_interval.
using FailoverConfig = HealthPolicy;

/// Watches a ReplicaServer's leader-traffic signals and fires `on_down`
/// exactly once when the leader is declared dead. The replica (and the
/// callback) must outlive the driver.
class FailoverDriver {
 public:
  /// Throws PreconditionError naming every problem in `config`.
  FailoverDriver(const ReplicaServer& replica, const FailoverConfig& config,
                 std::function<void()> on_down);
  ~FailoverDriver();

  FailoverDriver(const FailoverDriver&) = delete;
  FailoverDriver& operator=(const FailoverDriver&) = delete;

  /// Spawns the monitor thread. A leader that never appears counts as
  /// silent from this moment, so a leader killed before its first
  /// connection still fails over.
  void start();

  /// Stops and joins the monitor, waking it at once. Idempotent.
  void stop() { monitor_.stop(); }

  [[nodiscard]] Health health() const {
    return health_.load(std::memory_order_acquire);
  }

  /// True once on_down fired (terminal; no further transitions).
  [[nodiscard]] bool circuit_broken() const {
    return circuit_broken_.load(std::memory_order_acquire);
  }

  [[nodiscard]] const FailoverConfig& config() const { return config_; }

 private:
  /// One poll; false once the node is declared Down (terminal).
  bool tick();

  const ReplicaServer& replica_;
  FailoverConfig config_;
  std::function<void()> on_down_;

  std::atomic<Health> health_{Health::kHealthy};
  std::atomic<bool> circuit_broken_{false};

  std::chrono::steady_clock::time_point started_at_{};  ///< monitor-only
  PeriodicThread monitor_;
};

/// What promoting a replica produced.
struct PromotionResult {
  /// The serving gateway over the replica's logs (null when !ok).
  std::unique_ptr<AdmissionGateway> gateway;
  /// WAL records replayed across all shards during promotion.
  std::uint64_t records_recovered = 0;
  bool ok = false;
  std::string error;
};

/// Promotes the replica logs under `config.wal_dir` into a serving
/// gateway. Per shard the kFailover crash site fires (so a chaos plan can
/// kill the promotion between shards); then the gateway constructor
/// replays every log through recover_commit_log — full commitment
/// re-validation included — and an unreadable or foreign log fails it.
/// A scheduler the service does not serve (see AdmissionGateway) fails it
/// too. Never throws: a failed promotion reports ok = false and the reason.
[[nodiscard]] PromotionResult promote_replica(
    const GatewayConfig& config, const ShardSchedulerFactory& factory,
    FaultInjector* faults = nullptr);

}  // namespace slacksched::repl
