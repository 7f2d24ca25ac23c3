/// \file
/// Node-level failover: the follower-side monitor that watches the leader
/// through its replication traffic and decides when the node is gone, and
/// the promotion path that turns the replica logs into a serving
/// AdmissionGateway.
///
/// FailoverDriver mirrors the shard supervisor's FSM one level up — the
/// same Healthy -> Degraded -> Down shape, driven by leader silence
/// instead of worker heartbeats:
///
///                  leader silent              silence persists /
///      Healthy ──────────────────► Degraded ── probes exhausted ──► Down
///         ▲      (>= stall_threshold)  │                             │
///         └────── traffic resumes ─────┘                             │
///                                                      on_down fires │
///                                                      exactly once ─┘
///
/// While Degraded the driver probes with capped exponential backoff and
/// deterministic jitter (SplitMix64, like the supervisor's restart
/// backoff); a probe that sees fresh traffic returns the node to Healthy
/// and re-arms the budget. Down is terminal — the circuit breaks, on_down
/// fires exactly once, and the owner runs promote_replica. There is no
/// automatic fail-back: a returned leader finds the promoted node ahead
/// and is refused as stale by its own replication handshake.
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
#include <thread>

#include "service/fault_injection.hpp"
#include "service/gateway.hpp"

namespace slacksched::repl {

class ReplicaServer;

/// Node health as the failover driver sees it.
enum class NodeHealth : std::uint8_t {
  kHealthy,   ///< leader traffic within the stall threshold
  kDegraded,  ///< leader silent; probing with backoff
  kDown,      ///< leader declared dead; promotion triggered
};

[[nodiscard]] std::string to_string(NodeHealth health);

/// Failover detection policy (the node-level SupervisorConfig).
struct FailoverConfig {
  std::chrono::milliseconds poll_interval{10};
  /// Leader silence marking the node Degraded (must exceed the leader's
  /// heartbeat interval by a healthy margin).
  std::chrono::milliseconds stall_threshold{500};
  /// Silence past this always declares Down, whatever the probe budget.
  std::chrono::milliseconds down_threshold{2000};
  /// Backoff probes while Degraded before giving up early.
  int max_probes = 5;
  std::chrono::milliseconds backoff_initial{10};
  double backoff_factor = 2.0;
  std::chrono::milliseconds backoff_max{1000};
  /// Seed of the probe-backoff jitter ([0.5, 1.0] scaling, SplitMix64).
  std::uint64_t jitter_seed = 0x5eed5eed5eed5eedULL;
};

/// Watches a ReplicaServer's leader-traffic signals and fires `on_down`
/// exactly once when the leader is declared dead. The replica (and the
/// callback) must outlive the driver.
class FailoverDriver {
 public:
  FailoverDriver(const ReplicaServer& replica, const FailoverConfig& config,
                 std::function<void()> on_down);
  ~FailoverDriver();

  FailoverDriver(const FailoverDriver&) = delete;
  FailoverDriver& operator=(const FailoverDriver&) = delete;

  /// Spawns the monitor thread. A leader that never appears counts as
  /// silent from this moment, so a leader killed before its first
  /// connection still fails over.
  void start();

  /// Stops and joins the monitor. Idempotent.
  void stop();

  [[nodiscard]] NodeHealth health() const {
    return health_.load(std::memory_order_acquire);
  }

  /// Backoff probes spent in the current / final Degraded episode.
  [[nodiscard]] int probes() const {
    return probes_.load(std::memory_order_relaxed);
  }

  /// True once on_down fired (terminal; no further transitions).
  [[nodiscard]] bool circuit_broken() const {
    return circuit_broken_.load(std::memory_order_acquire);
  }

  [[nodiscard]] const FailoverConfig& config() const { return config_; }

 private:
  void monitor_loop();
  /// Jittered, capped exponential delay before probe `attempt` (1-based).
  [[nodiscard]] std::chrono::milliseconds probe_delay(int attempt) const;

  const ReplicaServer& replica_;
  FailoverConfig config_;
  std::function<void()> on_down_;

  std::atomic<NodeHealth> health_{NodeHealth::kHealthy};
  std::atomic<int> probes_{0};
  std::atomic<bool> circuit_broken_{false};

  std::atomic<bool> stop_{false};
  bool started_ = false;
  std::chrono::steady_clock::time_point started_at_{};
  std::thread monitor_;
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
/// With `factory` null the gateway is built from config.model.
/// Never throws: a failed promotion reports ok = false and the reason.
[[nodiscard]] PromotionResult promote_replica(
    const GatewayConfig& config, const ShardSchedulerFactory& factory = {},
    FaultInjector* faults = nullptr);

}  // namespace slacksched::repl
