// Shard supervision: a health state machine per shard, driven by the
// worker heartbeat and exit flags Shard publishes, with in-place restart
// of crashed workers (exponential backoff, deterministic jitter, circuit
// breaker) and the availability view the gateway's ingest reads on its hot
// path: a job whose shard is unavailable is refused with retry-after.
//
// Health FSM per shard:
//
//                    heartbeat stalls          stall persists
//        Healthy ───────────────────► Degraded ─────────────► Down
//           ▲  ▲      (>= stall_threshold)     (>= down_threshold)
//           │  └──────────── heartbeat resumes ──┘              │
//           │                                                   │ worker
//           │            restart succeeds                       │ crashed
//           └──────────── Recovering ◄───── backoff elapsed ────┘
//                              │
//                              └── restart fails / attempts exhausted
//                                  ──► Down (circuit broken: no further
//                                       automatic restarts)
//
// Only a *dead* worker is restarted (the thread has exited and can be
// joined). A live-but-wedged worker cannot be safely torn down, so a
// stalled shard merely refuses new jobs (Degraded/Down) until its
// heartbeat resumes. Commitments never migrate: a restart replays the
// shard's own commit log onto the same machine group.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/health.hpp"
#include "service/shard.hpp"

namespace slacksched {

/// Supervision policy: the shared HealthPolicy (a wedged heartbeat past
/// stall_threshold is Degraded, past down_threshold Down) plus the
/// restart pacing and two supervisor-only knobs.
struct SupervisorConfig : HealthPolicy {
  /// Restarts per shard before the circuit breaks.
  int max_attempts = 5;
  /// Pacing of those restarts, on the shard's own jitter stream.
  Backoff backoff;
  /// When false no monitor thread runs; health stays kHealthy unless
  /// forced (force_down) — supervision becomes a manual-only facility.
  bool enabled = true;
  /// Suggested client back-off returned with a retry_after rejection of a
  /// job whose shard is unavailable.
  std::chrono::milliseconds retry_after{50};

  /// HealthPolicy's problems plus the restart pacing's; empty when valid.
  [[nodiscard]] std::vector<std::string> validate() const;
};

/// Watches a gateway's shards. Health reads are lock-free atomics, safe
/// on the per-job submit path; all supervision state transitions happen
/// on the monitor thread or under the control mutex (force_* calls).
class ShardSupervisor {
 public:
  ShardSupervisor(std::vector<std::unique_ptr<Shard>>& shards,
                  const SupervisorConfig& config);
  ~ShardSupervisor();

  ShardSupervisor(const ShardSupervisor&) = delete;
  ShardSupervisor& operator=(const ShardSupervisor&) = delete;

  /// Spawns the monitor thread (no-op when config.enabled is false).
  void start();

  /// Stops and joins the monitor thread. Idempotent; called by the
  /// destructor and by the gateway before it closes the shards.
  void stop() { monitor_.stop(); }

  [[nodiscard]] Health health(int shard) const {
    return states_[static_cast<std::size_t>(shard)]->health.load(
        std::memory_order_acquire);
  }

  /// A shard receives new work iff it is Healthy.
  [[nodiscard]] bool available(int shard) const {
    return health(shard) == Health::kHealthy;
  }

  /// Completed automatic + forced restarts of the shard.
  [[nodiscard]] int restarts(int shard) const {
    return states_[static_cast<std::size_t>(shard)]->restarts.load(
        std::memory_order_relaxed);
  }

  /// True once the shard exhausted max_attempts; only force_recover()
  /// re-arms it.
  [[nodiscard]] bool circuit_broken(int shard) const {
    return states_[static_cast<std::size_t>(shard)]->circuit_broken.load(
        std::memory_order_acquire);
  }

  [[nodiscard]] std::chrono::milliseconds retry_after() const {
    return config_.retry_after;
  }

  /// Administrative drain: marks the shard Down and closes its queue (the
  /// worker finishes the backlog and exits cleanly). Works with the
  /// monitor disabled.
  void force_down(int shard);

  /// Clears a forced-down or circuit-broken state and restarts the shard
  /// immediately (when its worker has exited). Returns false with the
  /// shard left Down when the restart fails.
  [[nodiscard]] bool force_recover(int shard);

  [[nodiscard]] const SupervisorConfig& config() const { return config_; }

 private:
  struct State {
    std::atomic<Health> health{Health::kHealthy};
    std::atomic<int> restarts{0};
    std::atomic<bool> circuit_broken{false};
    std::atomic<bool> forced_down{false};
    // Monitor-side bookkeeping, guarded by control_mutex_.
    std::uint64_t last_beat = 0;
    std::chrono::steady_clock::time_point last_progress{};
    std::chrono::steady_clock::time_point next_restart{};
    bool restart_pending = false;
    int attempts = 0;
  };

  void tick(std::chrono::steady_clock::time_point now);
  /// Runs Shard::restart under the control mutex and updates counters.
  /// Caller holds control_mutex_.
  bool restart_locked(int shard, State& state);

  std::vector<std::unique_ptr<Shard>>& shards_;
  SupervisorConfig config_;
  std::vector<std::unique_ptr<State>> states_;

  std::mutex control_mutex_;
  PeriodicThread monitor_;
};

}  // namespace slacksched
