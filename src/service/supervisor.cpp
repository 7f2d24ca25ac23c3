#include "service/supervisor.hpp"

#include "common/expects.hpp"

namespace slacksched {

std::vector<std::string> SupervisorConfig::validate() const {
  std::vector<std::string> problems = HealthPolicy::validate();
  if (max_attempts < 0) {
    problems.push_back("max_attempts must be >= 0 (got " +
                       std::to_string(max_attempts) + ")");
  }
  if (!(backoff.factor >= 1.0)) {
    problems.push_back("backoff.factor must be >= 1 (got " +
                       std::to_string(backoff.factor) +
                       "): the delay would shrink");
  }
  return problems;
}

ShardSupervisor::ShardSupervisor(std::vector<std::unique_ptr<Shard>>& shards,
                                 const SupervisorConfig& config)
    : shards_(shards), config_(config) {
  SLACKSCHED_EXPECTS(!shards.empty());
  require_no_problems("invalid SupervisorConfig:", config.validate());
  states_.reserve(shards.size());
  const auto now = std::chrono::steady_clock::now();
  for (std::size_t s = 0; s < shards.size(); ++s) {
    auto state = std::make_unique<State>();
    state->last_progress = now;
    states_.push_back(std::move(state));
  }
}

ShardSupervisor::~ShardSupervisor() { stop(); }

void ShardSupervisor::start() {
  if (!config_.enabled) return;
  monitor_.start(config_.poll_interval, [this] {
    std::lock_guard lock(control_mutex_);
    tick(std::chrono::steady_clock::now());
    return true;
  });
}

void ShardSupervisor::force_down(int shard) {
  State& state = *states_[static_cast<std::size_t>(shard)];
  state.forced_down.store(true, std::memory_order_release);
  state.health.store(Health::kDown, std::memory_order_release);
  shards_[static_cast<std::size_t>(shard)]->close();  // drain and exit
}

bool ShardSupervisor::force_recover(int shard) {
  std::lock_guard lock(control_mutex_);
  State& state = *states_[static_cast<std::size_t>(shard)];
  state.forced_down.store(false, std::memory_order_release);
  state.circuit_broken.store(false, std::memory_order_release);
  state.attempts = 0;
  state.restart_pending = false;
  Shard& target = *shards_[static_cast<std::size_t>(shard)];
  if (!target.worker_exited()) {
    // Worker still alive (e.g. force_down mid-drain): let it finish the
    // backlog first; the caller retries once worker_exited() holds.
    state.health.store(Health::kDown, std::memory_order_release);
    return false;
  }
  return restart_locked(shard, state);
}

bool ShardSupervisor::restart_locked(int shard, State& state) {
  Shard& target = *shards_[static_cast<std::size_t>(shard)];
  state.health.store(Health::kRecovering, std::memory_order_release);
  if (!target.restart()) {
    state.health.store(Health::kDown, std::memory_order_release);
    return false;
  }
  state.restarts.fetch_add(1, std::memory_order_relaxed);
  state.last_beat = target.heartbeat();
  state.last_progress = std::chrono::steady_clock::now();
  state.health.store(Health::kHealthy, std::memory_order_release);
  return true;
}

void ShardSupervisor::tick(std::chrono::steady_clock::time_point now) {
  // Caller (the monitor tick) holds control_mutex_.
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    State& state = *states_[s];
    Shard& shard = *shards_[s];
    if (state.forced_down.load(std::memory_order_acquire) ||
        state.circuit_broken.load(std::memory_order_acquire)) {
      state.health.store(Health::kDown, std::memory_order_release);
      continue;
    }

    if (shard.worker_exited()) {
      if (!shard.worker_failed()) {
        // Clean exit (queue closed and drained): nothing to restart.
        state.health.store(Health::kDown, std::memory_order_release);
        continue;
      }
      if (!state.restart_pending) {
        ++state.attempts;
        if (state.attempts > config_.max_attempts) {
          state.circuit_broken.store(true, std::memory_order_release);
          state.health.store(Health::kDown, std::memory_order_release);
          continue;
        }
        state.restart_pending = true;
        // Jittered per (shard, attempt): co-crashed shards spread out.
        state.next_restart = now + config_.backoff.delay(state.attempts, s);
        state.health.store(Health::kDown, std::memory_order_release);
      } else if (now >= state.next_restart) {
        state.restart_pending = false;
        restart_locked(static_cast<int>(s), state);
        // On failure the shard is Down again; the next tick schedules the
        // next attempt (or breaks the circuit).
      }
      continue;
    }

    // Live worker: progress is a moving heartbeat.
    const std::uint64_t beat = shard.heartbeat();
    if (beat != state.last_beat) {
      state.last_beat = beat;
      state.last_progress = now;
      state.health.store(Health::kHealthy, std::memory_order_release);
      continue;
    }
    // A live-but-wedged thread cannot be joined safely; a long stall only
    // makes the shard refuse new jobs until the heartbeat resumes. A young
    // silence keeps the current state.
    const Health stalled = config_.classify(now - state.last_progress);
    if (stalled != Health::kHealthy) {
      state.health.store(stalled, std::memory_order_release);
    }
  }
}

}  // namespace slacksched
