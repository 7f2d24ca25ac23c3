#include "common/health.hpp"

#include <algorithm>

#include "common/expects.hpp"
#include "common/rng.hpp"

namespace slacksched {

std::string to_string(Health health) {
  switch (health) {
    case Health::kHealthy:
      return "healthy";
    case Health::kDegraded:
      return "degraded";
    case Health::kDown:
      return "down";
    case Health::kRecovering:
      return "recovering";
  }
  return "unknown";
}

double jitter_unit(std::uint64_t seed, std::uint64_t stream,
                   std::uint64_t draw) {
  SplitMix64 streams(seed ^ (0x9e3779b97f4a7c15ULL * (stream + 1)));
  SplitMix64 mix(streams.next() + draw);
  return static_cast<double>(mix.next() >> 11) * 0x1p-53;
}

std::chrono::milliseconds Backoff::delay(int attempt,
                                         std::uint64_t stream) const {
  const auto cap = static_cast<double>(max.count());
  double ms = std::min(static_cast<double>(initial.count()), cap);
  for (int i = 1; i < attempt; ++i) ms = std::min(ms * factor, cap);
  ms *= 0.5 + 0.5 * jitter_unit(seed, stream,
                                static_cast<std::uint64_t>(attempt));
  return std::chrono::milliseconds(
      std::max<std::int64_t>(1, static_cast<std::int64_t>(ms)));
}

Health HealthPolicy::classify(
    std::chrono::steady_clock::duration silence) const {
  if (silence >= down_threshold) return Health::kDown;
  if (silence >= stall_threshold) return Health::kDegraded;
  return Health::kHealthy;
}

std::vector<std::string> HealthPolicy::validate() const {
  std::vector<std::string> problems;
  if (poll_interval.count() < 1) {
    problems.push_back("poll_interval must be >= 1ms (got " +
                       std::to_string(poll_interval.count()) +
                       "ms): the monitor would spin");
  }
  if (stall_threshold >= down_threshold) {
    problems.push_back("stall_threshold (" +
                       std::to_string(stall_threshold.count()) +
                       "ms) must be below down_threshold (" +
                       std::to_string(down_threshold.count()) + "ms)");
  }
  return problems;
}

void PeriodicThread::start(Period period, Tick tick) {
  std::lock_guard lock(mutex_);
  SLACKSCHED_EXPECTS(!thread_.joinable() && !stopping_);
  thread_ = std::thread([this, period = std::move(period),
                         tick = std::move(tick)] {
    for (std::uint64_t cycle = 0;; ++cycle) {
      {
        std::unique_lock sleep(mutex_);
        if (wake_.wait_for(sleep, period(cycle),
                           [this] { return stopping_; })) {
          return;
        }
      }
      if (!tick()) return;
    }
  });
}

void PeriodicThread::stop() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  if (thread_.joinable()) thread_.join();
}

}  // namespace slacksched
