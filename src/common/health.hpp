// One health vocabulary for every supervised thing in the stack: the
// shard supervisor (a crashed worker), the failover driver (a silent
// leader), the client retry loop and the background loops. Both
// supervisors protect the same invariant the same way — replay the log,
// never migrate a commitment — so they share this machinery instead of
// each carrying a copy.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace slacksched {

/// Health of a watched signal (a shard worker, a leader node).
enum class Health : std::uint8_t {
  kHealthy,     ///< signal fresh
  kDegraded,    ///< silent past the stall threshold
  kDown,        ///< silent past the down threshold, dead, or given up on
  kRecovering,  ///< restart in progress (replaying the commit log)
};

[[nodiscard]] std::string to_string(Health health);

/// A uniform draw in [0, 1) fixed by (seed, stream, draw): the one jitter
/// mixing every backoff and periodic sleep uses. Equal inputs replay equal
/// draws; different seeds or streams decorrelate.
[[nodiscard]] double jitter_unit(std::uint64_t seed, std::uint64_t stream,
                                 std::uint64_t draw);

/// Capped exponential backoff with deterministic jitter.
struct Backoff {
  std::chrono::milliseconds initial{10};
  double factor = 2.0;
  std::chrono::milliseconds max{1000};
  std::uint64_t seed = 0x5eed5eed5eed5eedULL;

  /// Delay before attempt `attempt` (1-based) on jitter stream `stream`:
  /// min(initial * factor^(attempt-1), max) scaled by a draw in
  /// [0.5, 1.0], and at least 1 ms.
  [[nodiscard]] std::chrono::milliseconds delay(int attempt,
                                                std::uint64_t stream = 0) const;
};

/// How a silence is judged.
struct HealthPolicy {
  std::chrono::milliseconds poll_interval{10};
  /// Silence this long marks the signal Degraded.
  std::chrono::milliseconds stall_threshold{500};
  /// Silence this long marks it Down.
  std::chrono::milliseconds down_threshold{2000};

  /// Healthy below stall_threshold, Degraded below down_threshold, else
  /// Down.
  [[nodiscard]] Health classify(
      std::chrono::steady_clock::duration silence) const;

  /// Human-readable problems, empty when valid.
  [[nodiscard]] std::vector<std::string> validate() const;
};

/// One background loop: sleep, tick, repeat. start() is called once;
/// stop() is idempotent, safe without start(), and wakes a sleeping
/// thread at once. A tick returning false ends the loop; a tick must not
/// throw (an escaping exception ends the program, as from any thread).
class PeriodicThread {
 public:
  /// The sleep before cycle `cycle` (0-based).
  using Period = std::function<std::chrono::milliseconds(std::uint64_t)>;
  using Tick = std::function<bool()>;

  PeriodicThread() = default;
  ~PeriodicThread() { stop(); }

  PeriodicThread(const PeriodicThread&) = delete;
  PeriodicThread& operator=(const PeriodicThread&) = delete;

  void start(Period period, Tick tick);
  void start(std::chrono::milliseconds period, Tick tick) {
    start([period](std::uint64_t) { return period; }, std::move(tick));
  }

  void stop();

 private:
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stopping_ = false;
  std::thread thread_;
};

}  // namespace slacksched
