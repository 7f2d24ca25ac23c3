// Background metrics publication following the node-exporter
// textfile-collector convention: a thread periodically collects an
// exposition page (any std::string producer — in the gateway it is
// render_prometheus over the live registry), writes it to `<path>.tmp`,
// and atomically renames it over `<path>`. Scrapers therefore always see
// a complete page, never a torn half-write, and a crashed publisher
// leaves the last good page in place.
//
// Each sleep is the period jittered ±10% by a draw seeded from a hash of
// the path (the shared jitter in common/health.hpp), so a fleet of
// gateways started together, each writing its own file, does not
// thundering-herd a shared filesystem. stop() performs one final publish
// after the caller has quiesced traffic, so the file on disk ends exactly
// equal to the final counters.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>

#include "common/health.hpp"

namespace slacksched {

/// Publisher deployment knobs.
struct PublisherConfig {
  /// Destination textfile ("<path>.tmp" is used as the staging file).
  std::string path;
  /// Base publish period; each sleep is jittered ±10% around this.
  std::chrono::milliseconds period{1000};
};

/// The sleep before publish cycle `cycle` (0-based): drawn uniformly from
/// [0.9, 1.1) × period by a stream seeded from a hash of config.path.
/// Pure: equal configs draw equal sleeps.
[[nodiscard]] std::chrono::milliseconds publish_sleep(
    const PublisherConfig& config, std::uint64_t cycle);

/// Periodic collect → render → atomic-replace loop.
class MetricsPublisher {
 public:
  /// Produces one complete exposition page. Called from the publisher
  /// thread (and from publish_now()'s caller); must be safe to invoke
  /// concurrently with traffic — the gateway's collector only does
  /// lock-free snapshot reads.
  using Collector = std::function<std::string()>;

  MetricsPublisher(PublisherConfig config, Collector collector);

  /// Stops (with a final publish) if the owner forgot to.
  ~MetricsPublisher();

  MetricsPublisher(const MetricsPublisher&) = delete;
  MetricsPublisher& operator=(const MetricsPublisher&) = delete;

  /// Spawns the publisher thread. Must be called at most once.
  void start();

  /// Stops the thread and publishes one final page so the file equals the
  /// collector's last answer. Idempotent; safe without start().
  void stop();

  /// One synchronous collect + atomic replace. Returns false (with the
  /// reason in last_error()) when the write or rename failed.
  bool publish_now();

  /// Completed atomic replacements (monotone).
  [[nodiscard]] std::uint64_t publishes() const {
    return publishes_.load(std::memory_order_relaxed);
  }

  /// Description of the most recent publish failure (empty when none).
  [[nodiscard]] std::string last_error() const;

  [[nodiscard]] const PublisherConfig& config() const { return config_; }

 private:
  PublisherConfig config_;
  Collector collector_;
  std::atomic<std::uint64_t> publishes_{0};
  bool stopped_ = false;
  mutable std::mutex mutex_;  ///< guards last_error_ and stopped_
  std::string last_error_;
  PeriodicThread thread_;
};

}  // namespace slacksched
