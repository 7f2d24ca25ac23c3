#include "service/metrics_publisher.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <utility>

#include "common/expects.hpp"

namespace slacksched {

namespace {

constexpr double kJitter = 0.1;

}  // namespace

std::chrono::milliseconds publish_sleep(const PublisherConfig& config,
                                        std::uint64_t cycle) {
  const double u =
      jitter_unit(std::hash<std::string>{}(config.path), 0, cycle);
  return std::chrono::milliseconds(static_cast<std::int64_t>(
      static_cast<double>(config.period.count()) *
      (1.0 - kJitter + 2.0 * kJitter * u)));
}

MetricsPublisher::MetricsPublisher(PublisherConfig config, Collector collector)
    : config_(std::move(config)), collector_(std::move(collector)) {
  SLACKSCHED_EXPECTS(!config_.path.empty());
  SLACKSCHED_EXPECTS(config_.period.count() >= 1);
  SLACKSCHED_EXPECTS(collector_ != nullptr);
}

MetricsPublisher::~MetricsPublisher() { stop(); }

void MetricsPublisher::start() {
  thread_.start(
      [this](std::uint64_t cycle) { return publish_sleep(config_, cycle); },
      [this] {
        (void)publish_now();
        return true;
      });
}

void MetricsPublisher::stop() {
  {
    std::lock_guard lock(mutex_);
    if (stopped_) return;
    stopped_ = true;
  }
  thread_.stop();
  // The final page: written after the thread is gone (and, in the
  // gateway, after the shards have quiesced), so the file on disk equals
  // the final counter values exactly.
  (void)publish_now();
}

bool MetricsPublisher::publish_now() {
  const std::string page = collector_();
  const std::string tmp = config_.path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::lock_guard lock(mutex_);
      last_error_ = "open failed: " + tmp;
      return false;
    }
    out << page;
    out.flush();
    if (!out) {
      std::lock_guard lock(mutex_);
      last_error_ = "write failed: " + tmp;
      return false;
    }
  }
  // POSIX rename over an existing file is atomic: a concurrent scraper
  // sees either the previous complete page or this one, never a mix.
  if (std::rename(tmp.c_str(), config_.path.c_str()) != 0) {
    std::lock_guard lock(mutex_);
    last_error_ = "rename failed: " + std::string(std::strerror(errno));
    return false;
  }
  publishes_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::string MetricsPublisher::last_error() const {
  std::lock_guard lock(mutex_);
  return last_error_;
}

}  // namespace slacksched
