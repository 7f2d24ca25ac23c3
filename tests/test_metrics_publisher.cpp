// Tests for the background metrics publisher: the atomic
// write-temp-then-rename contract, the final publish on stop, periodic
// background publication, error reporting, and the gateway integration
// (the textfile on disk after finish() equals the final counters).
#include "service/metrics_publisher.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "baselines/greedy.hpp"
#include "service/gateway.hpp"
#include "service/metrics_exporter.hpp"

namespace slacksched {
namespace {

std::string textfile_path(const std::string& name) {
  const std::string path =
      ::testing::TempDir() + "slacksched_metrics_" + name + ".prom";
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
  return path;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

bool exists(const std::string& path) {
  return std::ifstream(path).good();
}

TEST(MetricsPublisher, PublishNowReplacesAtomicallyAndLeavesNoTemp) {
  const std::string path = textfile_path("replace");
  std::atomic<int> version{1};
  MetricsPublisher publisher(
      PublisherConfig{path, std::chrono::milliseconds(60000)},
      [&version] { return "page v" + std::to_string(version.load()) + "\n"; });
  ASSERT_TRUE(publisher.publish_now());
  EXPECT_EQ(slurp(path), "page v1\n");
  version.store(2);
  ASSERT_TRUE(publisher.publish_now());
  EXPECT_EQ(slurp(path), "page v2\n");
  EXPECT_FALSE(exists(path + ".tmp"));  // staging file was renamed away
  EXPECT_GE(publisher.publishes(), 2u);
  EXPECT_TRUE(publisher.last_error().empty());
}

TEST(MetricsPublisher, StopPublishesTheFinalPageEvenBeforeThePeriod) {
  const std::string path = textfile_path("final");
  std::atomic<int> calls{0};
  MetricsPublisher publisher(
      // A period far longer than the test: only stop() can publish.
      PublisherConfig{path, std::chrono::milliseconds(60000)},
      [&calls] {
        calls.fetch_add(1);
        return std::string("final page\n");
      });
  publisher.start();
  publisher.stop();
  EXPECT_EQ(slurp(path), "final page\n");
  EXPECT_GE(calls.load(), 1);
  EXPECT_GE(publisher.publishes(), 1u);
  // stop() is idempotent.
  publisher.stop();
}

TEST(MetricsPublisher, PublishesPeriodicallyInTheBackground) {
  const std::string path = textfile_path("periodic");
  MetricsPublisher publisher(
      PublisherConfig{path, std::chrono::milliseconds(5)},
      [] { return std::string("tick\n"); });
  publisher.start();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (publisher.publishes() < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  publisher.stop();
  EXPECT_GE(publisher.publishes(), 3u);
  EXPECT_EQ(slurp(path), "tick\n");
}

TEST(MetricsPublisher, DistinctPathsDrawDistinctSleeps) {
  // Co-started gateways each publish their own file; seeding the jitter
  // from the path keeps their sleeps from marching in lockstep.
  const PublisherConfig a{"gateway-a.prom", std::chrono::milliseconds(60000)};
  const PublisherConfig b{"gateway-b.prom", std::chrono::milliseconds(60000)};
  EXPECT_NE(publish_sleep(a, 0), publish_sleep(b, 0));
  for (std::uint64_t cycle = 0; cycle < 100; ++cycle) {
    const auto sleep = publish_sleep(a, cycle);
    EXPECT_EQ(sleep, publish_sleep(a, cycle));  // pure: replays exactly
    EXPECT_GE(sleep.count(), 54000) << cycle;   // within ±10% of the period
    EXPECT_LT(sleep.count(), 66000) << cycle;
  }
}

TEST(MetricsPublisher, ReportsWriteFailuresInLastError) {
  MetricsPublisher publisher(
      PublisherConfig{::testing::TempDir() + "no-such-dir/metrics.prom",
                      std::chrono::milliseconds(60000)},
      [] { return std::string("page\n"); });
  EXPECT_FALSE(publisher.publish_now());
  EXPECT_FALSE(publisher.last_error().empty());
  EXPECT_EQ(publisher.publishes(), 0u);
}

TEST(MetricsPublisher, GatewayTextfileEqualsFinalCountersAfterFinish) {
  const std::string path = textfile_path("gateway");
  GatewayConfig config;
  config.shards = 2;
  config.queue_capacity = 1024;
  config.enable_tracing = true;
  config.metrics_textfile = path;
  config.metrics_period = std::chrono::milliseconds(10);
  auto gateway = std::make_unique<AdmissionGateway>(
      config, [](int) { return std::make_unique<GreedyScheduler>(2); });
  ASSERT_NE(gateway->metrics_publisher(), nullptr);
  std::vector<Job> jobs;
  for (JobId id = 0; id < 300; ++id) {
    Job j;
    j.id = id;
    j.release = 0.0;
    j.proc = 1.0;
    j.deadline = 10.0;
    jobs.push_back(j);
  }
  const BatchSubmitResult batch = gateway->submit_batch(jobs);
  ASSERT_EQ(batch.enqueued, jobs.size());
  const GatewayResult result = gateway->finish();
  const std::uint64_t publishes = gateway->metrics_publisher()->publishes();
  EXPECT_GE(publishes, 1u);  // at least the final page from finish()

  // finish() stops the publisher after the shards quiesce, so the file on
  // disk reports exactly the final counters — scrape-parseable truth.
  const std::string page = slurp(path);
  EXPECT_NE(page.find("slacksched_submitted_total " +
                      std::to_string(result.merged.submitted) + "\n"),
            std::string::npos)
      << page;
  EXPECT_NE(page.find("slacksched_admit_latency_seconds_count " +
                      std::to_string(result.merged.submitted) + "\n"),
            std::string::npos);
  // Destroying the gateway must not publish again (already stopped).
  gateway.reset();
  EXPECT_EQ(slurp(path), page);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace slacksched
