// Golden-format tests for the Prometheus text-exposition renderer:
// literal expected text for the counter/gauge/health families, cumulative
// `le` bucket math for the admit-latency histogram, and an end-to-end
// check that a live gateway's rendered page matches its GatewayResult.
#include "service/metrics_exporter.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/greedy.hpp"
#include "common/csv.hpp"
#include "service/gateway.hpp"

namespace slacksched {
namespace {

/// A deterministic two-shard snapshot exercised by the golden tests.
MetricsSnapshot small_snapshot() {
  MetricsSnapshot snap;
  snap.shards.resize(2);
  snap.shards[0].enqueued = 10;
  snap.shards[0].submitted = 9;
  snap.shards[0].accepted = 7;
  snap.shards[0].rejected = 2;
  snap.shards[0].accepted_volume = 3.5;
  snap.shards[0].latency_sum_seconds = 0.25;
  snap.shards[0].queue_depth = 1;
  snap.shards[0].peak_queue_depth = 4;
  snap.shards[1].enqueued = 5;
  snap.shards[1].submitted = 5;
  snap.shards[1].accepted = 5;
  snap.shards[1].accepted_volume = 2.25;
  snap.shards[1].latency_sum_seconds = 0.5;
  snap.shards[1].peak_queue_depth = 6;
  snap.total.enqueued = 15;
  snap.total.submitted = 14;
  snap.total.accepted = 12;
  snap.total.rejected = 2;
  snap.total.accepted_volume = 5.75;
  snap.total.latency_sum_seconds = 0.75;
  snap.total.queue_depth = 1;
  snap.total.peak_queue_depth = 6;  // max across shards, not sum
  return snap;
}

TEST(MetricsExporter, CounterFamilyMatchesGoldenText) {
  const std::string page = render_prometheus(small_snapshot());
  const std::string golden =
      "# HELP slacksched_submitted_total Decisions rendered by the shard "
      "engines.\n"
      "# TYPE slacksched_submitted_total counter\n"
      "slacksched_submitted_total 14\n"
      "slacksched_submitted_total{shard=\"0\"} 9\n"
      "slacksched_submitted_total{shard=\"1\"} 5\n";
  EXPECT_NE(page.find(golden), std::string::npos) << page;
}

TEST(MetricsExporter, VolumeCountersUseRoundTripFloats) {
  const std::string page = render_prometheus(small_snapshot());
  const std::string golden =
      "# HELP slacksched_accepted_volume_total Total processing volume of "
      "admitted jobs (sum of p_j).\n"
      "# TYPE slacksched_accepted_volume_total counter\n"
      "slacksched_accepted_volume_total 5.75\n"
      "slacksched_accepted_volume_total{shard=\"0\"} 3.5\n"
      "slacksched_accepted_volume_total{shard=\"1\"} 2.25\n";
  EXPECT_NE(page.find(golden), std::string::npos) << page;
}

TEST(MetricsExporter, PeakQueueDepthAggregateIsTheMax) {
  const std::string page = render_prometheus(small_snapshot());
  EXPECT_NE(page.find("slacksched_queue_depth_peak 6\n"), std::string::npos);
  EXPECT_NE(page.find("slacksched_queue_depth_peak{shard=\"0\"} 4\n"),
            std::string::npos);
  EXPECT_NE(page.find("slacksched_queue_depth_peak{shard=\"1\"} 6\n"),
            std::string::npos);
}

TEST(MetricsExporter, WalSyncsCounterMatchesGoldenText) {
  // Jobs per durability wait is submitted_total / wal_syncs_total.
  MetricsSnapshot snap = small_snapshot();
  snap.shards[0].wal_syncs = 3;
  snap.shards[1].wal_syncs = 1;
  snap.total.wal_syncs = 4;
  const std::string page = render_prometheus(snap);
  const std::string golden =
      "# HELP slacksched_wal_syncs_total Commit-log syncs (fsync, then the "
      "follower ACK), one per group of batches decided before it "
      "publishes.\n"
      "# TYPE slacksched_wal_syncs_total counter\n"
      "slacksched_wal_syncs_total 4\n"
      "slacksched_wal_syncs_total{shard=\"0\"} 3\n"
      "slacksched_wal_syncs_total{shard=\"1\"} 1\n";
  EXPECT_NE(page.find(golden), std::string::npos) << page;
}

TEST(MetricsExporter, EmitsNoClassLabelAndNoCriticalityOutcome) {
  // A job has no criticality class: no family carries a `class` label,
  // and the retired "criticality" outcome has no row.
  MetricsSnapshot snap = small_snapshot();
  snap.admit_latency.add_to_bin(3, 2);
  ExporterOptions options;
  options.per_shard = true;
  const std::string page = render_prometheus(snap, options);
  EXPECT_EQ(page.find("class="), std::string::npos) << page;
  EXPECT_EQ(page.find("outcome=\"criticality\""), std::string::npos) << page;
  EXPECT_NE(page.find("slacksched_outcomes_total{outcome=\"retry_after\"}"),
            std::string::npos)
      << page;
}

TEST(MetricsExporter, HistogramBucketsAreCumulativeAndEndAtInf) {
  MetricsSnapshot snap = small_snapshot();
  snap.admit_latency.add_to_bin(0, 2);
  snap.admit_latency.add_to_bin(5, 3);
  snap.admit_latency.add_to_bin(kAdmitLatencyBins - 1, 1);
  snap.total.latency_sum_seconds = 0.125;
  const std::string page = render_prometheus(snap);

  // One bucket line per bin plus the +Inf line, `le` keyed by each bin's
  // upper edge in round-trip float format.
  const Histogram& h = snap.admit_latency;
  std::size_t cumulative = 0;
  for (std::size_t bin = 0; bin < h.bin_count(); ++bin) {
    cumulative += h.count_in_bin(bin);
    const std::string line = "slacksched_admit_latency_seconds_bucket{le=\"" +
                             CsvWriter::format(h.bin_range(bin).second) +
                             "\"} " + std::to_string(cumulative) + "\n";
    EXPECT_NE(page.find(line), std::string::npos) << "missing: " << line;
  }
  EXPECT_NE(
      page.find("slacksched_admit_latency_seconds_bucket{le=\"+Inf\"} 6\n"),
      std::string::npos);
  EXPECT_NE(page.find("slacksched_admit_latency_seconds_sum 0.125\n"),
            std::string::npos);
  EXPECT_NE(page.find("slacksched_admit_latency_seconds_count 6\n"),
            std::string::npos);
}

TEST(MetricsExporter, UnderflowJoinsFirstBucketOverflowOnlyInf) {
  MetricsSnapshot snap = small_snapshot();
  snap.admit_latency.add_to_bin(0, 1);
  snap.admit_latency.add(1e-9);  // below range: underflow
  snap.admit_latency.add(5.0);   // above range: overflow
  const std::string page = render_prometheus(snap);
  const Histogram& h = snap.admit_latency;
  // First bucket counts underflow + bin 0 (underflow is <= every edge).
  const std::string first = "slacksched_admit_latency_seconds_bucket{le=\"" +
                            CsvWriter::format(h.bin_range(0).second) +
                            "\"} 2\n";
  EXPECT_NE(page.find(first), std::string::npos) << page;
  // Overflow reaches only +Inf, which equals _count.
  EXPECT_NE(
      page.find("slacksched_admit_latency_seconds_bucket{le=\"+Inf\"} 3\n"),
      std::string::npos);
  EXPECT_NE(page.find("slacksched_admit_latency_seconds_count 3\n"),
            std::string::npos);
}

TEST(MetricsExporter, HealthSectionIsOneHotGoldenText) {
  ExporterInput input;
  input.snapshot = small_snapshot();
  input.health.push_back({0, Health::kHealthy, 0, false});
  input.health.push_back({1, Health::kDown, 3, true});
  const std::string page = render_prometheus(input);
  const std::string golden =
      "# HELP slacksched_shard_health Supervision state of each shard, "
      "one-hot over healthy/degraded/down/recovering.\n"
      "# TYPE slacksched_shard_health gauge\n"
      "slacksched_shard_health{shard=\"0\",state=\"healthy\"} 1\n"
      "slacksched_shard_health{shard=\"0\",state=\"degraded\"} 0\n"
      "slacksched_shard_health{shard=\"0\",state=\"down\"} 0\n"
      "slacksched_shard_health{shard=\"0\",state=\"recovering\"} 0\n"
      "slacksched_shard_health{shard=\"1\",state=\"healthy\"} 0\n"
      "slacksched_shard_health{shard=\"1\",state=\"degraded\"} 0\n"
      "slacksched_shard_health{shard=\"1\",state=\"down\"} 1\n"
      "slacksched_shard_health{shard=\"1\",state=\"recovering\"} 0\n";
  EXPECT_NE(page.find(golden), std::string::npos) << page;
  EXPECT_NE(page.find("slacksched_shard_restarts_total{shard=\"1\"} 3\n"),
            std::string::npos);
  EXPECT_NE(page.find("slacksched_shard_circuit_broken{shard=\"1\"} 1\n"),
            std::string::npos);
}

TEST(MetricsExporter, TraceDropCountersRenderAggregateAndPerShard) {
  ExporterInput input;
  input.snapshot = small_snapshot();
  input.trace_dropped = {4, 9};
  const std::string page = render_prometheus(input);
  EXPECT_NE(page.find("slacksched_trace_dropped_total 13\n"),
            std::string::npos);
  EXPECT_NE(page.find("slacksched_trace_dropped_total{shard=\"1\"} 9\n"),
            std::string::npos);
}

TEST(MetricsExporter, ServerConnectionCountersCloseThePageGoldenText) {
  ExporterInput input;
  input.snapshot = small_snapshot();
  input.trace_dropped = {4, 9};
  const std::string without = render_prometheus(input);
  EXPECT_EQ(without.find("connections_reaped"), std::string::npos);
  EXPECT_EQ(without.find("accept_errors"), std::string::npos);

  input.connections_reaped = 3;
  input.accept_errors = 7;
  const std::string page = render_prometheus(input);
  // The admission server's /metrics page: the gateway exposition, then
  // exactly these bytes.
  const std::string golden =
      "# HELP slacksched_connections_reaped_total Connections closed by "
      "the idle reaper.\n"
      "# TYPE slacksched_connections_reaped_total counter\n"
      "slacksched_connections_reaped_total 3\n"
      "# HELP slacksched_accept_errors_total accept4 failures (resource "
      "exhaustion triggers listener backoff).\n"
      "# TYPE slacksched_accept_errors_total counter\n"
      "slacksched_accept_errors_total 7\n";
  EXPECT_EQ(page, without + golden);
}

TEST(MetricsExporter, OptionsControlPrefixAndPerShardSamples) {
  ExporterOptions options;
  options.prefix = "acme";
  options.per_shard = false;
  const std::string page = render_prometheus(small_snapshot(), options);
  EXPECT_NE(page.find("acme_submitted_total 14\n"), std::string::npos);
  EXPECT_EQ(page.find("slacksched_"), std::string::npos);
  EXPECT_EQ(page.find("shard=\""), std::string::npos);
}

TEST(MetricsExporter, EverySampleBelongsToAHelpTypeFamily) {
  ExporterInput input;
  input.snapshot = small_snapshot();
  input.health.push_back({0, Health::kHealthy, 0, false});
  input.trace_dropped = {0, 0};
  input.connections_reaped = 0;
  input.accept_errors = 0;
  std::istringstream page(render_prometheus(input));
  std::string line;
  std::string declared;  // family announced by the last # TYPE line
  while (std::getline(page, line)) {
    ASSERT_FALSE(line.empty());
    if (line.rfind("# HELP ", 0) == 0) continue;
    if (line.rfind("# TYPE ", 0) == 0) {
      declared = line.substr(7, line.find(' ', 7) - 7);
      continue;
    }
    const std::string name = line.substr(0, line.find_first_of("{ "));
    // A sample's name is its family's, optionally with a histogram suffix.
    EXPECT_EQ(name.rfind(declared, 0), 0u) << line;
  }
}

TEST(MetricsExporter, LiveGatewayPageMatchesGatewayResult) {
  GatewayConfig config;
  config.shards = 2;
  config.queue_capacity = 1024;
  config.enable_tracing = true;
  config.trace_capacity = 1024;
  AdmissionGateway gateway(
      config, [](int) { return std::make_unique<GreedyScheduler>(2); });
  std::vector<Job> jobs;
  for (JobId id = 0; id < 200; ++id) {
    Job j;
    j.id = id;
    j.release = 0.0;
    j.proc = 1.0;
    j.deadline = 10.0;
    jobs.push_back(j);
  }
  const BatchSubmitResult batch = gateway.submit_batch(jobs);
  ASSERT_EQ(batch.enqueued, jobs.size());
  const GatewayResult result = gateway.finish();

  const std::string page = render_prometheus(gateway);
  EXPECT_NE(page.find("slacksched_submitted_total " +
                      std::to_string(result.merged.submitted) + "\n"),
            std::string::npos);
  EXPECT_NE(page.find("slacksched_accepted_total " +
                      std::to_string(result.merged.accepted) + "\n"),
            std::string::npos);
  // The +Inf bucket and _count both equal the number of decisions.
  EXPECT_NE(page.find("slacksched_admit_latency_seconds_bucket{le=\"+Inf\"} " +
                      std::to_string(result.merged.submitted) + "\n"),
            std::string::npos);
  EXPECT_NE(page.find("slacksched_admit_latency_seconds_count " +
                      std::to_string(result.merged.submitted) + "\n"),
            std::string::npos);
  // Health rows for both shards, tracing counters present.
  EXPECT_NE(page.find("slacksched_shard_health{shard=\"0\",state=\""),
            std::string::npos);
  EXPECT_NE(page.find("slacksched_shard_health{shard=\"1\",state=\""),
            std::string::npos);
  EXPECT_NE(page.find("slacksched_trace_dropped_total 0\n"),
            std::string::npos);

  // The trace accounts for every rendered decision exactly once.
  const std::vector<TraceEvent> trace = gateway.drain_trace();
  EXPECT_EQ(trace.size(), result.merged.submitted);
}

}  // namespace
}  // namespace slacksched
