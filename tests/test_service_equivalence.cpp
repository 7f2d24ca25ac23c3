// Sharded-vs-single equivalence: a 1-shard gateway with round-robin
// routing must be byte-identical — decisions, metrics, committed state —
// to run_online on the same instance, for every immediate-commitment
// algorithm. This pins the gateway to the engine semantics the paper's
// guarantees are proved against: sharding may partition the stream, but it
// must never change what a shard decides. Decisions are read where
// production reads them (GatewayConfig::on_decision); a shard's busy-until
// marks must be the frontiers of the engine's schedule.
#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/greedy.hpp"
#include "baselines/random_admission.hpp"
#include "core/threshold.hpp"
#include "sched/engine.hpp"
#include "service/gateway.hpp"
#include "service/recovery.hpp"
#include "support/gateway_capture.hpp"
#include "support/wal_schedule.hpp"
#include "workload/generators.hpp"

namespace slacksched {
namespace {

Instance test_instance(std::size_t n, std::uint64_t seed) {
  WorkloadConfig config;
  config.n = n;
  config.eps = 0.1;
  config.arrival_rate = 2.0;
  config.seed = seed;
  return generate_workload(config);
}

/// Decision logs must agree entry for entry.
void expect_same_log(const std::vector<DecisionRecord>& actual,
                     const std::vector<DecisionRecord>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].job, expected[i].job) << "decision " << i;
    EXPECT_EQ(actual[i].decision, expected[i].decision) << "decision " << i;
  }
}

/// A finished gateway run with the decisions its shards notified.
struct GatewayRun {
  GatewayResult result;
  ShardDecisionLogs decisions;
};

/// Replays `instance` through a 1-shard round-robin gateway.
GatewayRun run_single_shard(const ShardSchedulerFactory& factory,
                            const Instance& instance,
                            std::size_t batch_size = 256) {
  GatewayRun run;
  GatewayConfig config;
  config.shards = 1;
  config.routing = RoutingPolicy::kRoundRobin;
  config.batch_size = batch_size;
  // Capacity >= n: this test is about decisions, not shedding.
  config.queue_capacity = std::bit_ceil(instance.size());
  capture_decisions(config, run.decisions);
  AdmissionGateway gateway(config, factory);
  EXPECT_EQ(gateway.submit_batch(instance.jobs()).enqueued, instance.size());
  run.result = gateway.finish();
  return run;
}

void expect_identical(const RunResult& engine, const GatewayRun& run) {
  const GatewayResult& gateway = run.result;
  ASSERT_EQ(gateway.shards.size(), 1u);
  const ShardResult& shard = gateway.shards[0];

  // Decisions: same jobs, same verdicts, same machines, same start times.
  expect_same_log(run.decisions[0], engine.decisions);

  // Metrics: byte-identical counters and objective (exact double equality
  // on purpose — both paths must execute the same arithmetic in the same
  // order).
  EXPECT_EQ(shard.metrics.submitted, engine.metrics.submitted);
  EXPECT_EQ(shard.metrics.accepted, engine.metrics.accepted);
  EXPECT_EQ(shard.metrics.rejected, engine.metrics.rejected);
  EXPECT_EQ(shard.metrics.accepted_volume, engine.metrics.accepted_volume);
  EXPECT_EQ(shard.metrics.rejected_volume, engine.metrics.rejected_volume);
  EXPECT_EQ(shard.metrics.makespan, engine.metrics.makespan);
  EXPECT_EQ(gateway.merged.accepted_volume, engine.metrics.accepted_volume);

  // Committed state: each of the shard's marks is the frontier of that
  // machine in the engine's schedule.
  expect_marks_match(shard.busy_until, engine.schedule);

  // Cleanliness matches.
  EXPECT_EQ(shard.commitment_violation, engine.commitment_violation);

  // The live registry saw exactly the engine's totals.
  EXPECT_EQ(gateway.metrics.total.submitted, engine.metrics.submitted);
  EXPECT_EQ(gateway.metrics.total.accepted, engine.metrics.accepted);
  EXPECT_EQ(gateway.metrics.total.accepted_volume,
            engine.metrics.accepted_volume);
  EXPECT_EQ(gateway.metrics.total.backpressure_rejected, 0u);
}

TEST(ServiceEquivalence, ThresholdMatchesEngine) {
  const Instance instance = test_instance(2000, 21);
  ThresholdScheduler reference(0.1, 4);
  const RunResult engine = run_online(reference, instance);
  ASSERT_TRUE(engine.clean());
  const GatewayRun gateway = run_single_shard(
      [](int) { return std::make_unique<ThresholdScheduler>(0.1, 4); },
      instance);
  expect_identical(engine, gateway);
}

TEST(ServiceEquivalence, GreedyMatchesEngine) {
  const Instance instance = test_instance(2000, 22);
  GreedyScheduler reference(3);
  const RunResult engine = run_online(reference, instance);
  ASSERT_TRUE(engine.clean());
  const GatewayRun gateway = run_single_shard(
      [](int) { return std::make_unique<GreedyScheduler>(3); }, instance);
  expect_identical(engine, gateway);
}

TEST(ServiceEquivalence, RandomAdmissionMatchesEngine) {
  // reset() restores the seeded RNG, so the shard replays the exact coin
  // flips of the sequential run.
  const Instance instance = test_instance(2000, 23);
  RandomAdmissionScheduler reference(2, 0.5, 99);
  const RunResult engine = run_online(reference, instance);
  ASSERT_TRUE(engine.clean());
  const GatewayRun gateway = run_single_shard(
      [](int) {
        return std::make_unique<RandomAdmissionScheduler>(2, 0.5, 99);
      },
      instance);
  expect_identical(engine, gateway);
}

TEST(ServiceEquivalence, ShardedRunIsReproducible) {
  // Same instance, same config, single producer: two sharded runs render
  // identical per-shard decision sequences (the deterministic-router
  // contract).
  const Instance instance = test_instance(3000, 24);
  const auto run_once = [&instance] {
    GatewayRun run;
    GatewayConfig config;
    config.shards = 4;
    config.routing = RoutingPolicy::kHash;
    config.queue_capacity = std::bit_ceil(instance.size());
    capture_decisions(config, run.decisions);
    AdmissionGateway gateway(
        config, [](int) { return std::make_unique<GreedyScheduler>(2); });
    EXPECT_EQ(gateway.submit_batch(instance.jobs()).enqueued,
              instance.size());
    run.result = gateway.finish();
    return run;
  };
  const GatewayRun a = run_once();
  const GatewayRun b = run_once();
  ASSERT_EQ(a.result.shards.size(), b.result.shards.size());
  std::size_t decided = 0;
  for (std::size_t s = 0; s < a.result.shards.size(); ++s) {
    expect_same_log(b.decisions[s], a.decisions[s]);
    decided += a.decisions[s].size();
    EXPECT_EQ(a.result.shards[s].metrics.accepted_volume,
              b.result.shards[s].metrics.accepted_volume);
  }
  EXPECT_EQ(decided, instance.size());
  EXPECT_EQ(a.result.merged.accepted_volume, b.result.merged.accepted_volume);
}

TEST(ServiceEquivalence, RoundRobinPartitionCoversTheStream) {
  // With S shards and round-robin routing from a single batched producer,
  // shard s receives exactly the jobs at positions s, s+S, s+2S, ... —
  // the partition is a deterministic function of submission order.
  const Instance instance = test_instance(1000, 25);
  GatewayConfig config;
  config.shards = 3;
  config.routing = RoutingPolicy::kRoundRobin;
  config.queue_capacity = std::bit_ceil(instance.size());
  ShardDecisionLogs logs;
  capture_decisions(config, logs);
  AdmissionGateway gateway(
      config, [](int) { return std::make_unique<GreedyScheduler>(2); });
  EXPECT_EQ(gateway.submit_batch(instance.jobs()).enqueued, instance.size());
  (void)gateway.finish();
  for (std::size_t s = 0; s < 3; ++s) {
    const auto& decisions = logs[s];
    ASSERT_FALSE(decisions.empty());
    for (std::size_t i = 0; i < decisions.size(); ++i) {
      EXPECT_EQ(decisions[i].job, instance[s + 3 * i]);
    }
  }
}

TEST(ServiceEquivalence, WalBackedShardMatchesEngineByteForByte) {
  // Durability must be invisible to the algorithm: a 1-shard gateway with
  // the commit log enabled (fsync=batch, the strictest policy) renders the
  // exact engine decision stream, and the log it leaves behind holds the
  // exact committed schedule.
  const Instance instance = test_instance(2000, 26);
  ThresholdScheduler reference(0.1, 4);
  const RunResult engine = run_online(reference, instance);
  ASSERT_TRUE(engine.clean());

  const std::string dir = ::testing::TempDir() + "slacksched_equiv_wal";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  GatewayConfig config;
  config.shards = 1;
  config.routing = RoutingPolicy::kRoundRobin;
  config.queue_capacity = std::bit_ceil(instance.size());
  config.wal_dir = dir;
  config.wal_fsync = FsyncPolicy::kBatch;
  GatewayRun run;
  capture_decisions(config, run.decisions);
  AdmissionGateway gateway(config, [](int) {
    return std::make_unique<ThresholdScheduler>(0.1, 4);
  });
  EXPECT_EQ(gateway.submit_batch(instance.jobs()).enqueued, instance.size());
  run.result = gateway.finish();
  expect_identical(engine, run);

  // The log keeps every placement: read back, it is the engine's full
  // schedule placement for placement, and its replay rebuilds the marks.
  const RecoveryResult replayed =
      recover_commit_log(dir + "/shard-0.wal", 4);
  ASSERT_TRUE(replayed.ok) << replayed.error;
  EXPECT_TRUE(replayed.clean());
  EXPECT_EQ(replayed.records_replayed, engine.metrics.accepted);
  expect_marks_match(replayed.busy_until, engine.schedule);
  const std::vector<Placement> logged =
      schedule_from_wal(dir + "/shard-0.wal", 4).all_placements();
  const std::vector<Placement> committed = engine.schedule.all_placements();
  ASSERT_EQ(logged.size(), committed.size());
  for (std::size_t i = 0; i < committed.size(); ++i) {
    EXPECT_EQ(logged[i].job, committed[i].job) << "placement " << i;
    EXPECT_EQ(logged[i].machine, committed[i].machine) << "placement " << i;
    EXPECT_EQ(logged[i].start, committed[i].start) << "placement " << i;
    EXPECT_EQ(logged[i].duration, committed[i].duration) << "placement " << i;
  }
  std::filesystem::remove_all(dir);
}

TEST(ServiceEquivalence, HashRoutingIsIdenticalAcrossRunsAndProcessShapes) {
  // The router is a pure function of the job id: two freshly constructed
  // routers (simulating two separate processes) agree on every assignment,
  // and the assignment never depends on submission interleaving.
  const Instance instance = test_instance(3000, 27);
  ShardRouter first_run(RoutingPolicy::kHash, 4);
  ShardRouter second_run(RoutingPolicy::kHash, 4);
  std::vector<int> forward;
  forward.reserve(instance.size());
  for (const Job& job : instance.jobs()) forward.push_back(first_run.route(job));
  // Route in reverse order on the second "process": same per-job answer.
  for (std::size_t i = instance.size(); i-- > 0;) {
    EXPECT_EQ(second_run.route(instance[i]), forward[i]) << "job " << i;
  }
}

TEST(ServiceEquivalence, RoutingSurvivesAFailoverAndRecoveryRoundTrip) {
  // Take shard 1 down and bring it back (no jobs submitted in between);
  // then run the stream. Routing — and therefore every per-shard decision
  // sequence — must be identical to a run without the down/up cycle:
  // failover is a transient of the unavailable window, not a lasting
  // perturbation of the partition.
  const Instance instance = test_instance(2000, 28);
  const auto run_once = [&instance](bool bounce_shard) {
    GatewayRun run;
    const std::string dir = ::testing::TempDir() + "slacksched_equiv_bounce" +
                            (bounce_shard ? "_b" : "_a");
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    GatewayConfig config;
    config.shards = 2;
    config.routing = RoutingPolicy::kHash;
    config.queue_capacity = std::bit_ceil(instance.size());
    config.wal_dir = dir;
    config.supervisor.enabled = false;  // manual force_* only
    capture_decisions(config, run.decisions);
    AdmissionGateway gateway(
        config, [](int) { return std::make_unique<GreedyScheduler>(2); });
    if (bounce_shard) {
      gateway.supervisor().force_down(1);
      // Wait out the drain, then restart from the (empty) commit log.
      const auto give_up =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      bool recovered = false;
      while (!recovered && std::chrono::steady_clock::now() < give_up) {
        recovered = gateway.supervisor().force_recover(1);
        if (!recovered) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
      EXPECT_TRUE(recovered) << "shard 1 never recovered";
      EXPECT_EQ(gateway.shard_health(1), Health::kHealthy);
    }
    EXPECT_EQ(gateway.submit_batch(instance.jobs()).enqueued,
              instance.size());
    run.result = gateway.finish();
    std::filesystem::remove_all(dir);
    return run;
  };

  const GatewayRun plain = run_once(false);
  const GatewayRun bounced = run_once(true);
  ASSERT_EQ(plain.result.shards.size(), bounced.result.shards.size());
  std::size_t decided = 0;
  for (std::size_t s = 0; s < plain.result.shards.size(); ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    expect_same_log(bounced.decisions[s], plain.decisions[s]);
    decided += plain.decisions[s].size();
  }
  EXPECT_EQ(decided, instance.size());
  EXPECT_EQ(plain.result.merged.accepted_volume,
            bounced.result.merged.accepted_volume);
}

}  // namespace
}  // namespace slacksched
