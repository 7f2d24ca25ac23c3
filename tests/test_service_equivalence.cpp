// Sharded-vs-single equivalence: a 1-shard gateway with round-robin
// routing must be byte-identical — decisions, metrics, committed schedule
// — to run_online on the same instance, for every immediate-commitment
// algorithm. This pins the gateway to the engine semantics the paper's
// guarantees are proved against: sharding may partition the stream, but it
// must never change what a shard decides.
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

/// Replays `instance` through a 1-shard round-robin gateway.
GatewayResult run_single_shard(const ShardSchedulerFactory& factory,
                               const Instance& instance) {
  GatewayConfig config;
  config.shards = 1;
  config.routing = RoutingPolicy::kRoundRobin;
  // Capacity >= n: this test is about decisions, not shedding.
  config.queue_capacity = std::bit_ceil(instance.size());
  AdmissionGateway gateway(config, factory);
  EXPECT_EQ(gateway.submit_batch(instance.jobs()).enqueued, instance.size());
  return gateway.finish();
}

void expect_identical(const RunResult& engine, const GatewayResult& gateway) {
  ASSERT_EQ(gateway.shards.size(), 1u);
  const RunResult& shard = gateway.shards[0];

  // Decisions: same jobs, same verdicts, same machines, same start times.
  ASSERT_EQ(shard.decisions.size(), engine.decisions.size());
  for (std::size_t i = 0; i < engine.decisions.size(); ++i) {
    EXPECT_EQ(shard.decisions[i].job, engine.decisions[i].job);
    EXPECT_EQ(shard.decisions[i].decision, engine.decisions[i].decision);
  }

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

  // Committed schedules agree placement for placement.
  EXPECT_EQ(shard.schedule.total_volume(), engine.schedule.total_volume());
  EXPECT_EQ(shard.schedule.job_count(), engine.schedule.job_count());
  EXPECT_EQ(shard.schedule.makespan(), engine.schedule.makespan());

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
  const GatewayResult gateway = run_single_shard(
      [](int) { return std::make_unique<ThresholdScheduler>(0.1, 4); },
      instance);
  expect_identical(engine, gateway);
}

TEST(ServiceEquivalence, GreedyMatchesEngine) {
  const Instance instance = test_instance(2000, 22);
  GreedyScheduler reference(3);
  const RunResult engine = run_online(reference, instance);
  ASSERT_TRUE(engine.clean());
  const GatewayResult gateway = run_single_shard(
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
  const GatewayResult gateway = run_single_shard(
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
    GatewayConfig config;
    config.shards = 4;
    config.routing = RoutingPolicy::kHash;
    config.queue_capacity = std::bit_ceil(instance.size());
    AdmissionGateway gateway(
        config, [](int) { return std::make_unique<GreedyScheduler>(2); });
    EXPECT_EQ(gateway.submit_batch(instance.jobs()).enqueued,
              instance.size());
    return gateway.finish();
  };
  const GatewayResult a = run_once();
  const GatewayResult b = run_once();
  ASSERT_EQ(a.shards.size(), b.shards.size());
  for (std::size_t s = 0; s < a.shards.size(); ++s) {
    ASSERT_EQ(a.shards[s].decisions.size(), b.shards[s].decisions.size());
    for (std::size_t i = 0; i < a.shards[s].decisions.size(); ++i) {
      EXPECT_EQ(a.shards[s].decisions[i].job, b.shards[s].decisions[i].job);
      EXPECT_EQ(a.shards[s].decisions[i].decision,
                b.shards[s].decisions[i].decision);
    }
    EXPECT_EQ(a.shards[s].metrics.accepted_volume,
              b.shards[s].metrics.accepted_volume);
  }
  EXPECT_EQ(a.merged.accepted_volume, b.merged.accepted_volume);
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
  AdmissionGateway gateway(
      config, [](int) { return std::make_unique<GreedyScheduler>(2); });
  EXPECT_EQ(gateway.submit_batch(instance.jobs()).enqueued, instance.size());
  const GatewayResult result = gateway.finish();
  for (std::size_t s = 0; s < 3; ++s) {
    const auto& decisions = result.shards[s].decisions;
    ASSERT_FALSE(decisions.empty());
    for (std::size_t i = 0; i < decisions.size(); ++i) {
      EXPECT_EQ(decisions[i].job, instance[s + 3 * i]);
    }
  }
}

TEST(ServiceEquivalence, WalBackedShardMatchesEngineByteForByte) {
  // Durability must be invisible to the algorithm: a 1-shard gateway with
  // the commit log enabled (fsync=every-commit, the strictest policy)
  // renders the exact engine decision stream, and the log it leaves behind
  // replays to the exact committed schedule.
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
  config.wal_fsync = FsyncPolicy::kEveryCommit;
  AdmissionGateway gateway(config, [](int) {
    return std::make_unique<ThresholdScheduler>(0.1, 4);
  });
  EXPECT_EQ(gateway.submit_batch(instance.jobs()).enqueued, instance.size());
  const GatewayResult result = gateway.finish();
  expect_identical(engine, result);

  const RecoveryResult replayed =
      recover_commit_log(dir + "/shard-0.wal", 4);
  ASSERT_TRUE(replayed.ok) << replayed.error;
  EXPECT_TRUE(replayed.clean());
  EXPECT_EQ(replayed.records_replayed, engine.metrics.accepted);
  EXPECT_EQ(replayed.schedule.total_volume(), engine.schedule.total_volume());
  EXPECT_EQ(replayed.schedule.makespan(), engine.schedule.makespan());
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
    GatewayResult result = gateway.finish();
    std::filesystem::remove_all(dir);
    return result;
  };

  const GatewayResult plain = run_once(false);
  const GatewayResult bounced = run_once(true);
  ASSERT_EQ(plain.shards.size(), bounced.shards.size());
  for (std::size_t s = 0; s < plain.shards.size(); ++s) {
    ASSERT_EQ(plain.shards[s].decisions.size(),
              bounced.shards[s].decisions.size())
        << "shard " << s << " received a different job subset";
    for (std::size_t i = 0; i < plain.shards[s].decisions.size(); ++i) {
      EXPECT_EQ(plain.shards[s].decisions[i].job,
                bounced.shards[s].decisions[i].job);
      EXPECT_EQ(plain.shards[s].decisions[i].decision,
                bounced.shards[s].decisions[i].decision);
    }
  }
  EXPECT_EQ(plain.merged.accepted_volume, bounced.merged.accepted_volume);
  EXPECT_EQ(bounced.metrics.total.failovers, 0u);  // nothing was rerouted
}

}  // namespace
}  // namespace slacksched
