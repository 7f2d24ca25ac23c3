// Cross-module integration tests: Theorem 2's guarantee checked against
// the exact offline optimum on small random instances, algorithm-vs-
// algorithm orderings on realistic workloads, and end-to-end pipelines
// (generate -> serialize -> run -> validate -> compare).
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "adversary/lower_bound_game.hpp"
#include "baselines/edf_preemptive.hpp"
#include "baselines/greedy.hpp"
#include "common/thread_pool.hpp"
#include "core/classify_select.hpp"
#include "core/threshold.hpp"
#include "models/delta_commit.hpp"
#include "offline/exact.hpp"
#include "offline/upper_bound.hpp"
#include "sched/engine.hpp"
#include "sched/validator.hpp"
#include "workload/generators.hpp"
#include "workload/trace_io.hpp"

namespace slacksched {
namespace {

/// Theorem 2 as an empirical property: on every small random instance the
/// ratio OPT / Threshold stays within the proven bound.
class Theorem2Sweep
    : public ::testing::TestWithParam<std::tuple<int, double, std::uint64_t>> {
};

TEST_P(Theorem2Sweep, ThresholdNeverExceedsItsBoundAgainstExactOpt) {
  const auto [m, eps, seed] = GetParam();
  WorkloadConfig config;
  config.n = 12;
  config.eps = eps;
  config.arrival_rate = 1.0 * m;
  config.size_min = 1.0;
  config.size_max = 8.0;
  config.slack = SlackModel::kTight;  // hardest case
  config.seed = seed;
  const Instance inst = generate_workload(config);

  ThresholdScheduler alg(eps, m);
  const RunResult run = run_online(alg, inst);
  ASSERT_TRUE(run.clean());
  const ExactResult opt = exact_optimal_load(inst, m);

  ASSERT_GT(run.metrics.accepted_volume, 0.0);
  const double ratio = opt.value / run.metrics.accepted_volume;
  const double bound = alg.solution().theorem2_bound();
  EXPECT_LE(ratio, bound + 1e-6)
      << "m=" << m << " eps=" << eps << " seed=" << seed
      << " opt=" << opt.value << " alg=" << run.metrics.accepted_volume;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Theorem2Sweep,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(0.05, 0.25, 0.8),
                       ::testing::Values(11, 22, 33, 44)));

TEST(Integration, AdversaryInstanceReplaysThroughEngine) {
  // The adversary's interactive game and the batch engine agree: replaying
  // the recorded instance through the engine reproduces the decisions.
  const double eps = 0.15;
  const int m = 3;
  AdversaryConfig config;
  config.eps = eps;
  config.m = m;
  config.beta = 1e-4;
  LowerBoundGame game(config);
  ThresholdScheduler alg(eps, m);
  const GameResult live = game.play(alg);

  const RunResult replay = run_online(alg, live.instance);
  ASSERT_TRUE(replay.clean());
  EXPECT_NEAR(replay.metrics.accepted_volume, live.alg_volume, 1e-9);
}

TEST(Integration, TraceSerializationPreservesAlgorithmBehaviour) {
  WorkloadConfig config;
  config.n = 250;
  config.eps = 0.1;
  config.seed = 1212;
  const Instance original = generate_workload(config);

  std::ostringstream buffer;
  write_trace(buffer, original);
  std::istringstream in(buffer.str());
  const Instance loaded = read_trace(in);

  ThresholdScheduler alg(0.1, 2);
  const double volume_original =
      run_online(alg, original).metrics.accepted_volume;
  const double volume_loaded = run_online(alg, loaded).metrics.accepted_volume;
  EXPECT_DOUBLE_EQ(volume_original, volume_loaded);
}

TEST(Integration, PreemptionDominatesOnTightWorkloads) {
  // The DasGupta-Palis machine model (preemption, no migration) should
  // accept at least as much volume as non-preemptive greedy on workloads
  // where commitment hurts.
  WorkloadConfig config = scenario("overload", 0.05, 404);
  config.n = 600;
  const Instance inst = generate_workload(config);

  GreedyScheduler greedy(2);
  const double greedy_volume =
      run_online(greedy, inst).metrics.accepted_volume;
  const double edf_volume =
      run_edf_preemptive(inst, 2).metrics.accepted_volume;
  EXPECT_GE(edf_volume, 0.9 * greedy_volume);
}

TEST(Integration, DelayedCommitmentBeatsImmediateOnBursts) {
  // Bursts of simultaneous jobs: waiting in a queue salvages jobs an
  // immediate-commitment greedy must turn away.
  WorkloadConfig config;
  config.n = 500;
  config.eps = 1.0;
  config.arrival = ArrivalModel::kBursty;
  config.burst_every = 20.0;
  config.burst_size = 30;
  config.arrival_rate = 0.5;
  config.size_min = 1.0;
  config.size_max = 4.0;
  config.slack = SlackModel::kUniformFactor;
  config.slack_hi = 1.0;
  config.seed = 31337;
  const Instance inst = generate_workload(config);

  GreedyScheduler greedy(2);
  const double greedy_volume =
      run_online(greedy, inst).metrics.accepted_volume;
  DeltaCommitScheduler queue(
      {2, 0.0, /*commit_on_admission=*/true, QueuePolicy::kEdf, {}});
  const double queue_volume = run_online(queue, inst).metrics.accepted_volume;
  EXPECT_GE(queue_volume, greedy_volume * 0.95);
}

TEST(Integration, EveryOnlineAlgorithmStaysBelowFractionalUpperBound) {
  WorkloadConfig config;
  config.n = 300;
  config.eps = 0.1;
  config.arrival_rate = 4.0;
  config.seed = 777;
  const Instance inst = generate_workload(config);
  const double ub = preemptive_fractional_upper_bound(inst, 2);

  ThresholdScheduler threshold(0.1, 2);
  GreedyScheduler greedy(2);
  DeltaCommitScheduler queue(
      {2, 0.0, /*commit_on_admission=*/true, QueuePolicy::kEdf, {}});
  EXPECT_LE(run_online(threshold, inst).metrics.accepted_volume, ub + 1e-6);
  EXPECT_LE(run_online(greedy, inst).metrics.accepted_volume, ub + 1e-6);
  EXPECT_LE(run_online(queue, inst).metrics.accepted_volume, ub + 1e-6);
  EXPECT_LE(run_edf_preemptive(inst, 2).metrics.accepted_volume, ub + 1e-6);
}

TEST(Integration, ParallelSweepMatchesSequentialSweep) {
  // The benches' parallel harness produces bit-identical results to a
  // sequential loop (determinism contract of the thread pool + RNG fork).
  const std::size_t cells = 24;
  auto simulate = [](std::size_t i) {
    WorkloadConfig config;
    config.n = 150;
    config.eps = 0.05 + 0.03 * static_cast<double>(i % 6);
    config.seed = 1000 + i;
    const Instance inst = generate_workload(config);
    ThresholdScheduler alg(config.eps, 2);
    return run_online(alg, inst).metrics.accepted_volume;
  };

  std::vector<double> sequential;
  sequential.reserve(cells);
  for (std::size_t i = 0; i < cells; ++i) sequential.push_back(simulate(i));

  ThreadPool pool(4);
  const std::vector<double> parallel =
      parallel_map<double>(pool, cells, simulate);
  EXPECT_EQ(parallel, sequential);
}

TEST(Integration, ClassifySelectStaysWithinVirtualBound) {
  // The single real machine can never accept more than its virtual machine
  // accepted, and the union over machines equals the virtual total.
  WorkloadConfig config;
  config.n = 300;
  config.eps = 0.05;
  config.arrival_rate = 5.0;
  config.seed = 2024;
  const Instance inst = generate_workload(config);

  const int m = classify_select_default_machines(0.05);
  ThresholdScheduler virtual_alg(0.05, m);
  const RunResult virtual_run = run_online(virtual_alg, inst);

  double union_volume = 0.0;
  for (int seed = 0; seed < 50; ++seed) {
    ClassifySelectConfig cs;
    cs.eps = 0.05;
    cs.seed = static_cast<std::uint64_t>(seed);
    ClassifySelectScheduler alg(cs);
    const double v = run_online(alg, inst).metrics.accepted_volume;
    EXPECT_LE(v, virtual_run.metrics.accepted_volume + 1e-9);
    union_volume = std::max(union_volume, v);
  }
  EXPECT_GT(union_volume, 0.0);
}

}  // namespace
}  // namespace slacksched
