// Boundary equivalences of the commitment-model matrix, randomized across
// ε × m × stream generators:
//
//  - δ = 0 collapses δ-commitment onto commit-on-arrival: the decision
//    stream must match GreedyScheduler(kBestFit) bit for bit (same job
//    order, same machine, same start, down to the double).
//  - commit_on_admission (τ = ∞) collapses it onto the event-driven
//    run_delayed_commit baseline: identical committed schedules and
//    accept/reject counts (that simulator records no per-job decisions,
//    so placements + metrics are the comparison surface).
//  - an all-unit SpeedProfile must leave Threshold and Greedy decision
//    streams bit-identical to the speed-less constructors (the uniform
//    code paths never divide by a speed).
//
// These pins are what make the matrix trustworthy: every model shares the
// same admission arithmetic where the models provably coincide.
#include <gtest/gtest.h>

#include <vector>

#include "baselines/greedy.hpp"
#include "core/threshold.hpp"
#include "models/delta_commit.hpp"
#include "models/speed_profile.hpp"
#include "sched/engine.hpp"
#include "sched/validator.hpp"
#include "workload/generators.hpp"

#include "delayed_commit_reference.hpp"

namespace slacksched {
namespace {

/// The randomized sweep grid: every combination must hold, not a sample.
struct SweepPoint {
  double eps;
  int machines;
  ArrivalModel arrival;
  std::uint64_t seed;
};

std::vector<SweepPoint> sweep_grid() {
  std::vector<SweepPoint> grid;
  std::uint64_t seed = 1;
  for (const double eps : {0.05, 0.25, 1.0}) {
    for (const int machines : {1, 3, 8}) {
      for (const ArrivalModel arrival :
           {ArrivalModel::kPoisson, ArrivalModel::kBursty,
            ArrivalModel::kAllAtOnce}) {
        grid.push_back({eps, machines, arrival, seed++});
      }
    }
  }
  return grid;
}

Instance make_stream(const SweepPoint& point, std::size_t n = 400) {
  WorkloadConfig config;
  config.n = n;
  config.eps = point.eps;
  config.arrival = point.arrival;
  config.arrival_rate = static_cast<double>(point.machines);
  config.seed = point.seed;
  return generate_workload(config);
}

std::string describe(const SweepPoint& point) {
  return "eps=" + std::to_string(point.eps) +
         " m=" + std::to_string(point.machines) +
         " arrival=" + to_string(point.arrival) +
         " seed=" + std::to_string(point.seed);
}

/// Bit-for-bit decision-stream comparison (no tolerance: the uniform and
/// δ=0 reductions share the exact arithmetic, so == is the contract).
void expect_identical_decisions(const RunResult& actual,
                                const RunResult& expected,
                                const std::string& context) {
  ASSERT_EQ(actual.decisions.size(), expected.decisions.size()) << context;
  for (std::size_t i = 0; i < actual.decisions.size(); ++i) {
    const DecisionRecord& a = actual.decisions[i];
    const DecisionRecord& e = expected.decisions[i];
    ASSERT_EQ(a.job.id, e.job.id) << context << " decision " << i;
    ASSERT_EQ(a.decision.accepted, e.decision.accepted)
        << context << " job " << a.job.id;
    if (a.decision.accepted) {
      ASSERT_EQ(a.decision.machine, e.decision.machine)
          << context << " job " << a.job.id;
      ASSERT_EQ(a.decision.start, e.decision.start)
          << context << " job " << a.job.id;
    }
  }
}

/// Placement-level schedule comparison (bit-for-bit starts).
void expect_identical_schedules(const Schedule& actual,
                                const Schedule& expected,
                                const std::string& context) {
  const auto a = actual.all_placements();
  const auto e = expected.all_placements();
  ASSERT_EQ(a.size(), e.size()) << context;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].job.id, e[i].job.id) << context << " placement " << i;
    ASSERT_EQ(a[i].machine, e[i].machine) << context << " job "
                                          << a[i].job.id;
    ASSERT_EQ(a[i].start, e[i].start) << context << " job " << a[i].job.id;
  }
}

TEST(ModelEquivalence, DeltaZeroMatchesCommitOnArrivalGreedy) {
  for (const SweepPoint& point : sweep_grid()) {
    const Instance inst = make_stream(point);
    const std::string context = describe(point);

    GreedyScheduler greedy(point.machines, GreedyPolicy::kBestFit);
    const RunResult arrival = run_online(greedy, inst);
    ASSERT_TRUE(arrival.clean()) << context;

    DeltaCommitScheduler delta(/*delta=*/0.0, point.machines);
    const RunResult deferred = run_online(delta, inst);
    ASSERT_TRUE(deferred.clean())
        << context << ": " << deferred.commitment_violation;

    expect_identical_decisions(deferred, arrival, context);
    expect_identical_schedules(deferred.schedule, arrival.schedule, context);
    ASSERT_EQ(deferred.metrics.accepted, arrival.metrics.accepted) << context;
    ASSERT_EQ(deferred.metrics.rejected, arrival.metrics.rejected) << context;
  }
}

TEST(ModelEquivalence, CommitOnAdmissionMatchesDelayedCommitBaseline) {
  for (const QueuePolicy policy :
       {QueuePolicy::kEdf, QueuePolicy::kLargestFirst,
        QueuePolicy::kLeastSlackFirst}) {
    for (const SweepPoint& point : sweep_grid()) {
      const Instance inst = make_stream(point);
      const std::string context =
          describe(point) + " queue=" + to_string(policy);

      const DelayedCommitResult baseline =
          run_delayed_commit(inst, point.machines, policy);

      DeltaCommitConfig config;
      config.machines = point.machines;
      config.commit_on_admission = true;
      config.queue = policy;
      DeltaCommitScheduler streaming(config);
      const RunResult result = run_online(streaming, inst);
      ASSERT_TRUE(result.clean())
          << context << ": " << result.commitment_violation;

      expect_identical_schedules(result.schedule, baseline.schedule, context);
      ASSERT_EQ(result.metrics.accepted, baseline.metrics.accepted)
          << context;
      ASSERT_EQ(result.metrics.rejected, baseline.metrics.rejected)
          << context;
      ASSERT_EQ(result.metrics.accepted_volume,
                baseline.metrics.accepted_volume)
          << context;
    }
  }
}

TEST(ModelEquivalence, UnitSpeedProfilePinsThresholdBitIdentical) {
  for (const SweepPoint& point : sweep_grid()) {
    const Instance inst = make_stream(point);
    const std::string context = describe(point);

    ThresholdConfig plain;
    plain.eps = point.eps;
    plain.machines = point.machines;
    ThresholdScheduler speedless(plain);
    const RunResult expected = run_online(speedless, inst);
    ASSERT_TRUE(expected.clean()) << context;

    ThresholdConfig unit = plain;
    unit.speeds = SpeedProfile(
        std::vector<double>(static_cast<std::size_t>(point.machines), 1.0));
    ThresholdScheduler profiled(unit);
    ASSERT_EQ(profiled.speed_profile(), nullptr) << context;
    const RunResult actual = run_online(profiled, inst);
    ASSERT_TRUE(actual.clean()) << context;

    expect_identical_decisions(actual, expected, context);
    expect_identical_schedules(actual.schedule, expected.schedule, context);
  }
}

TEST(ModelEquivalence, UnitSpeedProfilePinsGreedyBitIdentical) {
  for (const SweepPoint& point : sweep_grid()) {
    const Instance inst = make_stream(point);
    const std::string context = describe(point);

    GreedyScheduler speedless(point.machines, GreedyPolicy::kBestFit);
    const RunResult expected = run_online(speedless, inst);

    GreedyScheduler profiled(
        SpeedProfile(
            std::vector<double>(static_cast<std::size_t>(point.machines),
                                1.0)),
        GreedyPolicy::kBestFit);
    const RunResult actual = run_online(profiled, inst);

    expect_identical_decisions(actual, expected, context);
    expect_identical_schedules(actual.schedule, expected.schedule, context);
  }
}

TEST(ModelEquivalence, RelatedMachineRunsStayLegalAcrossModels) {
  // Not an equivalence — the sanity floor for the heterogeneous extension:
  // every model produces a clean, deadline-feasible schedule on two-tier
  // and geometric speed profiles.
  for (const SweepPoint& point : sweep_grid()) {
    if (point.machines < 2) continue;
    const Instance inst = make_stream(point, 200);
    for (const SpeedProfile& profile :
         {SpeedProfile::two_tier(point.machines, 1, 4.0),
          SpeedProfile::geometric(point.machines, 0.5)}) {
      const std::string context = describe(point) + " " + profile.label();

      GreedyScheduler greedy(profile, GreedyPolicy::kBestFit);
      const RunResult arrival = run_online(greedy, inst);
      ASSERT_TRUE(arrival.clean()) << context;
      ASSERT_TRUE(validate_schedule(inst, arrival.schedule).ok) << context;

      DeltaCommitConfig config;
      config.machines = point.machines;
      config.delta = 0.5;
      config.speeds = profile.speeds();
      DeltaCommitScheduler delta(config);
      const RunResult deferred = run_online(delta, inst);
      ASSERT_TRUE(deferred.clean())
          << context << ": " << deferred.commitment_violation;
      ASSERT_TRUE(validate_schedule(inst, deferred.schedule).ok) << context;
    }
  }
}

}  // namespace
}  // namespace slacksched
