// Unit tests for the commitment-model subsystem (src/models/): speed
// profiles, commitment contracts, the speed-aware core containers, the
// contract-aware validator overload, the δ-commitment scheduler, and the
// model factory. The cross-model boundary equivalences
// (δ→0 vs. commit-on-arrival, τ=∞ vs. run_delayed_commit, uniform-speed
// bit-identity) live in test_model_equivalence.cpp.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/expects.hpp"
#include "core/frontier_set.hpp"
#include "models/commitment.hpp"
#include "models/delta_commit.hpp"
#include "models/model_factory.hpp"
#include "models/speed_profile.hpp"
#include "sched/engine.hpp"
#include "sched/validator.hpp"

namespace slacksched {
namespace {

Job make_job(JobId id, TimePoint r, Duration p, TimePoint d) {
  Job j;
  j.id = id;
  j.release = r;
  j.proc = p;
  j.deadline = d;
  return j;
}

// --- SpeedProfile ---------------------------------------------------------

TEST(SpeedProfile, UniformByCount) {
  const SpeedProfile profile(3);
  EXPECT_EQ(profile.machines(), 3);
  EXPECT_TRUE(profile.uniform());
  EXPECT_EQ(profile.speeds(), std::vector<double>(3, 1.0));
  EXPECT_DOUBLE_EQ(profile.exec_time(0, 7.5), 7.5);
  EXPECT_DOUBLE_EQ(profile.total_speed(), 3.0);
  EXPECT_EQ(profile.label(), "uniform");
}

TEST(SpeedProfile, AllUnitVectorIsNormalizedToUniform) {
  // The uniform-speed guarantee: an explicit all-1.0 vector must take the
  // exact identical-machine code paths (exec_time returns proc unchanged,
  // no division ever happens).
  const SpeedProfile profile(std::vector<double>{1.0, 1.0, 1.0});
  EXPECT_TRUE(profile.uniform());
  EXPECT_EQ(profile, SpeedProfile(3));
}

TEST(SpeedProfile, HeterogeneousExecTime) {
  const SpeedProfile profile(std::vector<double>{2.0, 1.0, 0.5});
  EXPECT_FALSE(profile.uniform());
  EXPECT_DOUBLE_EQ(profile.exec_time(0, 8.0), 4.0);
  EXPECT_DOUBLE_EQ(profile.exec_time(1, 8.0), 8.0);
  EXPECT_DOUBLE_EQ(profile.exec_time(2, 8.0), 16.0);
  EXPECT_DOUBLE_EQ(profile.total_speed(), 3.5);
}

TEST(SpeedProfile, TwoTierAndGeometricShapes) {
  const SpeedProfile two = SpeedProfile::two_tier(4, 1, 4.0);
  ASSERT_EQ(two.machines(), 4);
  EXPECT_DOUBLE_EQ(two.speed(0), 4.0);  // fast machines at the low indices
  EXPECT_DOUBLE_EQ(two.speed(3), 1.0);

  const SpeedProfile geo = SpeedProfile::geometric(3, 0.5);
  EXPECT_DOUBLE_EQ(geo.speed(0), 1.0);
  EXPECT_DOUBLE_EQ(geo.speed(1), 0.5);
  EXPECT_DOUBLE_EQ(geo.speed(2), 0.25);
  EXPECT_FALSE(geo.uniform());

  // Ratio 1 degenerates to identical machines — and must normalize so.
  EXPECT_TRUE(SpeedProfile::geometric(3, 1.0).uniform());
}

TEST(SpeedProfile, RejectsNonPositiveAndNonFiniteSpeeds) {
  EXPECT_THROW(SpeedProfile(std::vector<double>{1.0, 0.0}),
               PreconditionError);
  EXPECT_THROW(SpeedProfile(std::vector<double>{-1.0}), PreconditionError);
  EXPECT_THROW(
      SpeedProfile(std::vector<double>{std::numeric_limits<double>::infinity()}),
      PreconditionError);
  EXPECT_THROW(SpeedProfile(std::vector<double>{}), PreconditionError);
  EXPECT_THROW(SpeedProfile(0), PreconditionError);
}

// --- CommitmentContract ---------------------------------------------------

TEST(CommitmentContract, CommitDeadlinesPerModel) {
  const Job job = make_job(1, 10.0, 4.0, 30.0);  // latest start 26

  const CommitmentContract arrival{CommitModel::kOnArrival, 0.0};
  EXPECT_DOUBLE_EQ(arrival.commit_deadline(job), 10.0);

  const CommitmentContract delta{CommitModel::kDelta, 2.0};
  EXPECT_DOUBLE_EQ(delta.commit_deadline(job), 18.0);  // r + 2p = 18 < 26

  // A large δ is clamped by the latest start: τ never exceeds d − p.
  const CommitmentContract big_delta{CommitModel::kDelta, 100.0};
  EXPECT_DOUBLE_EQ(big_delta.commit_deadline(job), 26.0);

  const CommitmentContract admission{CommitModel::kOnAdmission, 0.0};
  EXPECT_DOUBLE_EQ(admission.commit_deadline(job), 26.0);
}

TEST(CommitmentContract, LabelRoundTrip) {
  for (const CommitModel model :
       {CommitModel::kOnArrival, CommitModel::kDelta,
        CommitModel::kOnAdmission}) {
    EXPECT_EQ(commit_model_from_label(to_string(model)), model);
  }
  EXPECT_FALSE(commit_model_from_label("nonsense").has_value());
}

// --- Speed-aware FrontierSet ----------------------------------------------

TEST(FrontierSetSpeeds, AllUnitVectorKeepsUniformPath) {
  FrontierSet frontier(2, std::vector<double>{1.0, 1.0});
  EXPECT_TRUE(frontier.uniform_speeds());
  EXPECT_DOUBLE_EQ(frontier.exec_time(1, 3.0), 3.0);
}

TEST(FrontierSetSpeeds, BestFitUsesMachineSpecificExecTime) {
  // Machine 0 is 4x fast, machine 1 is slow. A tight job only fits the
  // fast machine even though both are idle.
  FrontierSet frontier(2, std::vector<double>{4.0, 1.0});
  EXPECT_FALSE(frontier.uniform_speeds());
  EXPECT_DOUBLE_EQ(frontier.exec_time(0, 8.0), 2.0);
  const int machine = frontier.best_fit(/*now=*/0.0, /*proc=*/8.0,
                                        /*deadline=*/3.0);
  EXPECT_EQ(machine, 0);
  frontier.update(0, 2.0);

  // Now the fast machine is busy until 2; a job with deadline 4 and proc 4
  // fits neither the busy fast machine (2 + 1 > 4 is fine: 3 <= 4, fits)
  // — best-fit prefers the *most loaded* feasible machine.
  const int second = frontier.best_fit(0.0, 4.0, 4.0);
  EXPECT_EQ(second, 0);  // frontier 2 + exec 1 = 3 <= 4; machine 1 needs 4
}

TEST(FrontierSetSpeeds, NoFeasibleMachineReturnsMinusOne) {
  FrontierSet frontier(2, std::vector<double>{0.5, 0.5});
  // exec time 2/0.5 = 4 > deadline 3 on both machines.
  EXPECT_EQ(frontier.best_fit(0.0, 2.0, 3.0), -1);
  EXPECT_EQ(frontier.least_loaded_fit(0.0, 2.0, 3.0), -1);
}

TEST(FrontierSetSpeeds, LeastLoadedFitPrefersLightestFeasible) {
  FrontierSet frontier(3, std::vector<double>{1.0, 1.0, 2.0});
  frontier.update(0, 1.0);
  frontier.update(2, 0.5);
  // All feasible for a loose job; machine 1 has zero load.
  EXPECT_EQ(frontier.least_loaded_fit(0.0, 1.0, 100.0), 1);
}

// --- Speed-aware Schedule + validator -------------------------------------

TEST(ScheduleSpeeds, CommitUsesExecTime) {
  Schedule schedule(2, std::vector<double>{2.0, 1.0});
  EXPECT_FALSE(schedule.uniform_speeds());
  const Job job = make_job(1, 0.0, 6.0, 10.0);
  schedule.commit(job, /*machine=*/0, /*start=*/0.0);
  const auto placement = schedule.find(1);
  ASSERT_TRUE(placement.has_value());
  EXPECT_DOUBLE_EQ(placement->duration, 3.0);  // 6 / 2.0
  EXPECT_DOUBLE_EQ(placement->completion(), 3.0);
  EXPECT_DOUBLE_EQ(schedule.makespan(), 3.0);
  // The objective counts processing volume, not occupancy.
  EXPECT_DOUBLE_EQ(schedule.total_volume(), 6.0);
}

TEST(ScheduleSpeeds, ValidatorChecksSpeedAwareCompletion) {
  Schedule schedule(1, std::vector<double>{0.5});
  // proc 4 on a 0.5-speed machine occupies 8 time units: misses deadline 6.
  const Job job = make_job(1, 0.0, 4.0, 6.0);
  const std::string violation =
      validate_commitment(schedule, job, Decision::accept(0, 0.0));
  EXPECT_FALSE(violation.empty());

  // The same decision is fine with deadline 9.
  const Job loose = make_job(2, 0.0, 4.0, 9.0);
  EXPECT_TRUE(
      validate_commitment(schedule, loose, Decision::accept(0, 0.0)).empty());
}

TEST(ContractValidator, DeferredDecisionIsNeverACommitment) {
  const Schedule schedule(1);
  const Job job = make_job(1, 0.0, 1.0, 5.0);
  const CommitmentContract contract{CommitModel::kDelta, 1.0};
  EXPECT_FALSE(validate_commitment(schedule, job, Decision::defer(),
                                   /*decided_at=*/0.0, contract)
                   .empty());
}

TEST(ContractValidator, DeltaContractBoundsDecisionTime) {
  const Schedule schedule(2);
  const Job job = make_job(1, 0.0, 2.0, 10.0);  // τ = min(0 + 1·2, 8) = 2
  const CommitmentContract contract{CommitModel::kDelta, 1.0};

  // In-window decision, start after decision: legal.
  EXPECT_TRUE(validate_commitment(schedule, job, Decision::accept(0, 3.0),
                                  /*decided_at=*/2.0, contract)
                  .empty());
  // Decided after τ: the deferral budget is exhausted.
  EXPECT_FALSE(validate_commitment(schedule, job, Decision::accept(0, 3.0),
                                   /*decided_at=*/2.5, contract)
                   .empty());
  // Decided before release: the job did not exist yet.
  EXPECT_FALSE(validate_commitment(schedule, job, Decision::accept(0, 3.0),
                                   /*decided_at=*/-1.0, contract)
                   .empty());
  // Retroactive start (before the decision): never legal.
  EXPECT_FALSE(validate_commitment(schedule, job, Decision::accept(0, 1.0),
                                   /*decided_at=*/2.0, contract)
                   .empty());
  // Rejections are always legal, whenever they land.
  EXPECT_TRUE(validate_commitment(schedule, job, Decision::reject(),
                                  /*decided_at=*/9.0, contract)
                  .empty());
}

TEST(ContractValidator, OnAdmissionPinsStartToDecisionTime) {
  const Schedule schedule(1);
  const Job job = make_job(1, 0.0, 2.0, 10.0);
  const CommitmentContract contract{CommitModel::kOnAdmission, 0.0};
  EXPECT_TRUE(validate_commitment(schedule, job, Decision::accept(0, 4.0),
                                  /*decided_at=*/4.0, contract)
                  .empty());
  // Committing now for a later start is the δ model, not on-admission.
  EXPECT_FALSE(validate_commitment(schedule, job, Decision::accept(0, 5.0),
                                   /*decided_at=*/4.0, contract)
                   .empty());
}

// --- DeltaCommitScheduler through the engine ------------------------------

TEST(DeltaCommit, DefersOnArrivalAndResolvesThroughTheEngine) {
  DeltaCommitScheduler scheduler(/*delta=*/0.5, /*machines=*/1);
  const Instance inst({make_job(1, 0.0, 2.0, 5.0)});
  const RunResult result = run_online(scheduler, inst);
  EXPECT_TRUE(result.clean()) << result.commitment_violation;
  EXPECT_EQ(result.metrics.submitted, 1u);
  EXPECT_EQ(result.metrics.accepted, 1u);
  ASSERT_EQ(result.decisions.size(), 1u);
  EXPECT_TRUE(result.decisions[0].decision.accepted);
  EXPECT_TRUE(validate_schedule(inst, result.schedule).ok);
}

TEST(DeltaCommit, AcceptsEverythingTheGreedyFrontierCanPlace) {
  // Machine busy until 4 with job 1; job 2 still fits after it. Decisions
  // must land by each job's τ and come out clean under the δ contract.
  DeltaCommitScheduler scheduler(/*delta=*/2.0, /*machines=*/1);
  const Instance inst(
      {make_job(1, 0.0, 4.0, 10.0), make_job(2, 0.0, 3.0, 8.0)});
  const RunResult result = run_online(scheduler, inst);
  EXPECT_TRUE(result.clean()) << result.commitment_violation;
  EXPECT_EQ(result.metrics.accepted, 2u);
  EXPECT_TRUE(validate_schedule(inst, result.schedule).ok);
}

TEST(DeltaCommit, ExpiredPendingJobIsRejectedNotDropped) {
  // Job 2's latest start passes while it waits: the resolution stream must
  // contain an explicit binding rejection (metrics count it).
  DeltaCommitConfig config;
  config.machines = 1;
  config.commit_on_admission = true;
  DeltaCommitScheduler scheduler(config);
  const Instance inst(
      {make_job(1, 0.0, 4.0, 10.0), make_job(2, 0.5, 3.0, 4.0)});
  const RunResult result = run_online(scheduler, inst);
  EXPECT_TRUE(result.clean()) << result.commitment_violation;
  EXPECT_EQ(result.metrics.accepted, 1u);
  EXPECT_EQ(result.metrics.rejected, 1u);
  EXPECT_DOUBLE_EQ(result.metrics.rejected_volume, 3.0);
}

TEST(DeltaCommit, RelatedMachinesUseSpeedAwareOccupancy) {
  DeltaCommitConfig config;
  config.machines = 2;
  config.delta = 0.0;
  config.speeds = {4.0, 1.0};
  DeltaCommitScheduler scheduler(config);
  ASSERT_NE(scheduler.speed_profile(), nullptr);
  // proc 8, deadline 3: only the speed-4 machine (exec 2) can serve it.
  const Instance inst({make_job(1, 0.0, 8.0, 3.0)});
  const RunResult result = run_online(scheduler, inst);
  EXPECT_TRUE(result.clean()) << result.commitment_violation;
  EXPECT_EQ(result.metrics.accepted, 1u);
  const auto placement = result.schedule.find(1);
  ASSERT_TRUE(placement.has_value());
  EXPECT_EQ(placement->machine, 0);
  EXPECT_DOUBLE_EQ(placement->duration, 2.0);
  EXPECT_FALSE(result.schedule.uniform_speeds());
}

TEST(DeltaCommit, UniformProfileReportsNoSpeedProfile) {
  // All-unit speeds must keep the engine on the identical-machine Schedule.
  DeltaCommitConfig config;
  config.machines = 2;
  config.speeds = {1.0, 1.0};
  DeltaCommitScheduler scheduler(config);
  EXPECT_EQ(scheduler.speed_profile(), nullptr);
}

TEST(DeltaCommit, NameEncodesTheModelPoint) {
  DeltaCommitScheduler delta(0.25, 2);
  EXPECT_NE(delta.name().find("0.25"), std::string::npos);
  DeltaCommitConfig config;
  config.machines = 2;
  config.commit_on_admission = true;
  DeltaCommitScheduler admission(config);
  EXPECT_NE(admission.name().find("admission"), std::string::npos);
}

// --- Model factory + gateway selector -------------------------------------

TEST(ModelFactory, BuildsEveryModel) {
  ModelConfig config;
  config.machines = 2;

  config.model = CommitModel::kOnArrival;
  config.arrival = ArrivalPolicy::kThreshold;
  config.eps = 0.25;
  EXPECT_NE(make_scheduler(config)->name().find("Threshold"),
            std::string::npos);

  config.arrival = ArrivalPolicy::kGreedyBestFit;
  EXPECT_NE(make_scheduler(config)->name().find("Greedy"), std::string::npos);

  config.model = CommitModel::kDelta;
  config.delta = 0.5;
  auto delta = make_scheduler(config);
  EXPECT_EQ(delta->commitment_contract().model, CommitModel::kDelta);
  EXPECT_DOUBLE_EQ(delta->commitment_contract().delta, 0.5);

  config.model = CommitModel::kOnAdmission;
  auto admission = make_scheduler(config);
  EXPECT_EQ(admission->commitment_contract().model,
            CommitModel::kOnAdmission);
}

TEST(ModelFactory, ValidatesItsConfig) {
  ModelConfig config;
  config.machines = 0;
  EXPECT_FALSE(config.validate().empty());
  EXPECT_THROW((void)make_scheduler(config), PreconditionError);

  config.machines = 2;
  config.speeds = {1.0};  // wrong arity
  EXPECT_FALSE(config.validate().empty());

  config.speeds.clear();
  config.model = CommitModel::kOnArrival;
  config.arrival = ArrivalPolicy::kThreshold;
  config.eps = 0.0;
  EXPECT_FALSE(config.validate().empty());

  config.eps = 0.1;
  config.model = CommitModel::kDelta;
  config.delta = -1.0;
  EXPECT_FALSE(config.validate().empty());
}

}  // namespace
}  // namespace slacksched
