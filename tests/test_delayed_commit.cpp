// Hand-computed cases of the commitment-on-admission queue, each run
// against both implementations: the delayed-commit oracle
// (tests/support/delayed_commit_reference.hpp) and the library's
// DeltaCommitScheduler in admission mode driven through the engine.
#include <gtest/gtest.h>

#include <string>

#include "common/expects.hpp"
#include "models/delta_commit.hpp"
#include "sched/engine.hpp"
#include "sched/validator.hpp"
#include "workload/generators.hpp"

#include "delayed_commit_reference.hpp"

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

enum class Implementation { kOracle, kAdmissionMode };

/// What both implementations report: the committed schedule and metrics.
struct Outcome {
  Schedule schedule;
  RunMetrics metrics;
};

class CommitOnAdmission : public ::testing::TestWithParam<Implementation> {
 protected:
  Outcome run(const Instance& inst, int machines,
              QueuePolicy policy = QueuePolicy::kEdf) const {
    if (GetParam() == Implementation::kOracle) {
      DelayedCommitResult result = run_delayed_commit(inst, machines, policy);
      return {std::move(result.schedule), result.metrics};
    }
    DeltaCommitScheduler alg(
        {machines, 0.0, /*commit_on_admission=*/true, policy, {}});
    RunResult result = run_online(alg, inst);
    EXPECT_TRUE(result.clean()) << result.commitment_violation;
    return {std::move(result.schedule), result.metrics};
  }
};

TEST_P(CommitOnAdmission, RunsSingleJob) {
  const Instance inst({make_job(1, 0.0, 2.0, 5.0)});
  const Outcome result = run(inst, 1);
  EXPECT_EQ(result.metrics.accepted, 1u);
  EXPECT_DOUBLE_EQ(result.metrics.accepted_volume, 2.0);
  EXPECT_TRUE(validate_schedule(inst, result.schedule).ok);
}

TEST_P(CommitOnAdmission, WaitsInsteadOfRejecting) {
  // Immediate commitment would have to reject the second job (machine busy
  // until 4, deadline 6 < 4 + 3); commitment on admission can wait: the
  // machine frees at 4 and the job still makes its deadline 8.
  const Instance inst({make_job(1, 0.0, 4.0, 10.0),
                       make_job(2, 0.0, 3.0, 8.0)});
  EXPECT_EQ(run(inst, 1).metrics.accepted, 2u);
}

TEST_P(CommitOnAdmission, DropsJobsWhoseLatestStartPasses) {
  // Job 2 arrives while the machine is already busy until 4; its latest
  // start (1.0) passes in the queue, so it is implicitly rejected.
  const Instance inst({make_job(1, 0.0, 4.0, 10.0),
                       make_job(2, 0.5, 3.0, 4.0)});
  const Outcome result = run(inst, 1);
  EXPECT_EQ(result.metrics.accepted, 1u);
  EXPECT_EQ(result.metrics.rejected, 1u);
  EXPECT_DOUBLE_EQ(result.metrics.rejected_volume, 3.0);
}

TEST_P(CommitOnAdmission, EdfPrefersUrgentJob) {
  // Two jobs queued while the machine is busy; EDF starts the earlier
  // deadline first when the machine frees.
  const Instance inst({make_job(1, 0.0, 2.0, 10.0),
                       make_job(2, 0.5, 2.0, 20.0),
                       make_job(3, 0.5, 2.0, 6.0)});
  const Outcome result = run(inst, 1, QueuePolicy::kEdf);
  const auto p3 = result.schedule.find(3);
  const auto p2 = result.schedule.find(2);
  ASSERT_TRUE(p3.has_value());
  ASSERT_TRUE(p2.has_value());
  EXPECT_LT(p3->start, p2->start);
}

TEST_P(CommitOnAdmission, LargestFirstPrefersVolume) {
  const Instance inst({make_job(1, 0.0, 2.0, 10.0),
                       make_job(2, 0.5, 1.0, 20.0),
                       make_job(3, 0.5, 3.0, 20.0)});
  const Outcome result = run(inst, 1, QueuePolicy::kLargestFirst);
  const auto p3 = result.schedule.find(3);
  const auto p2 = result.schedule.find(2);
  ASSERT_TRUE(p3.has_value());
  ASSERT_TRUE(p2.has_value());
  EXPECT_LT(p3->start, p2->start);
}

TEST_P(CommitOnAdmission, AccountsEveryJob) {
  WorkloadConfig config;
  config.n = 500;
  config.eps = 0.05;
  config.arrival_rate = 5.0;
  config.seed = 2718;
  const Instance inst = generate_workload(config);
  for (QueuePolicy policy : {QueuePolicy::kEdf, QueuePolicy::kLargestFirst,
                             QueuePolicy::kLeastSlackFirst}) {
    const Outcome result = run(inst, 2, policy);
    EXPECT_EQ(result.metrics.accepted + result.metrics.rejected,
              result.metrics.submitted)
        << to_string(policy);
    EXPECT_NEAR(
        result.metrics.accepted_volume + result.metrics.rejected_volume,
        inst.total_volume(), 1e-6)
        << to_string(policy);
    EXPECT_TRUE(validate_schedule(inst, result.schedule).ok)
        << to_string(policy);
  }
}

TEST_P(CommitOnAdmission, MultiMachineUsesAllMachines) {
  const Instance inst({make_job(1, 0.0, 4.0, 8.0), make_job(2, 0.0, 4.0, 8.0),
                       make_job(3, 0.0, 4.0, 8.0)});
  const Outcome result = run(inst, 3);
  EXPECT_EQ(result.metrics.accepted, 3u);
  EXPECT_DOUBLE_EQ(result.metrics.makespan, 4.0);
}

TEST_P(CommitOnAdmission, EmptyInstance) {
  const Outcome result = run(Instance{}, 2);
  EXPECT_EQ(result.metrics.submitted, 0u);
  EXPECT_DOUBLE_EQ(result.metrics.accepted_volume, 0.0);
}

TEST_P(CommitOnAdmission, RejectsBadMachineCount) {
  EXPECT_THROW((void)run(Instance{}, 0), PreconditionError);
}

INSTANTIATE_TEST_SUITE_P(
    BothImplementations, CommitOnAdmission,
    ::testing::Values(Implementation::kOracle, Implementation::kAdmissionMode),
    [](const ::testing::TestParamInfo<Implementation>& param) {
      return std::string(param.param == Implementation::kOracle
                             ? "Oracle"
                             : "AdmissionMode");
    });

TEST(QueuePolicyNames, AreStable) {
  EXPECT_EQ(to_string(QueuePolicy::kEdf), "edf");
  EXPECT_EQ(to_string(QueuePolicy::kLargestFirst), "largest-first");
  EXPECT_EQ(to_string(QueuePolicy::kLeastSlackFirst), "least-slack");
}

}  // namespace
}  // namespace slacksched
